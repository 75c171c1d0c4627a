import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2sl2 import (
    ONE,
    CanonicalMonomial,
    GradeMismatchError,
    ResourceBoundError,
    LieBracket,
    LieVar,
    QPoly,
    enumerate_basis,
    identity_generators,
    lie_to_words,
    monomial_to_obj,
    normalize,
    reduce_word,
    subst_words,
)
from m2sl2.cli import poly_obj
from m2sl2.freealg import MAX_BASIS, _capped_basis_size, _exponent_vectors, _mono_mul
from tests.util import (
    monomial_from_obj,
    rand_lie,
    rand_monomial,
    rand_qpoly,
    recursive_exponent_vectors,
    word,
    y,
    z,
)


def mk(yexp=(), cseq=(), dseq=()):
    return CanonicalMonomial.make(yexp, cseq, dseq)


# --- canonical form ----------------------------------------------------------

def test_monomial_validation():
    with pytest.raises(ValueError):
        CanonicalMonomial((0,), (), ())  # untrimmed exponent vector
    with pytest.raises(ValueError):
        CanonicalMonomial((), (2, 1), ())  # unsorted slot sequence
    with pytest.raises(ValueError):
        CanonicalMonomial((), (), (1,))  # d-slots cannot outnumber c-slots
    with pytest.raises(ValueError):
        CanonicalMonomial((), (1, 2), (3, 4, 5))
    # length difference of one is the odd-length case
    CanonicalMonomial((), (1, 2), (1,))


def test_monomial_props():
    m = mk((2, 0, 1), (1, 3), (2,))
    assert m.degree == 6
    assert m.grade == 1
    assert m.max_index == 3
    assert ONE.degree == 0
    assert m.word() == (("y", 1), ("y", 1), ("y", 3), ("z", 1), ("z", 2), ("z", 3))


def test_reduce_word_examples():
    assert reduce_word(word(y(2), y(1))) == (1, mk((1, 1)))
    assert reduce_word(word(z(1), y(1))) == (-1, mk((1,), (1,)))
    assert reduce_word(word(z(3), z(2), z(1))) == (1, mk((), (1, 3), (2,)))
    sign, m = reduce_word(word(y(1), z(2), z(1), z(3)))
    assert sign == 1
    assert m == mk((1,), (2, 3), (1,))


def test_reduce_word_sign_counts_yz_inversions():
    # z y y: the z letter hops over two y's
    assert reduce_word(word(z(1), y(1), y(2)))[0] == 1
    assert reduce_word(word(z(1), y(1)))[0] == -1
    assert reduce_word(word(y(1), z(1)))[0] == 1


def test_reduce_word_rejects_index_zero():
    # reduce_word builds its monomial without re-validation, so it checks
    # letter indices itself
    for w in ((("z", 0),), (("y", 0),), (("y", 0), ("y", 2)), (("z", 1), ("z", -3))):
        with pytest.raises(ValueError):
            reduce_word(w)


def test_reduce_word_idempotent_randomized():
    rng = random.Random(40)
    for _ in range(300):
        m = rand_monomial(rng)
        assert reduce_word(m.word()) == (1, m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("yz"), st.integers(1, 5)), max_size=9))
def test_reduce_word_canonical_output(letters):
    w = tuple(letters)
    sign, m = reduce_word(w)
    assert sign in (1, -1)
    # the trusted build passes the validating constructor
    assert CanonicalMonomial(m.yexp, m.cseq, m.dseq) == m
    # the output is already reduced
    assert reduce_word(m.word()) == (1, m)
    # letter multiset is preserved family by family
    assert sorted(i for f, i in w if f == "y") == sorted(
        i for i, e in enumerate(m.yexp, start=1) for _ in range(e)
    )
    assert sorted(i for f, i in w if f == "z") == sorted(m.cseq + m.dseq)


# --- quotient polynomials ----------------------------------------------------

def test_normalize_examples():
    assert normalize([(1, word(y(1), y(2))), (-1, word(y(2), y(1)))]).is_zero()
    assert normalize([(1, word(z(1), y(1))), (1, word(y(1), z(1)))]).is_zero()
    assert normalize([(2, word(z(1), z(2), z(3))), (-2, word(z(3), z(2), z(1)))]).is_zero()


def test_q_mul_examples():
    y1 = QPoly.letter(y(1))
    z1 = QPoly.letter(z(1))
    assert y1 * y1 == QPoly.monomial(mk((2,)))
    assert z1 * z1 == QPoly.monomial(mk((), (1,), (1,)))
    assert z1 * y1 == QPoly.monomial(mk((1,), (1,)), -1)
    assert y1 * z1 == QPoly.monomial(mk((1,), (1,)))


def test_mono_mul_matches_word_product_exhaustive():
    # every ordered pair of two small bases: the closed-form product against
    # reduce_word on the concatenated canonical words
    pairs = 0
    for basis in (list(enumerate_basis(3, 3)), list(enumerate_basis(4, 2))):
        for a in basis:
            wa, parts = a.word(), (a.yexp, a.cseq, a.dseq)
            for b in basis:
                assert _mono_mul(*parts, b.yexp, b.cseq, b.dseq) == reduce_word(wa + b.word()), (a, b)
                pairs += 1
    assert pairs == 18_212


def test_mono_mul_sign_and_slot_swap():
    # z1 times y1*z2: y1 moves past one odd letter, and z2 lands on a d-slot
    assert _mono_mul((), (1,), (), (1,), (2,), ()) == (-1, mk((1,), (1,), (2,)))
    # an even z-block keeps b's classes, and y-letters cost no sign past it
    assert _mono_mul((), (1,), (3,), (1,), (2,), ()) == (1, mk((1,), (1, 2), (3,)))
    # y-exponents add, and b's slot tuples need not come sorted
    assert _mono_mul((0, 1), (), (), (2,), (3, 1), (2,)) == (1, mk((2, 1), (1, 3), (2,)))


def test_commutator_examples():
    y1, y2 = QPoly.letter(y(1)), QPoly.letter(y(2))
    z1 = QPoly.letter(z(1))
    assert (y1 * y2 - y2 * y1).is_zero()
    f = rand_qpoly(random.Random(41))
    assert (f * f - f * f).is_zero()
    assert y1 * z1 - z1 * y1 == QPoly.monomial(mk((1,), (1,)), 2)


def test_qpoly_algebra_randomized():
    rng = random.Random(42)
    for _ in range(120):
        a, b, c = (rand_qpoly(rng, max_terms=3, max_degree=4) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * 1 == a and 0 * a == QPoly.zero()


def test_grade_coherence_randomized():
    rng = random.Random(43)
    for _ in range(150):
        a = rand_monomial(rng, max_degree=4)
        b = rand_monomial(rng, max_degree=4)
        prod = QPoly.monomial(a) * QPoly.monomial(b)
        for m in prod.terms:
            assert m.grade == (a.grade + b.grade) % 2


def test_degree_and_max_index():
    f = QPoly.monomial(mk((1,), (2,))) + QPoly.monomial(mk((3,)))
    assert f.degree == 3
    assert f.max_index == 2
    assert QPoly.zero().degree == -1


# --- Lie expressions and substitution ---------------------------------------

def test_lie_to_poly_examples():
    assert normalize(lie_to_words(LieVar(y(3)))) == QPoly.letter(y(3))
    assert normalize(lie_to_words(LieBracket(LieVar(y(1)), LieVar(y(2))))).is_zero()
    got = normalize(lie_to_words(LieBracket(LieVar(z(1)), LieVar(z(2)))))
    want = QPoly.monomial(mk((), (1,), (2,))) - QPoly.monomial(mk((), (2,), (1,)))
    assert got == want


def test_lie_grades():
    assert LieVar(y(1)).grade == 0
    assert LieVar(z(1)).grade == 1
    assert LieBracket(LieVar(z(1)), LieVar(z(2))).grade == 0
    assert LieBracket(LieVar(y(1)), LieVar(z(2))).grade == 1


def test_subst_examples():
    f = [(1, word(y(1), z(1)))]
    assert normalize(subst_words(f, {})) == QPoly.monomial(mk((1,), (1,)))

    f = [(1, word(y(1), y(2))), (-1, word(y(2), y(1)))]
    sigma = {y(1): LieBracket(LieVar(z(1)), LieVar(z(2))), y(2): LieVar(y(3))}
    assert normalize(subst_words(f, sigma)).is_zero()

    f = [(1, word(z(1), z(2), z(3))), (-1, word(z(3), z(2), z(1)))]
    sigma = {z(2): LieBracket(LieVar(y(1)), LieVar(z(2)))}
    assert normalize(subst_words(f, sigma)).is_zero()


def test_subst_grade_mismatch():
    with pytest.raises(GradeMismatchError):
        subst_words([(1, word(z(1)))], {z(1): LieVar(y(1))})
    with pytest.raises(GradeMismatchError):
        subst_words([(1, word(y(1)))], {y(1): LieBracket(LieVar(y(2)), LieVar(z(1)))})


def test_generators_die_under_any_graded_substitution():
    rng = random.Random(44)
    gens = identity_generators()
    for _ in range(60):
        g = gens[rng.randrange(3)]
        letters = {letter for _, w in g for letter in w}
        sigma = {
            letter: rand_lie(rng, 0 if letter[0] == "y" else 1, rng.randint(0, 2))
            for letter in letters
        }
        assert normalize(subst_words(g, sigma)).is_zero()
        # the raw expanded image is a sum of honest free words
        for coeff, w in subst_words(g, sigma):
            assert isinstance(coeff, int)
            assert all(f in ("y", "z") for f, _ in w)


def _each_constructor(m):
    """m rebuilt by the public constructor, make (also from its JSON record),
    the trusted constructor and reduce_word."""
    yield CanonicalMonomial(m.yexp, m.cseq, m.dseq)
    yield CanonicalMonomial.make(list(m.yexp) + [0, 0], list(m.cseq), list(m.dseq))
    yield monomial_from_obj(monomial_to_obj(m))
    yield CanonicalMonomial._trusted(m.yexp, m.cseq, m.dseq)
    sign, r = reduce_word(m.word())
    assert sign == 1
    yield r


def test_equal_monomials_from_every_constructor():
    rng = random.Random(46)
    for _ in range(200):
        m = rand_monomial(rng)
        copies = list(_each_constructor(m))
        for a in copies:
            # the cached hash is the hash of the three tuples, as before
            assert a == m and hash(a) == hash(m) == hash((m.yexp, m.cseq, m.dseq))
        assert len(set(copies)) == 1
        assert len({m: 0, **{a: 0 for a in copies}}) == 1


def test_monomial_copy_and_pickle_roundtrip():
    rng = random.Random(47)
    for _ in range(60):
        for m in _each_constructor(rand_monomial(rng)):
            if rng.random() < 0.5:
                m._embedding()  # warm caches travel nowhere, but must not break anything
            for back in (copy.copy(m), copy.deepcopy(m),
                         *(pickle.loads(pickle.dumps(m, proto))
                           for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
                assert type(back) is CanonicalMonomial
                assert back == m and hash(back) == hash(m)
                assert back._embedding() == m._embedding()
    # pickling rebuilds through the validating constructor
    bad = CanonicalMonomial._trusted((0,), (), ())
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(bad))


def test_monomial_is_immutable():
    m = mk((1,), (2,), ())
    for name, value in (("yexp", (2,)), ("cseq", ()), ("_hash", 0), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):
        del m.yexp
    assert m == mk((1,), (2,), ()) and m.yexp == (1,)


# --- serialization -----------------------------------------------------------

def test_monomial_obj_roundtrip():
    m = mk((0, 2), (1, 1), (3,))
    obj = monomial_to_obj(m)
    assert obj == {"y": [0, 2], "c": [1, 1], "d": [3]}
    assert monomial_from_obj(obj) == m


def test_poly_obj_roundtrip_randomized():
    rng = random.Random(45)
    for _ in range(80):
        f = rand_qpoly(rng)
        obj = poly_obj(f)
        for rec in obj:
            assert isinstance(rec["coeff"], str)  # coefficients travel as strings
        assert QPoly({monomial_from_obj(rec["m"]): int(rec["coeff"]) for rec in obj}) == f


# --- basis enumeration -------------------------------------------------------

def test_enumerate_basis_small():
    base = list(enumerate_basis(2, 2))
    assert len(base) == len(set(base))
    assert len(base) == 16
    assert ONE in base
    degs = [m.degree for m in base]
    assert degs == sorted(degs)  # graded enumeration
    for m in base:
        assert m.degree <= 2 and (m.max_index <= 2)


def test_enumerate_basis_counts_against_direct_formula():
    # degree <= 3 over one index: 1, y1, y1^2, y1^3, z1, y1 z1, y1^2 z1,
    # z1 z1, y1 z1 z1, z1 z1 z1 -> 10 monomials
    base = list(enumerate_basis(3, 1))
    assert len(base) == 10


def test_exponent_vectors_match_recursive_oracle():
    for slots in range(7):
        for total in range(7):
            assert list(_exponent_vectors(slots, total)) == list(
                recursive_exponent_vectors(slots, total)), (slots, total)


def test_trusted_basis_matches_validating_build():
    # enumerate_basis builds without re-validation; each monomial must be
    # what the validating constructor builds from the same tuples
    for max_degree in range(7):
        for max_index in range(1, 5):
            basis = list(enumerate_basis(max_degree, max_index))
            assert all(type(m.yexp) is type(m.cseq) is type(m.dseq) is tuple for m in basis)
            assert basis == [CanonicalMonomial(m.yexp, m.cseq, m.dseq) for m in basis]


def test_exponent_vectors_many_slots():
    # one generator frame for any slot count: the recursion used to give out
    # at about a thousand slots
    vecs = _exponent_vectors(5000, 2)
    assert next(vecs) == (0,) * 4999 + (2,)
    assert next(vecs) == (0,) * 4998 + (1, 1)
    assert sum(1 for _ in _exponent_vectors(5000, 1)) == 5000


def test_capped_basis_size_boundary():
    # a basis of exactly the cap passes, one over refuses; the default cap is
    # the one independence and chain-demo --order lex|total share
    assert _capped_basis_size(6, 3, 1627) == 1627
    with pytest.raises(ResourceBoundError, match="^enumeration exceeded 1626 monomials; tighten"):
        _capped_basis_size(6, 3, 1626)
    assert MAX_BASIS == 200_000
    assert _capped_basis_size(8, 3) == 6574
    with pytest.raises(ResourceBoundError, match="exceeded 200000 monomials"):
        _capped_basis_size(2, 5000)
