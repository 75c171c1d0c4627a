import copy
import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2sl2 import (
    ONE,
    CanonicalMonomial,
    GradeMismatchError,
    InvalidProfileError,
    ResourceBoundError,
    LieBracket,
    LieVar,
    MonotoneInjection,
    Profile,
    QPoly,
    ReducerTriple,
    enumerate_basis,
    factorize_embedding,
    identity_generators,
    lie_to_words,
    monomial_to_obj,
    normalize,
    reduce_word,
    subst_words,
)
from m2sl2.cli import main, poly_obj
import m2sl2.freealg as freealg
from m2sl2.freealg import MAX_BASIS, _capped_basis_size, _exponent_vectors, _monomial
from tests.util import (
    inflate,
    mono_mul,
    monomial_from_obj,
    monomial_indices,
    monomial_rows,
    pairwise_product,
    rand_lie,
    rand_monomial,
    rand_qpoly,
    recursive_exponent_vectors,
    reference_basis,
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
    with pytest.raises(ValueError, match="negative exponent"):
        CanonicalMonomial((-1,))
    with pytest.raises(ValueError, match="z index must be >= 1"):
        CanonicalMonomial((), (0,))
    # length difference of one is the odd-length case
    CanonicalMonomial((), (1, 2), (1,))
    # fields given as lists are kept as tuples: the monomial equals the
    # tuple-built one, and hashes
    listed = CanonicalMonomial([1], [1], [])
    assert listed == CanonicalMonomial((1,), (1,), ()) and listed == ((1,), (1,), ())
    assert QPoly({listed: 1}) == QPoly({CanonicalMonomial((1,), (1,)): 1})
    assert CanonicalMonomial.make([2, 0], [1, 3], [2]) == CanonicalMonomial((2,), (1, 3), (2,))


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
    with pytest.raises(ValueError, match="unknown letter family"):
        reduce_word((("x", 1),))


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
    # a zero coefficient is skipped, and the live pair next to it kept
    assert normalize([(0, word(y(1))), (3, word(y(2)))]) == QPoly.monomial(mk((0, 1)), 3)


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
                sign, m = reduce_word(wa + b.word())
                assert mono_mul(*parts, b.yexp, b.cseq, b.dseq) == (sign, m), (a, b)
                assert QPoly.monomial(a) * QPoly.monomial(b) == QPoly.monomial(m, sign), (a, b)
                pairs += 1
    assert pairs == 18_212


def test_qpoly_product_matches_pairwise_fold():
    # QPoly's product sums plain tuples and builds each surviving monomial
    # once; the fold through mono_mul one pair at a time is the oracle, for
    # the terms and for their dict order, where a term that cancels and
    # comes back moves to the end
    y1, y2, k = mk((1,)), mk((0, 1)), mk((1, 1))
    a = QPoly({y1: 1, y2: -1, ONE: 1})
    b = QPoly({y2: 1, y1: 1, k: 1})
    want, back = pairwise_product(a, b)
    assert back == 1 and list(want)[-1] == k  # y1*y2 - y2*y1 + 1*(y1 y2)
    assert list((a * b).terms.items()) == list(want.items())
    rng = random.Random(107)
    basis = list(enumerate_basis(2, 2))
    comebacks = 0
    for _ in range(400):
        a, b = (QPoly({rng.choice(basis): rng.choice((-1, 1)) for _ in range(rng.randint(1, 12))})
                for _ in range(2))
        want, back = pairwise_product(a, b)
        got = a * b
        assert list(got.terms.items()) == list(want.items()), (a, b)
        comebacks += back
    for _ in range(100):
        a, b = rand_qpoly(rng), rand_qpoly(rng)
        assert list((a * b).terms.items()) == list(pairwise_product(a, b)[0].items()), (a, b)
    assert comebacks > 50, comebacks  # 94 here


def test_mono_mul_sign_and_slot_swap():
    # z1 times y1*z2: y1 moves past one odd letter, and z2 lands on a d-slot
    assert mono_mul((), (1,), (), (1,), (2,), ()) == (-1, mk((1,), (1,), (2,)))
    # an even z-block keeps b's classes, and y-letters cost no sign past it
    assert mono_mul((), (1,), (3,), (1,), (2,), ()) == (1, mk((1,), (1, 2), (3,)))
    # y-exponents add, and b's slot tuples need not come sorted
    assert mono_mul((0, 1), (), (), (2,), (3, 1), (2,)) == (1, mk((2, 1), (1, 3), (2,)))


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
        assert a * 1 == a and 0 * a == QPoly()


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
    assert QPoly().degree == -1


def test_index_support_matches_monomial_indices():
    # the support reads each term's embedding rows, across zero rows: one
    # call per case, since neither a monomial nor a QPoly keeps anything
    f = QPoly.monomial(mk((1,), (3,))) + QPoly.monomial(mk((0, 0, 0, 2)))
    assert f._index_support() == (1, 3, 4)
    rng = random.Random(48)
    for _ in range(400):
        f = rand_qpoly(rng, max_terms=5, max_degree=6, max_index=6)
        want = tuple(sorted(set().union(*map(monomial_indices, f.terms))))
        assert f._index_support() == want, f


def test_embedding_matches_monomial_rows():
    # fresh copies of every monomial of degree <= 5 on indices <= 4, then
    # seeded monomials that others embed into, which have index holes and
    # repeated slot letters: the data is the counts and the rows of the
    # independent oracle
    def want(m):
        return (bool(m.cseq), len(m.cseq), len(m.dseq), sum(m.yexp), tuple(monomial_rows(m)))

    def check(m):
        assert m._embedding() == want(m), m

    for m in enumerate_basis(5, 4):
        check(CanonicalMonomial(m.yexp, m.cseq, m.dseq))
    rng = random.Random(40)
    both = 0
    for _ in range(600):
        m = inflate(rng, rand_monomial(rng, max_degree=6, max_index=4))
        check(m)
        hole = (0, 0, 0) in monomial_rows(m)
        both += hole and (len(set(m.cseq)) < len(m.cseq) or len(set(m.dseq)) < len(m.dseq))
    assert both > 150, both


def test_qpoly_equals_integers():
    # an integer compares as that multiple of the constant monomial
    assert QPoly.monomial(ONE, -2) == -2 and QPoly() == 0
    assert QPoly.letter(y(1)) != 1 and QPoly.monomial(ONE, 3) != 0
    # and mixes in as one, on either side (ring.Combination)
    f = QPoly.letter(z(1)) * QPoly.letter(y(2)) + QPoly.monomial(ONE, 2)
    assert f + 1 == f + QPoly.const(1) == 1 + f and 1 - f == -(f - 1)
    assert 3 * f == f * 3 == f + f + f and (f * 0).is_zero() and (0 * f).is_zero()
    assert QPoly.const(0).is_zero() and QPoly.const(3) == 3
    assert repr(QPoly()) == "QPoly({})"
    with pytest.raises(TypeError):
        hash(QPoly())


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
    the unchecked constructor _monomial and reduce_word."""
    yield CanonicalMonomial(m.yexp, m.cseq, m.dseq)
    yield CanonicalMonomial.make(list(m.yexp) + [0, 0], list(m.cseq), list(m.dseq))
    yield monomial_from_obj(monomial_to_obj(m))
    yield _monomial((m.yexp, m.cseq, m.dseq))
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
    bad = _monomial(((0,), (), ()))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(bad))


def test_monomial_is_its_field_tuple():
    # a monomial is the tuple (yexp, cseq, dseq): it equals, hashes and
    # orders as that plain tuple, so either one finds the other in a dict
    rng = random.Random(29)
    pool = [rand_monomial(rng) for _ in range(300)]
    for m in pool:
        t = (m.yexp, m.cseq, m.dseq)
        assert m == t and t == m and not m != t and hash(m) == hash(t)
        assert tuple(m) == t and type(tuple(m)) is tuple and len(m) == 3
        assert {t: 1}[m] == 1 and {m: 1}[t] == 1
    assert sorted(pool) == sorted([(m.yexp, m.cseq, m.dseq) for m in pool])


def test_copy_and_pickle_validate_on_every_protocol():
    # each rebuild goes through the validating constructor, so a monomial
    # built unchecked with a bad field is refused by every one of them
    bad = [_monomial(fields) for fields in (((0,), (), ()), ((-1,), (), ()), ((), (0,), ()),
                                            ((), (2, 1), ()), ((), (1,), (1, 2)), ((), (), (1,)))]
    rebuilds = [copy.copy, copy.deepcopy, *(
        lambda m, proto=proto: pickle.loads(pickle.dumps(m, proto))
        for proto in range(pickle.HIGHEST_PROTOCOL + 1))]
    for m in bad:
        for rebuild in rebuilds:
            with pytest.raises(ValueError):
                rebuild(m)
    good = CanonicalMonomial((2, 1), (1, 3), (2,))
    for rebuild in rebuilds:
        back = rebuild(good)
        assert type(back) is CanonicalMonomial and back == good


def test_records_rebuild_through_their_validating_constructor():
    # a triple, a profile or an injection built unchecked with bad fields
    # is refused by copy, deepcopy and pickle on every protocol; good ones,
    # from_table's unchecked build included, come back equal, of their type
    phi = MonotoneInjection(((1, 1),))
    bad = [(ReducerTriple, (phi, CanonicalMonomial((), (1,)), ()), ValueError),
           (ReducerTriple, (phi, CanonicalMonomial((1,), (1,), (2,)), (3,)), ValueError),
           (Profile, (3, (), (), ()), InvalidProfileError),
           (Profile, (1, (1, 0), (), ()), InvalidProfileError),
           (Profile, (2, (), (1,), (0, 2)), InvalidProfileError),
           (MonotoneInjection, (((2, 1), (1, 2)),), ValueError),
           (MonotoneInjection, (((1, 2), (2, 2)),), ValueError),
           (MonotoneInjection, (((0, 1),),), ValueError)]
    rebuilds = [copy.copy, copy.deepcopy, *(
        lambda r, proto=proto: pickle.loads(pickle.dumps(r, proto))
        for proto in range(pickle.HIGHEST_PROTOCOL + 1))]
    for cls, fields, error in bad:
        record = tuple.__new__(cls, fields)
        for rebuild in rebuilds:
            with pytest.raises(error):
                rebuild(record)
    good = [ReducerTriple(MonotoneInjection(((1, 1), (2, 3))), CanonicalMonomial((0, 2)), [3, 1, 2]),
            factorize_embedding(CanonicalMonomial((1,), (1,)), CanonicalMonomial((2, 1), (1, 3), (2,))),
            Profile(1), Profile(1, (2, 1)), Profile(2, (1,), (1,), ()), Profile(2, (), (1, 1), (0, 2)),
            MonotoneInjection(), MonotoneInjection(((1, 2), (3, 5))),
            MonotoneInjection.from_table([0, 2, 4])]
    for record in good:
        for rebuild in rebuilds:
            back = rebuild(record)
            assert type(back) is type(record) and back == record and hash(back) == hash(record)


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


def test_enumerate_basis_matches_nested_loops():
    # the lazy basis generator against a plain nested-loop enumerator, in order
    for degree in range(7):
        for indices in range(1, 5):
            assert list(enumerate_basis(degree, indices)) == reference_basis(degree, indices), (
                degree, indices)


def test_enumerate_basis_draws_only_what_it_yields(monkeypatch, capsys):
    # the stream is lazy: pulling a few monomials draws one y-exponent
    # vector each, not a class's worth, so `chain-demo --budget` bounds the
    # work however many indices there are
    drawn = []
    real = freealg._exponent_vectors

    def counted(slots, total):
        for v in real(slots, total):
            drawn.append(total)
            yield v

    monkeypatch.setattr(freealg, "_exponent_vectors", counted)
    stream = enumerate_basis(8, 10_000)
    assert drawn == []
    first = list(islice(stream, 5))
    assert first == [ONE] + [mk((0,) * (i - 1) + (1,)) for i in range(10_000, 9_996, -1)]
    assert drawn == [0, 1, 1, 1, 1]
    drawn.clear()
    assert main(["chain-demo", "--degree", "8", "--indices", "10000", "--budget", "5"]) == 0
    assert capsys.readouterr().out.endswith("budget exhausted after 5 steps; no stabilization claim\n")
    assert len(drawn) <= 6, len(drawn)


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
