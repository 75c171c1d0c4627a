import random
from itertools import combinations_with_replacement, product

import pytest

import m2sl2
from m2sl2 import (
    CanonicalMonomial,
    IntRowLattice,
    QPoly,
    ResourceBoundError,
    enumerate_basis,
    eval_word,
    evaluate,
    genmat,
    independence_report,
    is_graded_weak_identity,
    normalize,
    reduce_word,
)
from m2sl2.freealg import _basis_size
from m2sl2.genmat import _conj, _mat_mul, _slot_entries, _word_entries, _words_matrix
from tests.util import (
    alpha,
    beta,
    entries,
    expected_y_product,
    expected_z_product,
    gamma,
    monomial_row,
    product_eval_word,
    product_evaluate,
    rand_monomial,
    rand_qpoly,
    rand_word,
    three_dict_word_entries,
    word,
    y,
    z,
)


def test_generic_matrices():
    gy = eval_word((("y", 2),))
    assert gy.e11 == alpha(2) and gy.e22 == -alpha(2)
    assert gy.e12 == 0 and gy.e21 == 0
    assert (gy.e11 + gy.e22).is_zero()  # traceless
    gz = eval_word((("z", 1),))
    assert gz.e12 == beta(1) and gz.e21 == gamma(1)
    assert gz.e11 == 0 and gz.e22 == 0
    assert gz != eval_word((("z", 2),))


def test_eval_pure_y_words():
    for idx in [(1,), (2, 2), (1, 3, 2), ()]:
        assert eval_word(tuple(("y", i) for i in idx)) == expected_y_product(idx)


def test_eval_pure_z_words():
    for idx in [(1,), (1, 2), (1, 2, 3), (2, 2, 1, 3)]:
        assert eval_word(tuple(("z", i) for i in idx)) == expected_z_product(idx)


def test_grading_of_evaluations():
    for m in enumerate_basis(4, 2):
        g = evaluate(m)
        if m.grade == 0:
            assert g.e12 == 0 and g.e21 == 0
        else:
            assert g.e11 == 0 and g.e22 == 0


def test_evaluate_is_multiplicative():
    rng = random.Random(70)
    for _ in range(100):
        f = rand_qpoly(rng, max_terms=2, max_degree=3, max_index=3)
        g = rand_qpoly(rng, max_terms=2, max_degree=3, max_index=3)
        assert evaluate(f * g) == evaluate(f) * evaluate(g)
        assert evaluate(f + g) == evaluate(f) + evaluate(g)


def test_word_evaluation_matches_canonical_form():
    rng = random.Random(71)
    for _ in range(200):
        w = rand_word(rng)
        sign, m = reduce_word(w)
        assert evaluate([(1, w)]) == evaluate([(sign, m.word())])


def test_raw_minus_normalized_is_identity():
    rng = random.Random(72)
    for _ in range(100):
        ws = [(rng.choice((-2, -1, 1, 2)), rand_word(rng, max_len=5)) for _ in range(3)]
        f = normalize(ws)
        diff = ws + [(-c, m.word()) for m, c in f.terms.items()]
        assert is_graded_weak_identity(diff)


def test_is_identity_examples():
    assert is_graded_weak_identity([(1, word(z(1), z(2), z(3))), (-1, word(z(3), z(2), z(1)))])
    assert is_graded_weak_identity(QPoly())
    assert not is_graded_weak_identity([(1, word(y(1), z(1)))])
    assert not is_graded_weak_identity(QPoly.letter(y(1)))


def test_evaluate_accepts_monomial():
    m = CanonicalMonomial.make((1,), (1,))
    assert evaluate(m) == eval_word(m.word())


def test_independence_small():
    rep = independence_report(2, 2)
    assert rep.monomials == 16
    assert rep.rank == 16
    assert rep.full_rank
    obj = rep.to_obj()
    assert obj["rank"] == obj["monomials"] == 16
    rep = independence_report(7, 3)
    assert (rep.monomials, rep.rank) == (3376, 3376)


@pytest.mark.parametrize("caps", [(6, 3), (4, 5), (5, 2), (7, 3)])
def test_independence_count_matches_lattice_rank(caps):
    # the rank computed before it was a count: the full rows in a lattice
    lattice = IntRowLattice()
    for m in enumerate_basis(*caps):
        lattice.add(monomial_row(m))
    assert independence_report(*caps).rank == lattice.rank


def test_independence_resource_bound(monkeypatch):
    with pytest.raises(ResourceBoundError, match="exceeded 200000 monomials"):
        independence_report(2, 5000)
    # the cap counts the whole basis, and a basis of exactly the cap is allowed
    monkeypatch.setattr(genmat, "MAX_BASIS", 16)
    assert independence_report(2, 2).monomials == 16
    monkeypatch.setattr(genmat, "MAX_BASIS", 15)
    with pytest.raises(ResourceBoundError, match="exceeded 15 monomials"):
        independence_report(2, 2)


def test_basis_size_closed_form_matches_enumeration():
    for degree in range(7):
        for indices in range(1, 5):
            n = sum(1 for _ in enumerate_basis(degree, indices))
            assert _basis_size(degree, indices, 10**9) == n, (degree, indices)
    for (degree, indices), n in {(6, 3): 1627, (7, 3): 3376, (8, 3): 6574}.items():
        assert _basis_size(degree, indices, 10**9) == n
    # past the cap the sum stops early, with any count above the cap
    assert 1627 >= _basis_size(6, 3, 100) > 100
    assert _basis_size(10**12, 10**12, 200_000) > 200_000


def test_eval_word_matches_product_oracle_exhaustive():
    letters = [("y", 1), ("y", 2), ("z", 1), ("z", 2)]
    count = 0
    for n in range(7):
        for w in product(letters, repeat=n):
            assert eval_word(w) == product_eval_word(w), w
            count += 1
    assert count == 5461


def test_evaluate_word_lists_with_cancellation():
    rng = random.Random(73)
    cancelled = 0
    for _ in range(150):
        ws = [(rng.choice((-3, -2, -1, 1, 2, 3)), rand_word(rng, max_len=6, max_index=3))
              for _ in range(rng.randint(1, 6))]
        extra = []
        for c, w in ws:
            pick = rng.random()
            if pick < 0.3:
                extra.append((-c, w))  # the same word cancels outright
            elif pick < 0.6:
                sign, m = reduce_word(w)
                extra.append((-c * sign, m.word()))  # a rewritten word cancels it
            elif pick < 0.7:
                extra.append((0, w))
        ws += extra
        rng.shuffle(ws)
        got = evaluate(ws)
        assert got == product_evaluate(ws), ws
        cancelled += got.is_zero() and len(ws) > 1
    assert cancelled > 0


def test_evaluate_drops_terms_that_cancel_between_words():
    # y1*z1 and z1*y1 put opposite terms in the same two entries
    g = evaluate([(1, word(y(1), z(1))), (1, word(z(1), y(1)))])
    assert g.is_zero()
    g = evaluate([(2, word(y(1), z(1))), (1, word(z(1), y(1)))])
    assert g == evaluate([(1, word(y(1), z(1)))])


def test_monomial_row_matches_product_oracle():
    # a monomial's evaluation read off its slots (_slot_entries, row 2 by
    # _conj), flattened, against the letter-by-letter product of its word
    for m in enumerate_basis(5, 3):
        got = {(pos, term): c for pos, poly in enumerate(entries(evaluate(m)))
               for term, c in poly.terms.items()}
        assert got == monomial_row(m), m


def test_independence_rank_counts_distinct_slot_entries():
    # the report reads the entries per basis class; the per-monomial
    # entries over the enumerated basis are the oracle
    for degree in range(7):
        for indices in range(1, 5):
            monos = list(enumerate_basis(degree, indices))
            rep = independence_report(degree, indices)
            want = len({(pos, term) for pos, term, _ in _slot_entries(monos)})
            assert (rep.monomials, rep.rank) == (len(monos), want), (degree, indices)


def _word_outcome(fn, w):
    """fn(w), or the type and message of the ValueError it raised."""
    try:
        return fn(w)
    except ValueError as exc:
        return type(exc), str(exc)


def test_word_entries_match_three_dict_form():
    rng = random.Random(101)
    for _ in range(3000):
        w = rand_word(rng, max_len=10, max_index=4)
        assert _word_entries(w) == three_dict_word_entries(w), w
    # bad letters: an unknown family raises as it is read, wherever a bad
    # index stands; a bad index alone raises after the loop
    bad = [(("x", 1),), (("z", 0),), (("y", 0),), (("y", 1), ("z", 0), ("x", 1)),
           (("x", 1), ("z", 0)), (("z", 0), ("y", 2), ("x", 1)), (("z", 2), ("y", -1), ("z", 1)),
           (("y", 2), ("y", 0)), (("y", 3), ("y", -1), ("y", 1)), (("y", 0), ("x", 1))]
    errors = set()
    for w in bad:
        got = _word_outcome(_word_entries, w)
        assert got == _word_outcome(three_dict_word_entries, w), w
        errors.add(got)
    assert errors == {(ValueError, "unknown letter family 'x'"),
                      (ValueError, "letter index must be >= 1")}


def test_letter_index_above_the_cap_is_refused():
    # a raw word's index above MAX_LETTER_INDEX is refused in either family
    # before an exponent list is sized by it, by every reader of raw words;
    # an index of 10**10 would not fit in memory.  The cap itself answers.
    assert m2sl2.parsing.MAX_LETTER_INDEX == m2sl2.freealg.MAX_LETTER_INDEX == 10_000
    readers = (eval_word, lambda w: evaluate([(1, w)]),
               lambda w: is_graded_weak_identity([(2, w)]), reduce_word,
               lambda w: normalize([(1, w)]))
    for fam in "yz":
        for idx in (10_001, 10**10):
            for w in (((fam, idx),), (y(1), (fam, idx), z(2)), (z(1), (fam, idx))):
                for read in readers:
                    with pytest.raises(ValueError, match="^letter index above 10000$"):
                        read(w)
        w = (y(1), (fam, 10_000), z(2))
        assert eval_word(w) == product_eval_word(w)
        assert not is_graded_weak_identity([(2, w)])
        assert normalize([(1, w)]) == QPoly({reduce_word(w)[1]: reduce_word(w)[0]})
        assert reduce_word(((fam, 10_000),))[1].max_index == 10_000
    # below 1 is still reported first, and an unknown family before both
    for read in readers:
        with pytest.raises(ValueError, match=">= 1"):
            read((("y", 10**10), ("z", 0)))
        with pytest.raises(ValueError, match="family"):
            read((("y", 10**10), ("x", 1)))


@pytest.mark.parametrize("caps, count", [((6, 3), 1627), ((4, 5), 1606)])
def test_slot_entries_match_word_walk(caps, count):
    # one call over the whole basis; c- and d-slot tuples swap roles between
    # monomials, and each must land in its own part of the term
    monos = list(enumerate_basis(*caps))
    assert len(monos) == count
    slots = {(m.cseq, m.dseq) for m in monos}
    assert ((1,), (2,)) in slots and ((2,), (1,)) in slots
    assert ((1, 2), (3,)) in slots and ((3, 3), (1, 2)) in slots
    for m, got in zip(monos, _slot_entries(monos), strict=True):
        assert got == _word_entries(m.word()), m
        row = monomial_row(m)
        assert len(row) == 2 and row[got[:2]] == got[2], m
    f = QPoly({m: k % 7 - 3 for k, m in enumerate(monos)})
    assert evaluate(f) == evaluate([(c, m.word()) for m, c in f.terms.items()])


def test_row1_term_is_the_monomials_own_tuple():
    # ring's term layout is the canonical monomial's: alpha^yexp *
    # beta^cseq * gamma^dseq is written (yexp, cseq, dseq), as an exact tuple
    rng = random.Random(102)
    monos = list(enumerate_basis(5, 3))
    monos += [rand_monomial(rng, max_degree=8, max_index=50) for _ in range(500)]
    assert max(max((len(m.yexp), *m.cseq, *m.dseq)) for m in monos) > 40
    for m in monos:
        want = (int(len(m.cseq) != len(m.dseq)), (m.yexp, m.cseq, m.dseq), 1)
        for got in (_word_entries(m.word()), next(_slot_entries([m]))):
            assert got == want and type(got[1]) is tuple, m


def test_conj_is_an_involution():
    # sigma swaps the beta and gamma parts and signs odd alpha degrees, so
    # it moves most entries; twice is the identity
    rng = random.Random(103)
    moved = 0
    for _ in range(200):
        x, y = ([(rng.choice((-2, -1, 1, 3)), rand_word(rng, max_len=6, max_index=5))
                 for _ in range(rng.randint(1, 4))] for _ in range(2))
        row = _mat_mul(_words_matrix(x), _words_matrix(y))
        for entry in row:
            assert _conj(_conj(entry)) == entry, (x, y)
            moved += _conj(entry) != entry
    assert moved > 200


def test_eval_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        eval_word((("x", 1),))
    with pytest.raises(ValueError):
        eval_word((("z", 0),))
