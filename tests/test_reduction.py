import json
import math
import random
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement

import pytest

import m2sl2.reduction as reduction
from m2sl2 import (
    ONE,
    CanonicalMonomial,
    CannotExtendError,
    MonotoneInjection,
    NotEmbeddableError,
    QPoly,
    ReducerTriple,
    ResourceBoundError,
    ZeroPolynomialError,
    apply_reducer,
    chain_demo,
    enumerate_basis,
    evaluate,
    factorize_embedding,
    leading,
    membership_bounded,
    monomial_to_obj,
    normalize,
    parse_poly,
    pwo_leq,
    reduce_by,
    reduce_word,
    rename_monomial,
    total_key,
)
from m2sl2.cli import format_qpoly, main, poly_obj
from m2sl2.freealg import _interleave, _monomial
from m2sl2.orders import _compile, embedders, key_index
from tests.util import (
    brute_embed,
    check_mult5,
    check_mult6,
    counter_fit,
    inflate,
    lift_reducer,
    mono_mul,
    monomial_from_obj,
    monomial_indices,
    product_apply_reducer,
    product_membership_bounded,
    rand_monomial,
    rand_qpoly,
    reference_covering,
    reference_factorize,
    reference_reduce,
    reducer_word,
    rename_parts,
    word,
    y,
    z,
)


def mk(yexp=(), cseq=(), dseq=()):
    return CanonicalMonomial.make(yexp, cseq, dseq)


def mono(m, c=1):
    return QPoly.monomial(m, c)


# --- leading -----------------------------------------------------------------

def test_leading_examples():
    f = mono(mk((1,)), 3) + mono(mk((1, 1)), 5)
    assert (leading(f).lc, leading(f).lm) == (5, mk((1, 1)))

    f = mono(mk((), (1,)), 7) - mono(mk((9,)))
    assert (leading(f).lc, leading(f).lm) == (7, mk((), (1,)))

    # equal z-count: the d-column outranks the c-column, so z1z2 (dseq=(2))
    # beats z2z1 (dseq=(1)) and the leading term is +2 z1z2
    f = mono(mk((), (1,), (2,)), 2) + mono(mk((), (2,), (1,)), -2)
    assert (leading(f).lc, leading(f).lm) == (2, mk((), (1,), (2,)))


def test_leading_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        leading(QPoly())


# --- factorization -----------------------------------------------------------

def test_factorize_examples():
    t = factorize_embedding(mk((1,)), mk((2, 1)))
    assert t.phi.pairs == ((1, 1),)
    assert t.n_part == mk((1, 1))
    assert t.p_word == ()
    assert reduce_word(reducer_word(t, mk((1,)))) == (1, mk((2, 1)))

    m = mk((1, 2), (1,), (2,))
    t = factorize_embedding(m, m)
    assert t.n_part == mk() and t.p_word == ()
    assert t.phi.pairs == ((1, 1), (2, 2))

    t = factorize_embedding(mk((), (1,)), mk((), (1,), (2,)))
    assert t.n_part == mk() and t.p_word == (2,)


def test_factorize_not_embeddable():
    with pytest.raises(NotEmbeddableError):
        factorize_embedding(mk((), (1,)), mk((5,)))
    with pytest.raises(NotEmbeddableError):
        factorize_embedding(mk((2,)), mk((1,)))


def test_factorize_roundtrip_randomized():
    check_mult5(random.Random(80), 300)


def test_factorize_roundtrip_exhaustive():
    basis = list(enumerate_basis(4, 3))
    pairs = 0
    for a in basis:
        for b in basis:
            if pwo_leq(a, b) is None:
                continue
            pairs += 1
            assert reduce_word(reducer_word(factorize_embedding(a, b), a)) == (1, b)
    assert pairs == 2751


def outcome(fn, *args):
    """fn(*args), or the type and message of the embedding error it raised."""
    try:
        return fn(*args)
    except (NotEmbeddableError, CannotExtendError) as exc:
        return type(exc), str(exc)


def test_fit_matches_counter_fit():
    # every pair of sorted tuples of length <= 4 over 1..4, fits and misses;
    # _fit takes out the images of small's letters, here under a table that
    # permutes 1..4, so each image multiset is met once
    tuples = [t for n in range(5) for t in combinations_with_replacement(range(1, 5), n)]
    image = [0, 3, 1, 4, 2]
    seen: Counter = Counter()
    for big in tuples:
        for small in tuples:
            want = outcome(counter_fit, big, [image[i] for i in small])
            assert outcome(reduction._fit, big, small, image) == want, (big, small)
            seen["miss" if want == (NotEmbeddableError, "phi(m) does not fit under the target")
                 else "fit"] += 1
    # a fit splits big into small and the rest: C(12, 4) pairs of multisets
    # over 1..4 of total size <= 4
    assert seen == {"fit": 495, "miss": 4405}, seen


def test_factorize_matches_reference_exhaustive():
    basis = list(enumerate_basis(3, 3))
    seen: Counter = Counter()
    rng = random.Random(90)
    for a in basis:
        for b in basis:
            phi = pwo_leq(a, b)
            want = outcome(reference_factorize, a, b)
            assert outcome(factorize_embedding, a, b) == want, (a, b)
            if phi is not None:
                seen["witness"] += 1
                assert factorize_embedding(a, b, phi) == want, (a, b)
            else:
                seen[want[1]] += 1
            # a caller's injection on a random part of 1..max_index + 1 falls
            # short of a's indices when it misses one: the extension path,
            # where a hole between close targets leaves no room
            srcs = sorted(rng.sample(range(1, a.max_index + 2), rng.randint(0, a.max_index)))
            tgts = sorted(rng.sample(range(1, len(srcs) + 3), len(srcs)))
            short = MonotoneInjection(tuple(zip(srcs, tgts)))
            want = outcome(reference_factorize, a, b, short)
            assert outcome(factorize_embedding, a, b, short) == want, (a, b, short)
            if not monomial_indices(a) <= set(srcs):
                if isinstance(want, ReducerTriple):
                    seen["extended: triple"] += 1
                elif want[0] is CannotExtendError:
                    seen["extended: no room"] += 1
                else:
                    seen["extended: " + want[1]] += 1
    assert seen["witness"] == 618
    assert min(seen.values()) >= 20 and len(seen) == 5, seen

    # validated monomials always leave slot deficits that interleave, so the
    # interleave failure needs a target built unvalidated, with two more
    # d-slots than c-slots
    bad = _monomial(((), (1,), (2, 3)))
    for phi in (MonotoneInjection(((1, 1),)), MonotoneInjection()):
        want = outcome(reference_factorize, mk((), (1,)), bad, phi)
        assert want == (NotEmbeddableError, "slot deficits cannot interleave into a word")
        assert outcome(factorize_embedding, mk((), (1,)), bad, phi) == want


def test_public_triple_matches_factorized_exhaustive():
    # factorize_embedding builds its triple from _factor's parts;
    # reference_factorize builds its own from N and P the plain way
    basis = list(enumerate_basis(4, 3))
    pairs = 0
    for a in basis:
        for b in basis:
            if pwo_leq(a, b) is None:
                continue
            pairs += 1
            got, ref = factorize_embedding(a, b), reference_factorize(a, b)
            assert got == ref and hash(got) == hash(ref), (a, b)
            assert (got.n_part, got.p_word, got.to_obj()) == (ref.n_part, ref.p_word, ref.to_obj())
            again = ReducerTriple(got.phi, got.n_part, got.p_word)
            assert again == got and (again.n_part, again.p_word) == (got.n_part, got.p_word)
    assert pairs == 2751


def test_triple_refuses_odd_letters_in_n_and_is_frozen():
    phi = MonotoneInjection(((1, 1),))
    for n_part in (mk((), (1,)), mk((1,), (1,), (2,))):
        with pytest.raises(ValueError, match="N must be pure-y"):
            ReducerTriple(phi, n_part, ())
    for t in (ReducerTriple(phi, mk((0, 2)), (3, 1, 2)), factorize_embedding(mk((1,)), mk((2, 1)))):
        for name in ("phi", "n_part", "p_word"):
            with pytest.raises(AttributeError):
                setattr(t, name, getattr(t, name))
    t = ReducerTriple(phi, mk((0, 2)), (3, 1, 2))
    assert (t.phi, t.n_part, t.p_word) == (phi, mk((0, 2)), (3, 1, 2))


def test_triple_from_a_list_p_equals_the_tuple_built_triple():
    phi = MonotoneInjection(((1, 1), (2, 3)))
    g = mono(mk((1,), (2,)), 3) + mono(mk((0, 2)), -2)
    for p_word in ((), (3,), (3, 1, 2), (2, 1, 4, 4)):
        t = ReducerTriple(phi, mk((0, 2)), p_word)
        listed = ReducerTriple(phi, mk((0, 2)), list(p_word))
        assert listed == t and hash(listed) == hash(t)
        assert listed.p_word == t.p_word == p_word and listed.to_obj() == t.to_obj()
        assert apply_reducer(listed, g) == apply_reducer(t, g) == product_apply_reducer(t, g)


def test_triple_serialization():
    t = factorize_embedding(mk((), (1,)), mk((0, 1), (1, 1), (1,)))
    assert t.n_part == mk((0, 1))
    assert t.p_word == (1, 1)
    obj = t.to_obj()
    assert set(obj) == {"phi", "N", "P"}
    # the object is plain JSON data
    json.dumps(obj)


# --- lifting -----------------------------------------------------------------

def test_lift_examples():
    f = mono(mk((1,))) + QPoly.monomial(ONE) * 4
    g = lift_reducer(f, mk((2, 1)))
    assert leading(g).lm == mk((2, 1))
    assert leading(g).lc == 1

    f = mono(mk((1, 1)), -2) + mono(mk((1,)))
    g = lift_reducer(f, mk((1, 1)))
    assert g == f


def test_lift_randomized():
    check_mult6(random.Random(81), 300)


def test_apply_reducer_matches_product_oracle():
    rng = random.Random(88)
    seen = Counter()
    cases = 0
    while cases < 5000:
        g = rand_qpoly(rng, max_terms=4, max_degree=6, max_index=5)
        if g.is_zero():
            continue
        lm = leading(g).lm
        triple = factorize_embedding(lm, inflate(rng, lm))
        lifted = apply_reducer(triple, g)
        assert lifted == product_apply_reducer(triple, g), (triple, g)
        for m in lifted.terms:  # built without re-validation
            assert CanonicalMonomial(m.yexp, m.cseq, m.dseq) == m
        cases += 1
        covered = {s for s, _ in triple.phi.pairs}
        seen["multi-term"] += len(g.terms) > 1
        seen["covering"] += any(monomial_indices(m) - covered for m in g.terms)
        if triple.p_word:
            zlens = {len(m.cseq) + len(m.dseq) for m in g.terms}
            seen["P after pure-y"] += 0 in zlens
            seen["P after odd z"] += any(n % 2 for n in zlens)
            seen["P after even z"] += any(n and n % 2 == 0 for n in zlens)
    assert len(seen) == 5 and min(seen.values()) >= 500, seen

    # every embedding pair of a small basis, lifting three-term generators
    # whose two fixed terms use index 4, outside every basis monomial
    extras = [mk((0, 0, 0, 2)), mk((), (4,)), mk((1,), (1,), (4,)), mk((0, 1), (4, 4), (2,))]
    pairs = 0
    basis = list(enumerate_basis(3, 3))
    for a in basis:
        for b in basis:
            if pwo_leq(a, b) is None:
                continue
            pairs += 1
            triple = factorize_embedding(a, b)
            for s, t in zip(extras, extras[1:] + extras[:1]):
                g = mono(a, 5) + mono(s, -2) + mono(t, 3)
                assert apply_reducer(triple, g) == product_apply_reducer(triple, g), (a, b, g)
    assert pairs == 618

    # a P letter below 1, say from a hand-edited trace, is refused as the
    # word product refuses it
    triple = ReducerTriple(MonotoneInjection(((1, 1),)), mk(), (0,))
    with pytest.raises(ValueError):
        apply_reducer(triple, mono(mk((), (1,))))
    with pytest.raises(ValueError):
        product_apply_reducer(triple, mono(mk((), (1,))))


def test_apply_reducer_refuses_a_letter_below_1_in_either_half_of_p():
    # P's letters at even positions become c-slots and those at odd positions
    # d-slots; a letter 0 in either half is refused, as the word product
    # refuses it
    phi = MonotoneInjection(((1, 1),))
    for p_word in ((0,), (1, 0), (2, 3, 0), (0, 1, 2), (2, 0, 3, 4)):
        triple = ReducerTriple(phi, mk(), p_word)
        for g in (mono(mk((), (1,))), mono(mk((1,)), 2) + mono(mk((), (1,), (1,)))):
            with pytest.raises(ValueError, match="letter index must be >= 1"):
                apply_reducer(triple, g)
            with pytest.raises(ValueError):
                product_apply_reducer(triple, g)


def test_apply_reducer_warm_support_matches_product_oracle():
    # one generator lifted under many triples: lm uses only indices 1 and 2,
    # and its index support is 1..4, so every lift extends the witness over
    # the other terms' indices 3 and 4
    g = mono(mk((), (1,), (2,)), 3) + mono(mk((0, 0, 2)), -2) + mono(mk((1,), (4,)), 5)
    lm = leading(g).lm
    assert lm == mk((), (1,), (2,)) and g._index_support() == (1, 2, 3, 4)
    rng = random.Random(91)
    triples = set()
    for _ in range(300):
        triple = factorize_embedding(lm, inflate(rng, lm))
        assert apply_reducer(triple, g) == product_apply_reducer(triple, g), triple
        triples.add(json.dumps(triple.to_obj()))
    assert len(triples) > 100


def test_fused_lift_matches_the_two_public_steps_exhaustive():
    # every embedding pair (a, b) of a small basis: the loop's one step, on
    # the kernel's witness table and the tail's program compiled against a,
    # gives apply_reducer(factorize_embedding(...)) term for term, on tails
    # whose indices reach a.max_index + 1, so the witness is extended; and
    # _factor on the table gives the triple's N and P, as a trace record
    # writes them
    rng = random.Random(95)
    pools = {}
    pairs = extended = 0
    basis = list(enumerate_basis(3, 3))
    for a in basis:
        n = a.max_index + 1
        if n not in pools:
            terms = list(enumerate_basis(3, n))
            pools[n] = terms, [m for m in terms if n in monomial_indices(m)]
        terms, reaching = pools[n]
        for b in basis:
            hits = embedders(b._embedding(), key_index([a._embedding()]))
            if not hits:
                continue
            (_, table), = hits
            phi = MonotoneInjection.from_table(table)
            pairs += 1
            ny, first, second = reduction._factor(a, b, table)
            triple = factorize_embedding(a, b, phi)
            assert ({"N": monomial_to_obj(_monomial((ny, (), ()))), "P": _interleave(first, second)}
                    == {"N": monomial_to_obj(triple.n_part), "P": list(triple.p_word)}), (a, b)
            for _ in range(2):
                picked = [rng.choice(reaching)] + rng.sample(terms, rng.randint(0, 2))
                tail = QPoly({m: rng.choice((-3, -1, 2, 5)) for m in picked})
                want = apply_reducer(triple, tail)
                prog = tail._index_support(), _compile(a, tail.terms)
                got = reduction._lift(a, prog, b, table)
                assert list(got.items()) == list(want.terms.items()), (a, b, tail)
                extended += phi.covering(tail._index_support()) is not phi
    assert pairs == 618
    assert extended == 2 * pairs


def _rows(terms) -> list:
    """A lift's terms as plain data, in order: (yexp, cseq, dseq, coeff)."""
    return [(m.yexp, m.cseq, m.dseq, c) for m, c in terms.items()]


def _lift_by_product(terms: dict, image, ny, p_even, p_odd) -> list:
    """The lift written the long way: each term renamed through the image,
    then multiplied by N and P through the canonical product, as rows."""
    return _rows({mono_mul(*rename_parts(m, image, "both"), ny, p_even, p_odd)[1]: c
                  for m, c in terms.items()})


def test_lift_terms_match_rename_then_product_exhaustive():
    # every term of a small basis, compiled against ONE (as apply_reducer
    # and rename_monomial compile) and lifted in the kernel's one pass, gives the
    # monomial of the renamed term times N and P, as tuples, in the same
    # order and with the same coefficient; under a witness table of
    # embedders and under a covering dict that filled a hole, with P of
    # even and of odd length after terms of every z-length parity
    terms = {m: k + 1 for k, m in enumerate(enumerate_basis(4, 3))}
    (_, table), = embedders(mk((1, 0, 2, 0, 1, 3))._embedding(),
                              key_index([mk((1, 1, 1))._embedding()]))
    assert table == [0, 1, 3, 5]
    filled = dict(MonotoneInjection(((1, 2), (3, 7))).covering(range(1, 4)).pairs)
    assert filled == {1: 2, 2: 3, 3: 7}
    halves = [((), ()), ((3,), ()), ((2, 5), (1, 4)), ((1, 1, 6), (2, 2))]
    for image in (table, filled):
        for ny in ((), (2,), (1, 0, 3), (0,) * 7 + (1,)):
            for p_even, p_odd in halves:
                got = reduction._lift_terms(_compile(ONE, terms), ny, image, p_even, p_odd)
                assert _rows(got) == _lift_by_product(terms, image, ny, p_even, p_odd), \
                    (image, ny, p_even, p_odd)

    # a triple built from a caller's P word may keep its halves unsorted:
    # apply_reducer lifts as the canonical product does, which sorts them
    g = QPoly(terms)
    phi = MonotoneInjection(((1, 2), (3, 7)))
    for p_word in ((5, 1, 2), (4, 3, 1, 2, 2), (6, 2, 3, 1)):
        triple = ReducerTriple(phi, mk((1, 0, 3)), p_word)
        p_even, p_odd = triple.p_word[0::2], triple.p_word[1::2]
        assert sorted(p_even) != list(p_even)
        want = _lift_by_product(g.terms, filled, triple.n_part.yexp, p_even, p_odd)
        assert _rows(apply_reducer(triple, g).terms) == want, p_word


def _parity(m) -> str:
    return "free" if not m.cseq else "odd" if len(m.cseq) != len(m.dseq) else "even"


def test_compiled_lift_matches_rename_then_product_exhaustive():
    # every pair lm <=' target of a small basis and every term t of another,
    # t compiled against lm and lifted onto the target by the kernel with
    # the target's leftover slot letters, as the reduction step lifts a
    # tail: the monomial is phi(t) times N and P through the oracle
    # product, N and P from reference_factorize, with t's coefficient.  The
    # image is the witness table, or, when t reaches past it, the table
    # extended over lm's and t's indices by reference_covering, holes
    # included
    lms = list(enumerate_basis(3, 2))
    terms = list(enumerate_basis(2, 3))
    seen: Counter = Counter()
    for lm in lms:
        for target in lms:
            hits = embedders(target._embedding(), key_index([lm._embedding()]))
            if not hits:
                continue
            (_, table), = hits
            triple = reference_factorize(lm, target, MonotoneInjection.from_table(table))
            _, pc, pd = rename_parts(lm, table, "both")
            left = counter_fit(target.cseq, pc), counter_fit(target.dseq, pd)
            for k, t in enumerate(terms):
                sup = monomial_indices(lm) | monomial_indices(t)
                image = table
                if max(sup, default=0) >= len(table):
                    phi = reference_covering(MonotoneInjection.from_table(table), sup)
                    image = dict(phi.pairs)
                    seen["hole"] += bool(set(range(len(table), max(sup))) - sup)
                got = reduction._lift_terms(_compile(lm, {t: k - 7}), target.yexp, image, *left)
                _, want = mono_mul(*rename_parts(t, image, "both"),
                                   triple.n_part.yexp, triple.p_word[0::2], triple.p_word[1::2])
                assert list(got.items()) == [(want, k - 7)], (lm, target, t)
                seen[_parity(lm), _parity(t)] += 1
                seen["trimmed"] += len(want.yexp) < len(target.yexp)
    parities = {(a, b) for a in ("free", "even", "odd") for b in ("free", "even", "odd")}
    assert min(seen[p] for p in parities) >= 300, seen
    assert seen["hole"] >= 500 and seen["trimmed"] >= 500, seen


def test_lift_keeps_ideal_membership():
    # the lift of an identity is an identity: outer multiplications and
    # renamings preserve the vanishing on generic matrices
    f = normalize([(1, word(z(1), z(2), z(3))), (-1, word(z(3), z(2), z(1)))])
    assert f.is_zero()
    g = normalize([(1, word(y(1), z(1))), (1, word(z(1), y(1)))])
    assert g.is_zero()


# --- reduction ---------------------------------------------------------------

def test_reduce_by_examples():
    r = reduce_by(mono(mk((2, 1))), [mono(mk((1,)))])
    assert r.is_zero()

    r = reduce_by(mono(mk((1,)), 3), [mono(mk((1,)), 2)])
    assert r == mono(mk((1,)))

    f = normalize([(1, word(z(1), z(2), z(3))), (-1, word(z(3), z(2), z(1)))])
    assert reduce_by(f, [mono(mk((5,)))]).is_zero()


def test_reduce_by_rejects_zero_generator():
    with pytest.raises(ZeroPolynomialError):
        reduce_by(mono(mk((1,))), [QPoly()])


def test_reduce_by_no_usable_generators():
    # z1 has no generator below it: frozen wholesale
    f = mono(mk((), (1,)), 4)
    assert reduce_by(f, [mono(mk((1,)))]) == f


def test_euclid_walk_trace():
    trace: list = []
    r = reduce_by(mono(mk((1,)), 3), [mono(mk((1,)), 2)], trace=trace)
    assert r == mono(mk((1,)))
    assert trace == [
        {
            "against": 0,
            "beta": "1",
            "q": "1",
            "phi": [[1, 1]],
            "N": {"y": [], "c": [], "d": []},
            "P": [],
        },
        {"frozen": {"coeff": "1", "m": {"y": [1], "c": [], "d": []}}},
    ]


def replay_trace(f, gens, trace, remainder):
    """Rebuild f from the recorded subtractions plus the remainder, exactly."""
    rebuilt = QPoly()
    frozen = QPoly()
    for rec in trace:
        if "frozen" in rec:
            fr = rec["frozen"]
            frozen = frozen + mono(monomial_from_obj(fr["m"]), int(fr["coeff"]))
            continue
        triple = ReducerTriple(
            MonotoneInjection(tuple((s, t) for s, t in rec["phi"])),
            monomial_from_obj(rec["N"]),
            tuple(rec["P"]),
        )
        lift = product_apply_reducer(triple, gens[rec["against"]])
        rebuilt = rebuilt + lift * (int(rec["beta"]) * int(rec["q"]))
    assert frozen == remainder
    assert rebuilt + remainder == f
    # and the identity also holds on the generic matrices
    assert evaluate(rebuilt + remainder) == evaluate(f)


def test_trace_replay_randomized():
    rng = random.Random(82)
    for _ in range(60):
        f = rand_qpoly(rng, max_terms=4, max_degree=5, max_index=3)
        gens = [rand_qpoly(rng, max_terms=2, max_degree=3, max_index=3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        trace: list = []
        r = reduce_by(f, gens, trace=trace)
        replay_trace(f, gens, trace, r)


def test_reduce_by_idempotent_on_remainder():
    rng = random.Random(83)
    for _ in range(40):
        f = rand_qpoly(rng, max_terms=3, max_degree=4, max_index=3)
        gens = [g for g in (rand_qpoly(rng, max_terms=2, max_degree=3, max_index=3),) if not g.is_zero()]
        if not gens:
            continue
        r = reduce_by(f, gens)
        assert reduce_by(r, gens) == r


def test_remainder_terms_are_reduced():
    # every remainder term r*m is reduced: either no generator's leading
    # monomial embeds into m (decided by exhaustive search), or r is a
    # nonzero residue below the gcd of the embedding generators' leading
    # coefficients
    rng = random.Random(21)
    terms = 0
    for _ in range(400):
        gens = [rand_qpoly(rng) for _ in range(rng.randint(1, 4))]
        f = rand_qpoly(rng, max_terms=8)
        gens = [g for g in gens if not g.is_zero()]
        lds = [leading(g) for g in gens]
        for m, r in reduce_by(f, gens).terms.items():
            usable = [ld.lc for ld in lds if brute_embed(ld.lm, m)]
            assert not usable or 0 < r < math.gcd(*usable), (f, gens, m, r)
            terms += 1
    assert terms == 1747, terms


# the benchmark's generators, unit-coefficient ones whose lifts often hit
# existing terms with opposite coefficients, and a mix that takes many steps
GEN_FAMILIES = {
    "bench": ["6*y1^2 + y1", "4*z1*z2 - y2", "10*y2*z1 + 3"],
    "unit": ["y2 - y1", "z1*z2 - z2*z1 + y1*z1", "y1*z1*z2 - y2"],
    "mixed": ["2*y1*y2 - y1^2", "3*z1*z2 + z2*z1 - y3", "y3*z1 - 2*z2"],
}


def rand_sparse_poly(rng, basis, terms):
    return QPoly({m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(basis, terms)})


def count_keys(monkeypatch, name):
    """Count calls of reduction.<name>, per monomial."""
    counts: Counter = Counter()
    fn = getattr(reduction, name)

    def counted(m):
        counts[m] += 1
        return fn(m)

    monkeypatch.setattr(reduction, name, counted)
    return counts


@cache
def _seeded_cases() -> tuple:
    """(family, generators, f) for the seven seeded cases the reference-loop
    and print-order tests share, built once per module."""
    basis = list(enumerate_basis(7, 3))
    rng = random.Random(86)
    cases = [(fam, rng.randint(100, 300)) for fam in ("bench", "unit") for _ in range(3)]
    cases.append(("mixed", 100))
    return tuple((fam, [parse_poly(g) for g in GEN_FAMILIES[fam]],
                  rand_sparse_poly(rng, basis, terms)) for fam, terms in cases)


@cache
def _reference_results() -> tuple:
    """(remainder, trace) of reference_reduce on each of _seeded_cases, run
    once per module: the slow part of the two reference-loop tests."""
    out = []
    for _, gens, f in _seeded_cases():
        trace: list = []
        out.append((reference_reduce(f, gens, trace=trace), trace))
    return tuple(out)


def test_reduce_by_matches_reference_loop(monkeypatch):
    keyed = count_keys(monkeypatch, "total_key")
    recreated = 0
    for (fam, gens, f), (ref, ref_trace) in zip(_seeded_cases(), _reference_results()):
        keyed.clear()
        trace: list = []
        r = reduce_by(f, gens, trace=trace)
        assert r == ref
        assert list(r.terms) == list(ref.terms)  # frozen in the same order
        assert trace == ref_trace
        # leading keys each generator term once; a monomial keyed twice more
        # cancelled out of the working polynomial and came back, so one of its
        # two sorted-list entries went stale
        lead = Counter(m for g in gens for m in g.terms)
        recreated += sum(1 for m, n in keyed.items() if n - lead[m] > 1)
        # the trace only records: the untraced remainder is the same, term
        # for term and in order
        assert list(reduce_by(f, gens).terms.items()) == list(r.terms.items()), fam
    assert recreated > 0


def test_untraced_reduce_by_matches_reference_loop(monkeypatch):
    # the cases of test_reduce_by_matches_reference_loop, with no trace: each
    # step lifts through _lift, never through the two public names, and the
    # remainder is the reference loop's in value and term order; in "mixed",
    # the tail - y3 lies past the indices of its generator's leading term
    calls = _counting_step_names(monkeypatch)
    for (fam, gens, f), (ref, _) in zip(_seeded_cases(), _reference_results()):
        calls.clear()
        r = reduce_by(f, gens)
        assert r == ref
        assert list(r.terms) == list(ref.terms)
        assert set(calls) == {"_lift"} and calls["_lift"] > 20, (fam, calls)


def test_tails_past_the_witness_extend_over_holes(monkeypatch):
    # each generator's tail reaches past the indices of its leading term,
    # with an index between left out (y3 past z1, y4 past z1*z2), so every
    # lift extends its witness table through covering, over the hole as
    # covering extends it; remainder and trace are the reference loop's
    gens = [parse_poly(g) for g in ("z1 + y3", "2*z1*z2 - y1*y4")]
    lift = reduction._lift
    extended = Counter()

    def counted(m, prog, target, table):
        extended[prog[0][-1] >= len(table)] += 1
        return lift(m, prog, target, table)

    monkeypatch.setattr(reduction, "_lift", counted)
    basis = list(enumerate_basis(5, 5))
    rng = random.Random(96)
    for _ in range(4):
        f = rand_sparse_poly(rng, basis, 80)
        trace: list = []
        want: list = []
        ref = reference_reduce(f, gens, want)
        r = reduce_by(f, gens, trace=trace)
        assert list(r.terms.items()) == list(ref.terms.items())
        assert trace == want
        assert list(reduce_by(f, gens).terms.items()) == list(ref.terms.items())
    assert set(extended) == {True} and extended[True] > 100, extended


def test_remainder_terms_come_in_print_order(tmp_path, capsys):
    # the seeded inputs of test_reduce_by_matches_reference_loop: reduce_by
    # freezes terms in strictly descending total_key order, so the
    # remainder's dict order is its sorted order, and the reduce command
    # prints it as it is, in both forms
    frozen = 0
    for fam, gens, f in _seeded_cases():
        r = reduce_by(f, gens)
        assert list(r.terms) == sorted(r.terms, key=total_key, reverse=True)
        frozen += len(r.terms)
        path = tmp_path / f"{fam}.txt"
        path.write_text("".join(g + "\n" for g in GEN_FAMILIES[fam]))
        text = format_qpoly(f)
        assert main(["reduce", text, str(path)]) == 0
        assert capsys.readouterr().out == format_qpoly(r) + "\n"
        assert main(["reduce", text, str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["remainder"] == poly_obj(r)
    assert frozen > 300, frozen


def test_reduce_by_keys_each_entering_term_once(monkeypatch):
    keyed = count_keys(monkeypatch, "total_key")
    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(random.Random(87), list(enumerate_basis(7, 3)), 300)
    trace: list = []
    reduce_by(f, gens, trace=trace)
    # a term enters work from f or from one lifted reducer's terms
    entering = len(f.terms) + sum(len(gens[rec["against"]].terms)
                                  for rec in trace if "against" in rec)
    # every freeze is a step; a max() loop would key every live term per step
    assert sum(1 for rec in trace if "frozen" in rec) > 100
    # leading keys each generator term once, to find its leading term; no
    # step runs max()
    assert sum(keyed.values()) - sum(len(g.terms) for g in gens) <= entering


def test_reduce_by_calls_the_traced_lift_names(monkeypatch):
    # a traced step is the untraced one plus its record: one _lift call and
    # one _factor call per subtraction record, and no call of the public
    # factorization or lift, so the benchmark's tracer has one step
    # function to wrap
    calls = _counting_step_names(monkeypatch)
    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(random.Random(89), list(enumerate_basis(7, 3)), 100)
    trace: list = []
    reduce_by(f, gens, trace=trace)
    steps = sum(1 for rec in trace if "against" in rec)
    assert steps > 50
    assert calls == {"_lift": steps, "_factor": steps}


def _counting_step_names(monkeypatch) -> Counter:
    """Count the calls of reduction._lift, of reduction._factor, which only a
    traced step calls, and of the public factorize_embedding and
    apply_reducer, which the reduction loop must not call."""
    calls: Counter = Counter()
    for name in ("_lift", "_factor", "factorize_embedding", "apply_reducer"):
        def counted(*args, _fn=getattr(reduction, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(reduction, name, counted)
    return calls


def test_one_term_generators_cost_no_factorization(monkeypatch):
    # a unit-monomial stream adjoins one-term generators, whose tails are
    # empty: a subtraction step has nothing to lift, so untraced it makes no
    # _lift call and no _factor call
    calls = _counting_step_names(monkeypatch)
    stream = [mono(m) for m in random.Random(93).sample(list(enumerate_basis(5, 2)), 150)]
    report = chain_demo(stream)
    assert calls == Counter()  # not one _lift call
    adjoined, gens = reference_chain(stream)
    assert report.adjoined == adjoined and report.generators == gens
    assert report.steps - len(gens) > 50  # items that reduced to zero by subtraction


def test_traced_one_term_generators_keep_every_step(monkeypatch):
    # with a trace, each subtraction record still comes from one _factor
    # call, and no step lifts the empty tail; the records are the reference
    # loop's
    calls = _counting_step_names(monkeypatch)
    rng = random.Random(94)
    basis = list(enumerate_basis(5, 2))
    gens = [mono(m, rng.choice((2, 3, -5))) for m in rng.sample(basis, 8)]
    f = rand_sparse_poly(rng, basis, 60)
    trace: list = []
    want: list = []
    assert reduce_by(f, gens, trace=trace) == reference_reduce(f, gens, want)
    assert trace == want
    steps = sum(1 for rec in trace if "against" in rec)
    assert steps > 20
    assert calls == {"_factor": steps}


def test_support_built_once_per_generator(monkeypatch):
    # count, per polynomial, the _index_support calls, each of which builds
    # the support: a generator's is built once per reduce_by call, or once
    # per stream when chain_demo adjoins it; building every generator's
    # support on every _reduce call would build it once per stream item per
    # generator
    builds: Counter = Counter()
    build = QPoly._index_support

    def counted(self):
        builds[id(self)] += 1
        return build(self)

    monkeypatch.setattr(QPoly, "_index_support", counted)
    rng = random.Random(92)
    basis = list(enumerate_basis(6, 3))
    stream = [mono(m, rng.choice((-6, -4, -3, 2, 3, 5, 7))) for m in rng.sample(basis, 120)]
    report = chain_demo(stream)
    assert len(report.generators) >= 20
    # one-term generators have empty tails, which lift nothing: no support
    assert builds == Counter()

    # a generator with a tail builds its support once, when it is adjoined
    basis = list(enumerate_basis(4, 2))
    gens = [g for _ in range(10) for g in chain_demo(rand_stream(rng, basis, 12)).generators]
    assert sum(builds.values()) >= 10
    assert set(builds) <= {id(g) for g in gens if len(g.terms) > 1}
    assert max(builds.values()) == 1

    builds.clear()
    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(rng, list(enumerate_basis(7, 3)), 200)
    for _ in range(2):  # each reduce_by call builds each support once
        trace: list = []
        reduce_by(f, gens, trace=trace)
        assert sum(1 for rec in trace if "against" in rec) > 50
    assert builds == Counter({id(g): 2 for g in gens})


# --- ascending chains --------------------------------------------------------

def test_chain_demo_y_powers():
    stream = [mono(mk((k,))) for k in range(1, 12)]
    report = chain_demo(stream)
    assert [(s, ld.lm) for s, ld in report.adjoined] == [(1, mk((1,)))]
    assert report.stabilized_at == 1
    assert not report.truncated


def test_chain_demo_coefficient_growth():
    stream = [mono(mk((1,)), 2), mono(mk((1,)), 3)]
    report = chain_demo(stream)
    assert [s for s, _ in report.adjoined] == [1, 2]
    assert report.stabilized_at == 2
    # the adjoined remainders realize the unit ideal on y1: nothing grows later
    for c in (1, 2, 5, 17):
        assert reduce_by(mono(mk((1,)), c), report.generators).is_zero()


def test_chain_demo_empty_and_budget():
    report = chain_demo([])
    assert report.stabilized_at == 0 and report.adjoined == []

    report = chain_demo((mono(mk((k,))) for k in range(1, 100)), budget=3)
    assert report.truncated
    assert report.stabilized_at is None
    obj = report.to_obj()
    assert obj[-1] == {"stabilized_at": None, "truncated": True}


def test_chain_demo_json_shape():
    report = chain_demo([mono(mk((1,)), 2), mono(mk((1,)), 3)])
    obj = report.to_obj()
    assert obj[:-1] == [
        {"step": 1, "lt": {"coeff": "2", "m": {"y": [1], "c": [], "d": []}}},
        {"step": 2, "lt": {"coeff": "1", "m": {"y": [1], "c": [], "d": []}}},
    ]
    assert obj[-1] == {"stabilized_at": 2}


def test_chain_demo_budget_validation():
    with pytest.raises(ValueError):
        chain_demo([], budget=0)


def rand_stream(rng, basis, max_items):
    """1..max_items items of 1-3 terms over basis, coefficients +-[1, 9]."""
    return [QPoly({rng.choice(basis): rng.choice((-1, 1)) * rng.randint(1, 9)
                   for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(1, max_items))]


def reference_chain(stream):
    """chain_demo written the plain way: reference_reduce on each item, every
    nonzero remainder adjoined with its leading data."""
    gens, adjoined = [], []
    for step, f in enumerate(stream, start=1):
        r = reference_reduce(f, gens)
        if not r.is_zero():
            gens.append(r)
            adjoined.append((step, leading(r)))
    return adjoined, gens


def test_chain_demo_matches_reference_chain():
    # multi-term streams: the adjoined generators have nonempty tails, which
    # unit-monomial streams never reach
    rng = random.Random(14)
    basis = list(enumerate_basis(4, 2))
    seen = Counter()
    for _ in range(200):
        stream = rand_stream(rng, basis, 12)
        report = chain_demo(stream)
        adjoined, gens = reference_chain(stream)
        assert report.adjoined == adjoined
        assert [list(g.terms.items()) for g in report.generators] == \
            [list(g.terms.items()) for g in gens]
        seen["generators"] += len(gens)
        seen["multi-term"] += sum(len(g.terms) > 1 for g in gens)
    assert seen["generators"] > 1000 and seen["multi-term"] > 600, seen


def test_generator_record_built_once(monkeypatch):
    built: Counter = Counter()
    record = reduction._record

    def counted(g, ld):
        built[id(g)] += 1
        return record(g, ld)

    monkeypatch.setattr(reduction, "_record", counted)
    rng = random.Random(93)
    basis = list(enumerate_basis(4, 2))
    stream = rand_stream(rng, basis, 40) + rand_stream(rng, basis, 40)
    report = chain_demo(stream)
    # one record per adjoined generator, kept across the later stream items
    assert len(stream) > 2 * len(report.generators) >= 20
    assert built == Counter({id(g): 1 for g in report.generators})
    assert any(len(g.terms) > 1 for g in report.generators)

    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(rng, list(enumerate_basis(7, 3)), 200)
    for calls in (1, 2):  # one record per generator per reduce_by call
        trace: list = []
        reduce_by(f, gens, trace=trace)
        assert sum(1 for rec in trace if "against" in rec) > 50
        assert built == Counter({id(g): 1 for g in report.generators}) + \
            Counter({id(g): calls for g in gens})


def test_every_term_key_is_a_monomial():
    # a monomial equals its plain field tuple, so a plain tuple among a
    # polynomial's keys would pass every equality check: each producer of
    # terms must key them by CanonicalMonomial itself
    def check(f):
        assert all(type(m) is CanonicalMonomial for m in f.terms), f

    rng = random.Random(98)
    stream = []
    for _ in range(60):
        f, g, h = (rand_qpoly(rng, max_terms=4, max_degree=5, max_index=3) for _ in range(3))
        for p in (parse_poly(format_qpoly(f)), normalize([(c, m.word()) for m, c in f.terms.items()]),
                  f + g, f - g, -f, 3 * f, f * g, g * f + h):
            check(p)
        gens = [p for p in (g, h) if not p.is_zero()]
        if gens:
            check(reduce_by(f, gens))
            check(reduce_by(f, gens, trace=[]))
        if not f.is_zero():
            lm = leading(f).lm
            check(apply_reducer(factorize_embedding(lm, inflate(rng, lm)), f))
        for m in f.terms:
            for mode in ("both", "y_only", "z_only"):
                r = rename_monomial(m, MonotoneInjection(((1, 2), (2, 4), (3, 5))), mode)
                assert type(r) is CanonicalMonomial
        stream.append(f)
    report = chain_demo(stream)
    assert len(report.generators) > 10
    for g in report.generators:
        check(g)
    assert all(type(ld.lm) is CanonicalMonomial for _, ld in report.adjoined)


# --- bounded membership ------------------------------------------------------

def test_membership_examples():
    assert membership_bounded(mono(mk((0, 2, 1))), [mono(mk((1,)))], 3)
    assert not membership_bounded(mono(mk((), (1,))), [mono(mk((1,)))], 2)
    assert membership_bounded(QPoly(), [mono(mk((1,)))], 2)
    with pytest.raises(ValueError, match="f exceeds the degree bound"):
        membership_bounded(mono(mk((2,))), [mono(mk((1,)))], 1)


def test_membership_detects_coefficient_obstruction():
    # 2*y1 generates only even multiples in degree 1
    assert not membership_bounded(mono(mk((1,))), [mono(mk((1,)), 2)], 1)
    assert membership_bounded(mono(mk((1,)), 4), [mono(mk((1,)), 2)], 1)
    for bad in (0, -1):  # no index to enumerate over: refused, not read as constants only
        with pytest.raises(ValueError):
            membership_bounded(mono(mk((1,)), 4), [mono(mk((1,)), 2)], 1, max_index=bad)


def test_membership_honors_reductions():
    rng = random.Random(84)
    for _ in range(25):
        f = rand_qpoly(rng, max_terms=2, max_degree=3, max_index=2)
        gens = [rand_qpoly(rng, max_terms=2, max_degree=2, max_index=2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens or f.is_zero():
            continue
        r = reduce_by(f, gens)
        # f - r is an explicit combination of lifts, so it must be found
        diff = f - r
        if diff.is_zero():
            continue
        assert membership_bounded(diff, gens, max(diff.degree, 1))


def test_membership_matches_product_oracle():
    # the package lifts through apply_reducer; the oracle multiplies words
    rng = random.Random(85)
    answers, cases = Counter(), 0
    while cases < 40:
        gens = [rand_qpoly(rng, max_terms=2, max_degree=2, max_index=2)
                for _ in range(rng.randint(1, 2))]
        f = rand_qpoly(rng, max_terms=2, max_degree=3, max_index=2)
        if rng.random() < 0.5:
            f = f - reduce_by(f, gens)  # a member, found by any large enough family
        if f.is_zero():
            continue
        cases += 1
        args = (f, gens, max(f.degree, 1) + (rng.random() < 0.25), rng.choice((None, 2, 3, 3)))
        for cap in (100_000, 1, 5, 20, 80, 300):
            outcomes = []
            for fn in (membership_bounded, product_membership_bounded):
                try:
                    outcomes.append(fn(*args, max_candidates=cap))
                except ResourceBoundError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (args, cap)
            answers[outcomes[0] if isinstance(outcomes[0], bool) else "bound"] += 1
    assert answers[True] >= 10 and answers[False] >= 10 and answers["bound"] >= 60, answers


def test_membership_needs_no_word_product(monkeypatch):
    # the lift is apply_reducer's closed form: the answers stay the oracle's
    # with QPoly.__mul__ and reduction.normalize made to raise
    g = QPoly({mk((1,)): 2, mk((), (1,)): 1})
    cases = [
        (mono(mk((0, 2, 1))), [mono(mk((1,)))], 3),
        (mono(mk((), (1,))), [mono(mk((1,)))], 2),
        (mono(mk((1,))), [mono(mk((1,)), 2)], 1),
        (apply_reducer(ReducerTriple(MonotoneInjection(((1, 2),)), mk((1,)), (3,)), g), [g], 3),
        (QPoly({mk((2,)): 1, mk((), (1,)): 1}), [g], 2),
    ]
    want = [product_membership_bounded(*case) for case in cases]
    assert want == [True, False, False, True, False]

    def boom(*args):
        raise AssertionError("membership_bounded multiplied words")

    monkeypatch.setattr(QPoly, "__mul__", boom)
    monkeypatch.setattr(reduction, "normalize", boom)
    assert [membership_bounded(*case) for case in cases] == want


def test_membership_resource_bound():
    with pytest.raises(ResourceBoundError):
        membership_bounded(
            mono(mk((1,))), [mono(mk((1,)))], 6, max_candidates=3
        )
