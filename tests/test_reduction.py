import json
import math
import random
from collections import Counter

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
    normalize,
    parse_poly,
    pwo_leq,
    reduce_by,
    reduce_word,
)
from tests.util import (
    brute_embed,
    check_mult5,
    check_mult6,
    inflate,
    lift_reducer,
    monomial_from_obj,
    monomial_indices,
    product_apply_reducer,
    product_membership_bounded,
    rand_monomial,
    rand_qpoly,
    reference_factorize,
    reference_reduce,
    reducer_word,
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
        leading(QPoly.zero())


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
    bad = CanonicalMonomial._trusted((), (1,), (2, 3))
    for phi in (MonotoneInjection(((1, 1),)), MonotoneInjection()):
        want = outcome(reference_factorize, mk((), (1,)), bad, phi)
        assert want == (NotEmbeddableError, "slot deficits cannot interleave into a word")
        assert outcome(factorize_embedding, mk((), (1,)), bad, phi) == want


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


def test_apply_reducer_warm_support_matches_product_oracle():
    # one generator lifted under many triples: its index support is built on
    # the first lift and kept, and lm uses only indices 1 and 2, so every
    # lift extends the witness over the other terms' indices 3 and 4
    g = mono(mk((), (1,), (2,)), 3) + mono(mk((0, 0, 2)), -2) + mono(mk((1,), (4,)), 5)
    lm = leading(g).lm
    assert lm == mk((), (1,), (2,)) and g._support is None
    rng = random.Random(91)
    triples = set()
    for _ in range(300):
        triple = factorize_embedding(lm, inflate(rng, lm))
        assert apply_reducer(triple, g) == product_apply_reducer(triple, g), triple
        assert g._support == (1, 2, 3, 4)
        triples.add(json.dumps(triple.to_obj()))
    assert len(triples) > 100


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
        reduce_by(mono(mk((1,))), [QPoly.zero()])


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
    rebuilt = QPoly.zero()
    frozen = QPoly.zero()
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


def test_reduce_by_matches_reference_loop(monkeypatch):
    keyed = count_keys(monkeypatch, "total_key")
    basis = list(enumerate_basis(7, 3))
    rng = random.Random(86)
    cases = [(fam, rng.randint(100, 300)) for fam in ("bench", "unit") for _ in range(3)]
    cases.append(("mixed", 100))
    recreated = 0
    for fam, terms in cases:
        gens = [parse_poly(g) for g in GEN_FAMILIES[fam]]
        f = rand_sparse_poly(rng, basis, terms)
        keyed.clear()
        trace: list = []
        r = reduce_by(f, gens, trace=trace)
        ref_trace: list = []
        ref = reference_reduce(f, gens, trace=ref_trace)
        assert r == ref
        assert list(r.terms) == list(ref.terms)  # frozen in the same order
        assert trace == ref_trace
        # leading keys each generator term once; a monomial keyed twice more
        # cancelled out of the working polynomial and came back, so one of its
        # two sorted-list entries went stale
        lead = Counter(m for g in gens for m in g.terms)
        recreated += sum(1 for m, n in keyed.items() if n - lead[m] > 1)
    assert recreated > 0


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
    # the benchmark's traced rows for the factorization and the lift wrap
    # these two names; a step that bypassed either would read as 0 there
    calls: Counter = Counter()
    for name in ("factorize_embedding", "apply_reducer"):
        def counted(*args, _fn=getattr(reduction, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(reduction, name, counted)
    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(random.Random(89), list(enumerate_basis(7, 3)), 100)
    trace: list = []
    reduce_by(f, gens, trace=trace)
    steps = sum(1 for rec in trace if "against" in rec)
    assert steps > 50
    assert calls == {"factorize_embedding": steps, "apply_reducer": steps}


def test_support_built_once_per_generator(monkeypatch):
    # count, per polynomial, the _index_support calls that build the support
    # rather than read the kept one; building every generator's support on
    # every _reduce call would build it once per stream item per generator
    builds: Counter = Counter()
    build = QPoly._index_support

    def counted(self):
        if self._support is None:
            builds[id(self)] += 1
        return build(self)

    monkeypatch.setattr(QPoly, "_index_support", counted)
    rng = random.Random(92)
    basis = list(enumerate_basis(6, 3))
    stream = [mono(m, rng.choice((-6, -4, -3, 2, 3, 5, 7))) for m in rng.sample(basis, 120)]
    report = chain_demo(stream)
    assert len(report.generators) >= 20
    assert sum(builds.values()) >= 10
    assert set(builds) <= {id(g) for g in report.generators}
    assert max(builds.values()) == 1

    builds.clear()
    gens = [parse_poly(g) for g in GEN_FAMILIES["bench"]]
    f = rand_sparse_poly(rng, list(enumerate_basis(7, 3)), 200)
    for _ in range(2):  # the kept support outlives one reduce_by call
        trace: list = []
        reduce_by(f, gens, trace=trace)
        assert sum(1 for rec in trace if "against" in rec) > 50
    assert builds == Counter({id(g): 1 for g in gens})


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


# --- bounded membership ------------------------------------------------------

def test_membership_examples():
    assert membership_bounded(mono(mk((0, 2, 1))), [mono(mk((1,)))], 3)
    assert not membership_bounded(mono(mk((), (1,))), [mono(mk((1,)))], 2)
    assert membership_bounded(QPoly.zero(), [mono(mk((1,)))], 2)


def test_membership_detects_coefficient_obstruction():
    # 2*y1 generates only even multiples in degree 1
    assert not membership_bounded(mono(mk((1,))), [mono(mk((1,)), 2)], 1)
    assert membership_bounded(mono(mk((1,)), 4), [mono(mk((1,)), 2)], 1)


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
