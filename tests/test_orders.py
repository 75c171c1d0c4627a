import copy
import itertools
import pickle
import random
from collections import Counter
from functools import cache

import pytest

from m2sl2 import (
    ONE,
    CanonicalMonomial,
    CannotExtendError,
    InvalidProfileError,
    MonotoneInjection,
    Profile,
    QPoly,
    ReducerTriple,
    apply_reducer,
    chain_demo,
    cmp_total,
    enumerate_basis,
    minimal_elements,
    pwo_leq,
    push_profile,
    reduce_word,
    rename_monomial,
    total_key,
    xi,
    xi_inv,
)
from m2sl2.freealg import _monomial
from m2sl2.orders import embedders, file_key, key_index
from tests.util import (
    assert_witness_valid,
    brute_embed,
    check_comp,
    check_mult4,
    greedy_witness,
    injection_onto,
    monomial_indices,
    oracle_cmp_total,
    rand_injection,
    rand_monomial,
    reference_covering,
    seq_embed,
    word_renaming,
)


def mk(yexp=(), cseq=(), dseq=()):
    return CanonicalMonomial.make(yexp, cseq, dseq)


# --- profiles ----------------------------------------------------------------

def test_xi_examples():
    assert xi(mk((2, 0, 1))) == Profile(1, (2, 0, 1))
    assert xi(mk((), (1, 1), (2,))) == Profile(2, (), (2,), (0, 1))
    assert xi(mk()) == Profile(1, ())


def test_xi_inv_examples():
    assert xi_inv(Profile(1, (0, 3))) == mk((0, 3))
    assert xi_inv(Profile(2, (), (1, 1), (0, 2))) == mk((), (1, 2), (2, 2))


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        Profile(2, (), (), ())  # no z letters at all
    with pytest.raises(InvalidProfileError):
        Profile(2, (), (1,), (0, 2))  # more d's than c's
    with pytest.raises(InvalidProfileError):
        Profile(2, (), (0, 3), (1,))  # difference above one
    for args, message in (((3,), "variant must be 1 or 2"),
                          ((1, (-1, 1)), "profile entries must be >= 0"),
                          ((1, (1, 0)), "trailing zeros must be trimmed"),
                          ((1, (), (1,)), "variant 1 carries only u1")):
        with pytest.raises(InvalidProfileError, match=message):
            Profile(*args)
    Profile(2, (), (1, 1), (0, 2))
    Profile(2, (1,), (1,), ())
    # sequences given as lists are kept as tuples: the profile equals the
    # tuple-built one, hashes, and maps back to the tuple-built monomial
    listed = Profile(1, [2, 1])
    assert listed == Profile(1, (2, 1)) and hash(listed) == hash(Profile(1, (2, 1)))
    assert xi_inv(listed) == CanonicalMonomial((2, 1))
    listed = Profile(2, [], [1, 1], [0, 2])
    assert listed == Profile(2, (), (1, 1), (0, 2)) and {listed: 1}[Profile(2, (), (1, 1), (0, 2))] == 1
    assert xi_inv(listed) == mk((), (1, 2), (2, 2))


def test_xi_roundtrip_randomized():
    rng = random.Random(50)
    for _ in range(1000):
        m = rand_monomial(rng)
        assert xi_inv(xi(m)) == m
    # a whole basis: the slot columns of the rows run to the largest index
    # of any family
    for m in enumerate_basis(5, 4):
        assert xi_inv(xi(m)) == m, m


# --- the linear order --------------------------------------------------------

def test_cmp_examples():
    assert cmp_total(mk((2,)), mk((1, 1))) < 0
    assert cmp_total(mk((5,)), mk((), (1,))) < 0
    assert cmp_total(mk((), (1,), (1,)), mk((), (1,), (2,))) < 0


def test_cmp_rightmost_rule():
    # highest differing position decides
    assert cmp_total(mk((0, 0, 5)), mk((9, 9, 4))) > 0
    assert cmp_total(mk((3,)), mk((3,))) == 0


def test_cmp_z_count_dominates_within_v2():
    # one z letter versus three: degree of the z part is compared first
    a = mk((9, 9), (1,))
    b = mk((), (1, 1), (1,))
    assert cmp_total(a, b) < 0


def test_cmp_dseq_before_cseq():
    # equal z-count: the d-column is compared before the c-column
    a = mk((), (1, 5), (1,))
    b = mk((), (1, 1), (2,))
    # dseq (1) vs (2): rightmost difference at index 2 decides, so a < b
    assert cmp_total(a, b) < 0


def test_total_order_randomized():
    rng = random.Random(51)
    for _ in range(400):
        a, b, c = (rand_monomial(rng, max_degree=5) for _ in range(3))
        ca, cb = cmp_total(a, b), cmp_total(b, a)
        assert ca == -cb
        assert (ca == 0) == (a == b)
        if cmp_total(a, b) <= 0 and cmp_total(b, c) <= 0:
            assert cmp_total(a, c) <= 0


def test_least_element_exhaustive():
    from m2sl2 import enumerate_basis

    base = list(enumerate_basis(3, 2))
    least = min(base, key=total_key)
    assert least == mk()


def test_total_key_sorting_agrees_with_cmp():
    rng = random.Random(52)
    ms = [rand_monomial(rng, max_degree=4) for _ in range(60)]
    s = sorted(ms, key=total_key)
    for a, b in zip(s, s[1:]):
        assert cmp_total(a, b) <= 0


def test_cmp_total_matches_oracle_exhaustive():
    from m2sl2 import enumerate_basis

    base = list(enumerate_basis(4, 3))
    for a in base:
        for b in base:
            assert cmp_total(a, b) == oracle_cmp_total(a, b), (a, b)


# --- injections --------------------------------------------------------------

def test_injection_validation():
    MonotoneInjection(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        MonotoneInjection(((1, 2), (2, 2)))  # target repeats
    with pytest.raises(ValueError):
        MonotoneInjection(((2, 1), (1, 3)))  # sources out of order


def test_injection_call_and_support():
    phi = injection_onto((2, 5))
    images = dict(phi.pairs)
    assert images[1] == 2 and images[2] == 5
    assert tuple(images) == (1, 2)
    assert 3 not in images


def test_covering_prefers_identity_above():
    phi = injection_onto((3,))
    ext = dict(phi.covering((1, 2, 7)).pairs)
    assert ext[1] == 3
    assert ext[2] == 4  # identity image 2 is blocked by the target 3
    assert ext[7] == 7  # identity image available above the stored pairs


def test_covering_real_hole():
    phi = MonotoneInjection(((1, 1), (3, 2)))
    with pytest.raises(CannotExtendError):
        phi.covering((2,))


def _covering_outcome(cover, phi, indices):
    try:
        return cover(phi, indices)
    except (CannotExtendError, ValueError) as exc:
        return type(exc), str(exc)


def test_covering_matches_reference_exhaustive():
    # every injection with sources in 1..4 and targets in 1..6, holes
    # included, against every index set inside 0..5: covering gives what
    # the reference gives, self when there is nothing to extend (sources
    # 1..n among them), and an index below 1 is refused as before
    seen = Counter()
    for n in range(5):
        for sources in itertools.combinations(range(1, 5), n):
            for targets in itertools.combinations(range(1, 7), n):
                phi = MonotoneInjection(tuple(zip(sources, targets)))
                for k in range(7):
                    for indices in itertools.combinations(range(6), k):
                        want = _covering_outcome(reference_covering, phi, indices)
                        got = _covering_outcome(MonotoneInjection.covering, phi, set(indices))
                        assert got == want, (phi, indices)
                        assert _covering_outcome(MonotoneInjection.covering, phi, indices) == want
                        if type(want) is tuple:  # an error; an injection is a tuple subclass
                            seen[want[0].__name__] += 1
                        elif got is phi:
                            seen["self, 1..n" if sources == tuple(range(1, n + 1)) else "self"] += 1
                        else:
                            seen["extended"] += 1
    assert seen == {"CannotExtendError": 4756, "extended": 4235, "ValueError": 3160, "self": 816,
                    "self, 1..n": 473}, seen


def test_scan_witness_is_a_valid_injection():
    # embedders returns its witness as an index table, unvalidated: table[0]
    # is 0, and its injection must equal the validated injection on the same
    # pairs, with sources 1..max_index of the left operand
    basis = list(enumerate_basis(4, 3))
    hits = 0
    for a in basis:
        index = key_index([a._embedding()])
        for b in basis:
            for _, table in embedders(b._embedding(), index):
                hits += 1
                assert table[0] == 0, (a, b)
                phi = MonotoneInjection.from_table(table)
                assert phi == MonotoneInjection(phi.pairs), (a, b)
                assert [s for s, _ in phi.pairs] == list(range(1, a.max_index + 1)), (a, b)
    assert hits == 2751  # the pwo_leq pairs: the column-sum reject runs before the scan


# --- embedding ---------------------------------------------------------------

def test_seq_embed_examples():
    leq = lambda a, b: a <= b  # noqa: E731
    assert seq_embed((1, 2), (2, 1, 3), leq) == (1, 3)
    assert seq_embed((), (4, 4), leq) == ()
    assert seq_embed((5,), (4, 4), leq) is None


def test_pwo_examples():
    w = pwo_leq(mk((1,)), mk((0, 3)))
    assert w is not None and w.pairs == ((1, 2),)
    assert pwo_leq(mk((1,)), mk((), (1,))) is None
    w = pwo_leq(mk((), (1,), (2,)), mk((), (1, 2), (1, 2)))
    assert w is not None
    assert w.pairs == ((1, 1), (2, 2))


def test_pwo_zero_tail():
    # the right-hand side is padded with zeros, never the reverse
    assert pwo_leq(mk((1,)), mk((0, 0, 0, 1))) is not None
    assert pwo_leq(mk((0, 0, 0, 1)), mk((1,))) is None


def test_pwo_partial_order_randomized():
    rng = random.Random(53)
    for _ in range(300):
        a = rand_monomial(rng, max_degree=5, max_index=4)
        b = rand_monomial(rng, max_degree=5, max_index=4)
        assert pwo_leq(a, a) is not None
        ab = pwo_leq(a, b)
        ba = pwo_leq(b, a)
        if ab is not None and ba is not None:
            assert a == b  # antisymmetry on canonical forms
        if ab is not None:
            assert_witness_valid(a, b, ab)


def test_pwo_transitivity_randomized():
    rng = random.Random(54)
    hits = 0
    while hits < 60:
        a = rand_monomial(rng, max_degree=3, max_index=2)
        b = rand_monomial(rng, max_degree=4, max_index=3)
        c = rand_monomial(rng, max_degree=5, max_index=4)
        if pwo_leq(a, b) is not None and pwo_leq(b, c) is not None:
            assert pwo_leq(a, c) is not None
            hits += 1


def test_pwo_compatible_with_cmp():
    # the embedding order refines into the linear order
    rng = random.Random(55)
    for _ in range(300):
        a = rand_monomial(rng, max_degree=5, max_index=4)
        b = rand_monomial(rng, max_degree=5, max_index=4)
        if pwo_leq(a, b) is not None:
            assert cmp_total(a, b) <= 0, (a, b)


@cache
def _basis_embeddings() -> tuple:
    """enumerate_basis(4, 3) and the set of its (i, j) pairs with
    brute_embed(basis[i], basis[j]), computed once per module."""
    base = list(enumerate_basis(4, 3))
    return base, {(i, j) for i, a in enumerate(base) for j, b in enumerate(base)
                  if brute_embed(a, b)}


def test_sums_reject_never_contradicts_scan_exhaustive():
    # the column-sum reject is sound: a pair of one variant where a's c-slot
    # count, d-slot count or y-degree exceeds b's never embeds, by the oracle
    base, embeds = _basis_embeddings()
    rejected = 0
    for i, a in enumerate(base):
        for j, b in enumerate(base):
            if bool(a.cseq) != bool(b.cseq) or (
                    len(a.cseq) <= len(b.cseq) and len(a.dseq) <= len(b.dseq)
                    and sum(a.yexp) <= sum(b.yexp)):
                continue
            rejected += 1
            assert (i, j) not in embeds, (a, b)
    assert rejected > 0


def test_embedders_match_oracles_exhaustive():
    # one kernel call per b against the data of the whole basis: the hits
    # are exactly the oracle's, in ascending position, with the leftmost
    # witnesses
    base, embeds = _basis_embeddings()
    keys = [a._embedding() for a in base]
    index = key_index(keys)
    hits = 0
    for j, b in enumerate(base):
        got = embedders(keys[j], index)
        assert [k for k, _ in got] == [i for i in range(len(base)) if (i, j) in embeds], b
        for i, table in got:
            assert table[0] == 0, (base[i], b)
            phi = MonotoneInjection.from_table(table)
            assert phi.pairs == greedy_witness(base[i], b), (base[i], b)
            assert_witness_valid(base[i], b, phi)
        hits += len(got)
    assert hits == len(embeds) == 2751


def test_filed_index_matches_oracles_exhaustive():
    # the basis' keys filed one at a time in a shuffled order, which
    # interleaves the buckets, each at its basis position: the index is
    # key_index's over the list, and each kernel call gives exactly the
    # oracle's hits in ascending position, also where the buckets, read in
    # the index's order, give them out of order, so the final sort matters.
    # The basis holds ONE, pure-y keys, buckets with tied y-degrees and
    # keys that pass every count of a target's header but have more rows
    # than it, which never embed
    base, embeds = _basis_embeddings()
    assert base[0] == ONE
    keys = [a._embedding() for a in base]
    order = list(range(len(base)))
    random.Random(58).shuffle(order)
    index: dict = {}
    for i in order:
        file_key(index, keys[i], i)
    assert index == key_index(keys)
    assert all(bucket == sorted(bucket) for bucket in index.values())
    seen = Counter(ties=sum(len({y for y, _, _ in bucket}) < len(bucket) for bucket in index.values()))
    for j, b in enumerate(base):
        got = [k for k, _ in embedders(keys[j], index)]
        assert got == [i for i in range(len(base)) if (i, j) in embeds], b
        hit = set(got)
        seen["resorted"] += [k for bucket in index.values() for _, k, _ in bucket if k in hit] != got
        seen["ONE"] += 0 in hit
        v, c, d, y, rows = keys[j]
        seen["row count alone rejects"] += sum(
            kv == v and kc <= c and kd <= d and ky <= y and len(kr) > len(rows)
            for kv, kc, kd, ky, kr in keys)
    assert seen == {"ties": 10, "resorted": 284, "ONE": 35, "row count alone rejects": 3555}, seen


def test_greedy_vs_brute_small_random():
    rng = random.Random(56)
    for _ in range(400):
        a = rand_monomial(rng, max_degree=4, max_index=3)
        b = rand_monomial(rng, max_degree=5, max_index=4)
        got = pwo_leq(a, b)
        assert (got is not None) == brute_embed(a, b), (a, b)


def test_pwo_leq_warm_caches_match_oracles():
    """Every monomial is compared many times, as built by four
    constructors; the answers and witnesses must match the cold oracles,
    whichever constructor built the operands."""
    rng = random.Random(57)
    pool = []
    for _ in range(40):
        m = rand_monomial(rng, max_degree=5, max_index=4)
        sign, r = reduce_word(m.word())
        assert sign == 1
        pool += [m, r, _monomial((m.yexp, m.cseq, m.dseq)),
                 CanonicalMonomial(m.yexp, m.cseq, m.dseq)]
    expect = {}
    for _ in range(3):
        for a in pool:
            for b in rng.sample(pool, 40):
                got = pwo_leq(a, b)
                key = ((a.yexp, a.cseq, a.dseq), (b.yexp, b.cseq, b.dseq))
                if key not in expect:
                    expect[key] = greedy_witness(a, b)
                    assert (expect[key] is not None) == brute_embed(a, b), (a, b)
                assert (None if got is None else got.pairs) == expect[key], (a, b)
                if got is not None:
                    assert_witness_valid(a, b, got)
    assert sum(w is not None for w in expect.values()) > 100


# --- renaming ----------------------------------------------------------------

def test_renaming_examples():
    phi = MonotoneInjection(((1, 2), (2, 5)))
    m = mk((1,), (2,))
    assert rename_monomial(m, phi, "both") == mk((0, 1), (5,))
    assert rename_monomial(m, phi, "y_only") == mk((0, 1), (2,))
    assert rename_monomial(m, phi, "z_only") == mk((1,), (5,))


def test_renaming_rejects_unknown_mode():
    m = mk((1,))
    for call in (lambda: rename_monomial(m, MonotoneInjection(), "z"),
                 lambda: push_profile(xi(m), MonotoneInjection(), "z")):
        with pytest.raises(ValueError, match="mode must be one of"):
            call()


def test_rename_profile_agreement_partial_injection():
    """rename then profile == profile then push, even when the injection is
    partial and the covering extension kicks in."""
    phi = MonotoneInjection(((1, 5),))
    m = mk((), (1, 2, 4, 5), (1, 1, 5))
    for mode in ("both", "y_only", "z_only"):
        assert xi(rename_monomial(m, phi, mode)) == push_profile(xi(m), phi, mode)


# fixed injections, two with holes the covering extension has to fill
RENAME_INJECTIONS = (
    MonotoneInjection(),
    MonotoneInjection(((2, 5),)),
    MonotoneInjection(((1, 3), (4, 9))),
    injection_onto((2, 3, 7)),
    MonotoneInjection(((3, 3),)),
)
# index 2 must land strictly between 1 and 2: no room
NO_ROOM = MonotoneInjection(((1, 1), (3, 2)))


def _renamed_indices(m, mode):
    fams = {"both": "yz", "y_only": "y", "z_only": "z"}[mode]
    return {i for fam, i in m.word() if fam in fams}


def renamed_whole(f, phi):
    """f renamed along phi with one extension for all its terms: apply_reducer
    with N = 1 and an empty P (mode "both")."""
    return apply_reducer(ReducerTriple(phi, ONE, ()), f)


def test_rename_kernel_matches_word_oracle():
    """rename_monomial and push_profile, in every mode, and the whole-polynomial
    renaming inside apply_reducer, against the renaming done letter by letter
    on words, on every monomial of a small basis."""
    basis = list(enumerate_basis(3, 3))
    # distinct coefficients, so a merged or dropped term shows
    whole = QPoly({m: k for k, m in enumerate(basis, start=1)})
    for mode in ("both", "y_only", "z_only"):
        for phi in RENAME_INJECTIONS:
            for m in basis:
                got = rename_monomial(m, phi, mode)
                assert QPoly.monomial(got) == word_renaming(QPoly.monomial(m), phi, mode), (m, phi, mode)
                assert CanonicalMonomial(got.yexp, got.cseq, got.dseq) == got
                pushed = push_profile(xi(m), phi, mode)
                assert pushed == xi(got) and xi_inv(pushed) == got, (m, phi, mode)
            if mode == "both":
                assert renamed_whole(whole, phi) == word_renaming(whole, phi, mode)
                for a, b in zip(basis, basis[7:] + basis[:7]):
                    f = QPoly({a: 2, b: -3})
                    assert renamed_whole(f, phi) == word_renaming(f, phi, mode), (f, phi)
        refused = 0
        for m in basis:
            if 2 not in _renamed_indices(m, mode):
                want = word_renaming(QPoly.monomial(m), NO_ROOM, mode)
                assert QPoly.monomial(rename_monomial(m, NO_ROOM, mode)) == want
                if mode == "both":
                    assert renamed_whole(QPoly.monomial(m), NO_ROOM) == want
                pushed = push_profile(xi(m), NO_ROOM, mode)
                assert pushed == xi(rename_monomial(m, NO_ROOM, mode)) and xi(xi_inv(pushed)) == pushed
                continue
            refused += 1
            for call in (lambda: rename_monomial(m, NO_ROOM, mode),
                         lambda: renamed_whole(QPoly.monomial(m), NO_ROOM),
                         lambda: push_profile(xi(m), NO_ROOM, mode),
                         lambda: word_renaming(QPoly.monomial(m), NO_ROOM, mode)):
                with pytest.raises(CannotExtendError):
                    call()
        assert refused > 0
        with pytest.raises(CannotExtendError):
            renamed_whole(whole, NO_ROOM)

    # rename_monomial alone on a larger basis
    for m in enumerate_basis(5, 4):
        for mode in ("both", "y_only", "z_only"):
            for phi in (*RENAME_INJECTIONS, NO_ROOM):
                try:
                    want = word_renaming(QPoly.monomial(m), phi, mode)
                except CannotExtendError:
                    want = None
                if want is None:
                    with pytest.raises(CannotExtendError):
                        rename_monomial(m, phi, mode)
                else:
                    assert QPoly.monomial(rename_monomial(m, phi, mode)) == want, (m, phi, mode)


def test_comp_suite_small():
    check_comp(random.Random(57), 300)


def test_mult4_suite_small():
    check_mult4(random.Random(58), 300)


def test_renaming_is_injective_under_shared_extension():
    rng = random.Random(59)
    for _ in range(200):
        a = rand_monomial(rng, max_degree=4, max_index=4)
        b = rand_monomial(rng, max_degree=4, max_index=4)
        if a == b:
            continue
        phi = rand_injection(rng, rng.randint(0, 4))
        phi = phi.covering(monomial_indices(a) | monomial_indices(b) | {1})
        assert rename_monomial(a, phi) != rename_monomial(b, phi)


# --- antichains and chains ---------------------------------------------------

def test_minimal_elements_examples():
    assert minimal_elements([mk((1,)), mk((2,))]) == [mk((1,))]
    got = minimal_elements([mk((1,)), mk((), (1,))])
    assert sorted(got, key=total_key) == [mk((1,)), mk((), (1,))]


def test_minimal_elements_cover():
    rng = random.Random(60)
    s = [rand_monomial(rng, max_degree=4, max_index=3) for _ in range(100)]
    mins = minimal_elements(s)
    for m in s:
        assert any(pwo_leq(b, m) is not None for b in mins)
    # and the result is an antichain
    for a, b in itertools.combinations(mins, 2):
        assert pwo_leq(a, b) is None and pwo_leq(b, a) is None


def monomial_stream(monomials):
    return (QPoly.monomial(m) for m in monomials)


def retained(report):
    return [ld.lm for _, ld in report.adjoined]


def test_chain_powers_of_y1():
    report = chain_demo(monomial_stream(mk((k,)) for k in range(1, 30)), budget=100)
    assert retained(report) == [mk((1,))]
    assert report.stabilized_at == 1
    assert not report.truncated


def test_chain_descending_indices():
    # y5, y4, y3, y2, y1: nothing dominates anything that came before it,
    # and retained elements are never re-examined
    stream = [mk((0, 0, 0, 0, 1)), mk((0, 0, 0, 1)), mk((0, 0, 1)), mk((0, 1)), mk((1,))]
    report = chain_demo(monomial_stream(stream), budget=100)
    assert retained(report) == stream
    assert report.stabilized_at == 5


def test_chain_budget_truncation():
    report = chain_demo(monomial_stream(mk((k,)) for k in range(1, 1000)), budget=5)
    assert report.truncated
    assert report.stabilized_at is None
    assert report.steps == 5


def test_chain_degree_six_enumeration_stabilizes():
    from m2sl2 import enumerate_basis

    stream = list(enumerate_basis(6, 2))
    report = chain_demo(monomial_stream(stream), budget=10 ** 6)
    assert not report.truncated
    assert report.stabilized_at is not None
    assert report.stabilized_at < len(stream)


def test_chain_report_is_mutable_and_copies():
    # the report is a mutable record built positionally; copies and
    # pickles come back equal, of its type, with any attribute set on it
    from m2sl2 import ChainReport

    report = chain_demo(monomial_stream([mk((0, 1)), mk((1,)), mk((1, 1))]), budget=2)
    assert report == ChainReport(report.adjoined, 2, True, report.generators)
    assert repr(report).startswith("ChainReport(adjoined=[(1, LeadingData(lc=1, lm=")
    report.steps, report.note = 3, "x"
    for back in (copy.copy(report), copy.deepcopy(report),
                 *(pickle.loads(pickle.dumps(report, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(back) is ChainReport and back == report and back is not report
        assert (back.steps, back.note, retained(back)) == (3, "x", [mk((0, 1)), mk((1,))])


def test_chain_budget_validation():
    with pytest.raises(ValueError):
        chain_demo(iter(()), budget=0)
