"""The acceptance gate: one test per shipping criterion.

Every test prints a single verdict line (run with `pytest -s` to see them all)
and fails on either a body violation or a wall-clock budget overrun.  Budgets
are generous for a desk machine; they exist to catch accidental complexity
regressions, not to benchmark.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

from m2sl2 import (
    CanonicalMonomial,
    QPoly,
    chain_demo,
    enumerate_basis,
    eval_word,
    evaluate,
    identity_generators,
    independence_report,
    is_graded_weak_identity,
    normalize,
    pwo_leq,
    reduce_by,
    reduce_word,
    subst_words,
    total_key,
    xi_inv,
)
from m2sl2.cli import main as cli_main
from m2sl2.genmat import _slot_entries, _word_entries
from tests.util import (
    assert_witness_valid,
    check_comp,
    check_mult,
    check_mult1,
    check_mult2,
    check_mult3a,
    check_mult3b,
    check_mult4,
    check_mult5,
    check_mult6,
    expected_y_product,
    expected_z_product,
    monomial_rows,
    product_eval_word,
    rand_lie,
    rand_word,
    v1_profiles,
    v2_profiles,
)


@contextmanager
def criterion(num: int, name: str, budget: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        verdict = "PASS" if ok and dt < budget else "FAIL"
        print(f"[criterion {num}] {name}: {verdict} in {dt:.2f}s (budget {budget:g}s)")
    assert dt < budget, f"criterion {num} blew its budget: {dt:.2f}s >= {budget:g}s"


def test_criterion_1_generator_vanishing():
    with criterion(1, "generator vanishing", 5):
        gens = identity_generators()
        for g in gens:
            # raw words, no canonical rewriting in the loop
            assert evaluate(g).is_zero()
            assert is_graded_weak_identity(normalize(g))
        rng = random.Random(101)
        for k in range(200):
            g = gens[k % 3]
            letters = {letter for _, w in g for letter in w}
            sigma = {
                letter: rand_lie(rng, 0 if letter[0] == "y" else 1, depth=2, max_index=4)
                for letter in letters
            }
            assert evaluate(subst_words(g, sigma)).is_zero()


def test_criterion_2_evaluation_formulas():
    with criterion(2, "evaluation formulas", 5):
        count_y = 0
        for k in range(7):
            for idx in product(range(1, 4), repeat=k):
                assert eval_word(tuple(("y", i) for i in idx)) == expected_y_product(idx)
                count_y += 1
        assert count_y == 1093

        count_z = 0
        for n in range(1, 5):
            for cs in combinations_with_replacement(range(1, 4), n):
                for dn in (n - 1, n):
                    for ds in combinations_with_replacement(range(1, 4), dn):
                        m = CanonicalMonomial.make((), cs, ds)
                        w = m.word()
                        assert eval_word(w) == expected_z_product([i for _, i in w])
                        count_z += 1
        assert count_z == 601


def test_criterion_3_basis_independence():
    # each basis word, walked letter by letter as is-identity walks it
    # (_word_entries), evaluates to one +-1 term in row 1, at the entry its
    # monomial's slots give (_slot_entries); the entries are pairwise
    # distinct, so the evaluations are independent, and the rank is the
    # count that independence_report reads
    with criterion(3, "basis independence", 60):
        monos = list(enumerate_basis(6, 3))
        entries = [_word_entries(m.word()) for m in monos]
        for m, got, want in zip(monos, entries, _slot_entries(monos), strict=True):
            assert got == want, m
        assert {sign for _, _, sign in entries} <= {1, -1}
        assert len({(pos, term) for pos, term, _ in entries}) == len(monos) == 1627
        rep = independence_report(max_degree=6, max_index=3)
        assert rep.monomials == 1627
        assert rep.rank == 1627
        assert rep.full_rank


def test_criterion_4_rewriting_soundness():
    with criterion(4, "rewriting soundness", 30):
        rng = random.Random(104)
        for _ in range(1000):
            w = rand_word(rng, max_len=8, max_index=4)
            sign, m = reduce_word(w)
            assert eval_word(w) == evaluate(m) * sign, w
            assert eval_word(w) == product_eval_word(w), w


def test_criterion_5_order_lemma_suites():
    with criterion(5, "order lemma suites", 60):
        rng = random.Random(105)
        for suite in (check_comp, check_mult, check_mult1, check_mult2,
                      check_mult3a, check_mult3b, check_mult4):
            suite(rng, 1000)


def test_criterion_6_factor_and_lift_round_trip():
    with criterion(6, "factor/lift round-trip", 30):
        check_mult5(random.Random(106), 500)
        check_mult6(random.Random(1060), 500)


def _embeds_rows(ra, rb) -> bool:
    """Exhaustive injection search on precomputed count rows, zero tail included."""
    rbp = rb + [(0, 0, 0)] * len(ra)
    for combo in combinations(range(len(rbp)), len(ra)):
        ok = True
        for j, t in enumerate(combo):
            a, b, c = ra[j]
            u, v, w = rbp[t]
            if a > u or b > v or c > w:
                ok = False
                break
        if ok:
            return True
    return False


def test_criterion_7_greedy_vs_brute_embedding():
    with criterion(7, "greedy vs brute embedding", 60):
        fam1 = [xi_inv(p) for p in v1_profiles(support=4, entry_cap=3)]
        fam2 = [xi_inv(p) for p in v2_profiles(support=2, entry_cap=2)]
        assert len(fam1) == 256 and len(fam2) == 306
        for fam in (fam1, fam2):
            rows = [monomial_rows(m) for m in fam]
            for i, a in enumerate(fam):
                for j, b in enumerate(fam):
                    got = pwo_leq(a, b)
                    assert (got is not None) == _embeds_rows(rows[i], rows[j]), (a, b)
                    if got is not None:
                        assert_witness_valid(a, b, got)
        # across variants nothing embeds, in either direction
        for a in fam1:
            for b in fam2:
                assert pwo_leq(a, b) is None
                assert pwo_leq(b, a) is None


def test_criterion_8_stabilization_demo():
    with criterion(8, "stabilization demo", 120):
        monos = list(enumerate_basis(8, 3))
        assert len(monos) == 6574
        streams = {
            "graded": monos,
            "lex": sorted(monos, key=lambda m: (m.yexp, m.cseq, m.dseq)),
            "total": sorted(monos, key=total_key),
        }
        for order, seq in streams.items():
            report = chain_demo(QPoly.monomial(m) for m in seq)
            assert not report.truncated and report.steps == len(seq)
            assert report.stabilized_at is not None
            assert 0 < report.stabilized_at < len(seq), order
            for m in seq:
                assert reduce_by(QPoly.monomial(m), report.generators).is_zero(), (order, m)


def test_criterion_9_euclidean_trace(tmp_path):
    with criterion(9, "euclidean trace", 1):
        gens = tmp_path / "gens.txt"
        gens.write_text("2*y1\n")
        out = tmp_path / "trace.json"
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(["reduce", "3*y1", str(gens), "--trace", str(out)])
        assert rc == 0 and buf.getvalue() == "+ y1\n"
        frozen = Path(__file__).parent / "data" / "euclid_trace.json"
        assert out.read_bytes() == frozen.read_bytes()
