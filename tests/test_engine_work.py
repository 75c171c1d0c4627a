"""Work counts of the reduction engine on the benchmark's seed-1 jobs, and
of the generic evaluation and the command line that carry them, and of the
bounded membership check on seeded cases.

Counts are exact where wall-clock is not.  Each seed-1 `reduce` job is
reduce_by on its polynomial against the three generators of its file, with
no trace, as the reduce command runs it; each `chain` job is chain_demo on
its stream.  The counts are taken by wrapping the names the loop calls: the
embedding kernel, the lift and the gcd, the compile of a generator's lift
program, every MonotoneInjection built, and every index support built.
The embedding data built for the antichain of a basis is counted too."""

import io
import random
import sys
from collections import Counter

import pytest

import m2sl2.cli
import m2sl2.genmat as genmat
import m2sl2.orders
import m2sl2.reduction as reduction
from m2sl2.freealg import CanonicalMonomial, QPoly, enumerate_basis
from m2sl2.orders import MonotoneInjection
from m2sl2.parsing import parse, parse_poly
from tests.bench_pairs import bench_module
from tests.util import rand_qpoly

workloads = bench_module("workloads")


def _jobs(workload: str) -> list[list]:
    """Each seed-1 job of a workload as its parsed polynomials: a `reduce`
    job's polynomial then its generators, a `chain` job's stream."""
    out = []
    for job in workloads.build(workload, 1):
        (_, text), = job.files
        lines = [line for line in text.splitlines() if line.strip()]
        if job.argv[0] == "reduce":
            lines.insert(0, job.argv[1])
        out.append([parse_poly(line) for line in lines])
    return out


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Calls of embedders, _lift, bezout and _compile as reduction calls them,
    the MonotoneInjections built (validated or not), the index supports
    built (`supports`, one per _index_support call), and `sets`: the distinct tuples of usable generator
    positions met within each _reduce call, summed over the calls.  The
    kernel's work over the index is counted too: `headers`, the bucket
    headers it compares; `compared`, the keys whose y-degree it compares in
    the buckets that pass; and `scanned`, the keys that pass both and so
    reach the row scan, which iterates their rows."""
    seen: Counter = Counter()
    sets: list[set] = []
    embedders = reduction.embedders

    class Rows(tuple):
        """A key's rows, counting each scan the kernel starts over them."""

        def __iter__(self):
            seen["scanned"] += 1
            return tuple.__iter__(self)

    class Bucket(list):
        """A bucket's entries, counting each key whose y-degree the kernel
        compares."""

        def __iter__(self):
            for entry in list.__iter__(self):
                seen["compared"] += 1
                yield entry

    class Index(dict):
        """An index, counting each bucket header the kernel compares."""

        def items(self):
            for header, bucket in dict.items(self):
                seen["headers"] += 1
                yield header, bucket

    def counted_embedders(b, index):
        seen["embedders"] += 1
        hits = embedders(b, Index({header: Bucket([(y, k, Rows(rows)) for y, k, rows in bucket])
                                   for header, bucket in index.items()}))
        if hits:
            sets[-1].add(tuple(k for k, _ in hits))
        return hits

    def counted_reduce(*args, _fn=reduction._reduce):
        sets.append(set())
        try:
            return _fn(*args)
        finally:
            seen["sets"] += len(sets.pop())

    monkeypatch.setattr(reduction, "embedders", counted_embedders)
    monkeypatch.setattr(reduction, "_reduce", counted_reduce)
    for name in ("_lift", "bezout", "_compile"):
        def counted(*args, _fn=getattr(reduction, name), _name=name):
            seen[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(reduction, name, counted)

    new, from_table = MonotoneInjection.__new__, MonotoneInjection.from_table.__func__

    def counted_new(cls, *args):
        seen["MonotoneInjection"] += 1
        return new(cls, *args)

    def counted_from_table(cls, table):
        seen["MonotoneInjection"] += 1
        return from_table(cls, table)

    monkeypatch.setattr(MonotoneInjection, "__new__", counted_new)
    monkeypatch.setattr(MonotoneInjection, "from_table", classmethod(counted_from_table))

    def counted_support(self, _fn=QPoly._index_support):
        seen["supports"] += 1
        return _fn(self)

    monkeypatch.setattr(QPoly, "_index_support", counted_support)
    return seen


def test_reduce_work(counts):
    jobs = _jobs("reduce")
    assert len(jobs) == 34
    for f, *gens in jobs:
        reduction.reduce_by(f, gens)
    # one embedders call per step, one lift per usable generator with a tail
    # and a nonzero Bezout coefficient, and one gcd per distinct usable set
    # of each reduce_by call: the witness tables build no injection, and
    # each generator's support is built and its tail compiled once per call.
    # Each generator's key sits alone in its bucket (`headers` counts one
    # per key and step), and the bucket reject or the y-degree stops about
    # half of them before their rows are read
    assert counts == {"embedders": 9165, "_lift": 7504, "bezout": 136, "sets": 136,
                      "supports": 102, "_compile": 102, "headers": 27495, "compared": 15356,
                      "scanned": 14318}


def test_traced_reduce_work(counts):
    jobs = _jobs("reduce")
    for f, *gens in jobs:
        reduction.reduce_by(f, gens, trace=[])
    # every generator of these jobs has a tail, so a traced pass lifts as an
    # untraced one does; each step's record reads the witness table and the
    # parts _lift returns, so the pass builds no injection either
    assert counts == {"embedders": 9165, "_lift": 7504, "bezout": 136, "sets": 136,
                      "supports": 102, "_compile": 102, "headers": 27495, "compared": 15356,
                      "scanned": 14318}


def test_chain_work(counts):
    jobs = _jobs("chain")
    assert len(jobs) == 30
    for stream in jobs:
        reduction.chain_demo(stream)
    # the stream's items are single terms, so the generators' tails are
    # empty: no untraced step lifts or builds an injection, and no
    # generator builds an index support or compiles a lift program (no
    # `_compile` count).  The gcd table lives for the whole stream, so
    # bezout runs once per usable set new to the stream, fewer times than a
    # table per _reduce call would run it (`sets`).  The 2,727 keys filed
    # fall into about 11 buckets per call: a header compared rejects a
    # bucket's keys at once, so fewer keys are compared than the 178,213
    # a flat list of the keys would visit, and the row-count bucket sends
    # fewer of them to the scan
    assert counts == {"embedders": 3600, "bezout": 809, "sets": 1796,
                      "headers": 40870, "compared": 47176, "scanned": 34209}


def test_membership_compiles_each_generator_once(counts):
    # the cases of test_membership_matches_product_oracle's generator, with
    # the degree bound one past f's and indices up to 3: each generator with
    # room for a lift is compiled against ONE once per call, not once per
    # candidate lift, and no injection is built for the candidates' renamings
    rng = random.Random(85)
    answers, room = Counter(), 0
    for _ in range(40):
        gens = [rand_qpoly(rng, max_terms=2, max_degree=2, max_index=2)
                for _ in range(rng.randint(1, 2))]
        f = rand_qpoly(rng, max_terms=2, max_degree=3, max_index=2)
        max_degree = max(f.degree, 1) + 1
        answers[reduction.membership_bounded(f, gens, max_degree, 3)] += 1
        room += sum(not g.is_zero() and g.degree <= max_degree for g in gens) if f.terms else 0
    assert answers == {True: 10, False: 30}
    assert room == 63
    assert counts == {"_compile": 63, "supports": 63}


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Calls of CanonicalMonomial._embedding: each builds one monomial's
    embedding data."""
    seen = Counter()
    embedding = CanonicalMonomial._embedding

    def counted(m):
        seen["_embedding"] += 1
        return embedding(m)

    monkeypatch.setattr(CanonicalMonomial, "_embedding", counted)
    return seen


def test_minimal_elements_builds_each_embedding_once(builds):
    # minimal_elements keeps each item's embedding data as its key and hands
    # the kernel that key as the target, so each item's data is built once
    basis = list(enumerate_basis(3, 3))
    assert len(basis) == 104
    assert m2sl2.orders.minimal_elements(basis) == [CanonicalMonomial(), CanonicalMonomial((), (1,))]
    assert builds == {"_embedding": 104}


@pytest.mark.parametrize("workload, count", [("chain", 3600), ("reduce", 9471)])
def test_engine_builds_each_embedding_once(builds, workload, count):
    # a step builds its target's embedding data once, and chain_demo files
    # the data built at the step that froze a remainder's leading term as
    # the adjoined generator's key: one build per item of the 3,600 in the
    # `chain` streams, none more for the 2,727 generators adjoined.  On
    # `reduce` the steps, the generators' keys and their index supports
    # build theirs
    for job in _jobs(workload):
        if workload == "chain":
            reduction.chain_demo(job)
        else:
            reduction.reduce_by(job[0], job[1:])
    assert builds == {"_embedding": count}


def test_chain_reads_leading_data_off_the_remainder(monkeypatch):
    # an adjoined remainder's leading data is its first term, which _reduce
    # froze first: chain_demo calls leading on none of them, and the data
    # is what leading returns
    calls = Counter()
    leading = reduction.leading

    def counted(f):
        calls["leading"] += 1
        return leading(f)

    monkeypatch.setattr(reduction, "leading", counted)
    adjoined = []
    for stream in _jobs("chain"):
        report = reduction.chain_demo(stream)
        assert len(report.adjoined) == len(report.generators)
        adjoined += zip(report.adjoined, report.generators)
    assert calls == {}
    assert len(adjoined) == 2727
    assert all(ld == leading(g) for (_, ld), g in adjoined)


def test_identity_products_skip_empty_blocks(monkeypatch):
    # is-identity folds each seed-1 text over generic first rows: a block
    # product with an empty operand adds nothing, so _mat_mul makes none
    seen = Counter()
    mul_into = genmat._mul_into

    def counted(acc, left, right):
        seen["empty" if not left or not right else "nonempty"] += 1
        mul_into(acc, left, right)

    monkeypatch.setattr(genmat, "_mul_into", counted)
    texts = [job.argv[1] for job in workloads.build("identity", 1) if job.argv[0] == "is-identity"]
    assert len(texts) == 30
    for text in texts:
        genmat._tree_row(parse(text))
    assert seen == {"nonempty": 471}


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("workload", ["reduce", "chain", "identity"])
def test_a_command_writes_stdout_once(monkeypatch, tmp_path, workload):
    # every seed-1 job of the workload through cli.main, its files written
    # to tmp_path: a successful command writes all of its lines at once
    for job in workloads.build(workload, 1):
        for name, text in job.files:
            (tmp_path / name).write_text(text, encoding="utf-8")
        names = {name for name, _ in job.files}
        argv = [str(tmp_path / a) if a in names else a for a in job.argv]
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert m2sl2.cli.main(argv) == 0
        assert out.writes == 1, job.argv
        assert out.getvalue().endswith("\n"), job.argv
