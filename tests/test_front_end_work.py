"""Work counts of the front end on the benchmark's seed-1 job lines.

Counts are exact where wall-clock is not: a sum of runs, every `chain` and
`reduce` line, is read with no parse tree, no normalize and no reduce_word,
while the bracket and power texts of `identity`'s `normalize` jobs still
take the tree."""

import pytest

import m2sl2.freealg
import m2sl2.parsing
from m2sl2.parsing import _Parser, parse_poly
from tests.bench_pairs import bench_module, file_lines

workloads = bench_module("workloads")


def _job_lines(workload: str) -> list[str]:
    """The texts parse_poly reads on a seed-1 pass of a workload: the
    expression of each `reduce` and `normalize` job, and every line of each
    `reduce` and `chain-demo` job's files."""
    lines = []
    for job in workloads.build(workload, 1):
        if job.argv[0] in ("reduce", "normalize"):
            lines.append(job.argv[1])
        if job.argv[0] in ("reduce", "chain-demo"):
            lines += file_lines(job)
    return lines


@pytest.fixture
def counts(monkeypatch) -> dict[str, int]:
    """Calls of _Parser(), and of normalize and reduce_word where parse_poly
    reaches them."""
    seen = {"_Parser": 0, "normalize": 0, "reduce_word": 0}
    init = _Parser.__init__

    def parser_init(self, text):
        seen["_Parser"] += 1
        init(self, text)

    monkeypatch.setattr(_Parser, "__init__", parser_init)
    for module, name in ((m2sl2.parsing, "normalize"), (m2sl2.freealg, "reduce_word")):
        def counting(arg, real=getattr(module, name), name=name):
            seen[name] += 1
            return real(arg)

        monkeypatch.setattr(module, name, counting)
    return seen


@pytest.mark.parametrize("workload", ["chain", "reduce"])
def test_sums_of_runs_build_no_tree(counts, workload):
    lines = _job_lines(workload)
    assert len(lines) > 100
    for line in lines:
        parse_poly(line)
    assert counts == {"_Parser": 0, "normalize": 0, "reduce_word": 0}


def test_normalize_texts_take_the_tree(counts):
    lines = _job_lines("identity")
    assert len(lines) == 12
    for line in lines:
        parse_poly(line)
    assert counts["_Parser"] == len(lines) and counts["normalize"] > 0
