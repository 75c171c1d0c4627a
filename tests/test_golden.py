"""Byte-identical CLI output on the benchmark's golden inputs.

`perfbench/golden.json` holds the stdout digest of every pooled benchmark
input, recorded once.  This replays every `normalize` input and every 4th
`reduce` and `chain-demo` input through `m2sl2.cli.main` in-process and
compares the digests, so a change to any answer fails here as well as in
`perfbench/run.py`.
"""

import contextlib
import io

import pytest

from m2sl2.cli import main
from tests.bench_pairs import bench_module

checks = bench_module("checks")
workloads = bench_module("workloads")

STRIDE = {"normalize": 1, "reduce": 4, "chain-demo": 4}


def _sampled_jobs():
    seen = {kind: 0 for kind in STRIDE}
    out = []
    for job in workloads.golden_pool():
        k = seen[job.kind]
        seen[job.kind] += 1
        if k % STRIDE[job.kind] == 0:
            out.append(job)
    return out


JOBS = _sampled_jobs()
GOLDEN = checks.load_golden()


def test_sample_covers_every_kind():
    counts = {kind: sum(job.kind == kind for job in JOBS) for kind in STRIDE}
    assert counts == {"normalize": 123, "reduce": 101, "chain-demo": 60}, counts


@pytest.mark.parametrize("kind", sorted(STRIDE))
def test_stdout_matches_golden_digest(kind, tmp_path):
    for job in (j for j in JOBS if j.kind == kind):
        paths = {}
        for name, text in job.files:
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([paths.get(a, a) for a in job.argv])
        assert rc == 0, job.argv
        assert checks.digest(out.getvalue()) == GOLDEN[job.key], job.argv
