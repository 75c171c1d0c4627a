"""tests/bench_pairs.py refuses to write figures from checkouts whose paths
differ in length, since the path alone moves peak_rss_mib.  Its reader of
the benchmark's modules leaves the interpreter and perfbench/ as they were,
and tests/step_timing.py builds the batches it times from them, and runs
each subcommand in its `fresh` group."""

import json
import subprocess
import sys

import pytest

from m2sl2.cli import main
from tests import bench_pairs, step_timing

# run in a fresh interpreter that writes bytecode, so the import is the
# reader's own: argv[1] is the tests directory
READ = """
import sys
sys.dont_write_bytecode, sys.pycache_prefix = False, None
sys.path.insert(0, sys.argv[1])
from bench_pairs import bench_module
before = list(sys.path)
for name in ("workloads", "checks", "tracing", "workloads"):
    bench_module(name)
assert sys.path == before, sys.path
assert sys.dont_write_bytecode is False
"""


def test_write_refused_for_paths_of_unequal_length(monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "run", lambda *args: runs.append(args))
    parent = tmp_path / "p"
    while len(str(parent)) == len(str(bench_pairs.ROOT)):
        parent = parent / "p"
    parent.mkdir(parents=True)
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--workload", "reduce", "--seeds", "1-1", "--write", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "paths of equal length" in capsys.readouterr().err
    assert runs == [] and not out.exists()

    # without --write the pairs run, after a warning
    assert bench_pairs.main(argv[:-2]) == 1  # the stub runs print no result
    assert "warning: the checkouts' paths differ in length" in capsys.readouterr().err
    assert len(runs) == 2


def test_equal_paths_pass_the_check(monkeypatch, tmp_path, capsys):
    # CI pairs the tree with itself (--parent .), whose paths are equal
    monkeypatch.setattr(bench_pairs, "run", lambda *args: None)
    out = tmp_path / "out.json"
    argv = ["--parent", str(bench_pairs.ROOT), "--workload", "reduce", "--seeds", "1-1",
            "--write", str(out)]
    assert bench_pairs.main(argv) == 1  # the stub runs print no result
    assert "warning" not in capsys.readouterr().err
    assert not out.exists()


def test_reader_leaves_path_flag_and_benchmark_as_they_were():
    subprocess.run([sys.executable, "-c", READ, str(bench_pairs.ROOT / "tests")], check=True)
    assert not list(bench_pairs.BENCH_DIR.rglob("__pycache__"))


def test_step_timing_batches_build_without_a_child():
    groups = step_timing.groups()
    for group, (batches, setup, _) in groups.items():
        compile(step_timing.CHILD.format(setup=setup), group, "exec")
        json.dumps(batches)  # the payload a child reads
    assert {group: (unit, {name: len(items) for name, items in batches.items()})
            for group, (batches, _, unit) in groups.items()} == {
        "parse": ("lines", {"chain": 3600, "reduce": 136, "identity": 588}),
        "step": ("jobs", {"reduce": 34, "traced": 34, "chain": 30}),
        "builders": ("jobs", {"_embedding": 34, "format_terms": 34}),
        "identity": ("jobs", {"is-identity": 30, "normalize": 12, "independence": 2,
                              "scaling": 4}),
        "cli": ("jobs", {"reduce": 34, "reduce --json": 34, "reduce --trace FILE": 34,
                         "chain-demo FILE": 30}),
    }


def test_step_timing_fresh_group_runs_every_subcommand(tmp_path, capsys):
    # one fixed input per subcommand, each of which the command line
    # answers; a fresh child runs the same argv through python -m m2sl2.cli
    argvs = step_timing.fresh_argvs(str(tmp_path))
    assert list(argvs) == ["normalize", "is-identity", "compare", "embed", "factor", "reduce",
                           "chain-demo", "independence", "pwos-min"]
    for name, argv in argvs.items():
        assert argv[0] == name and main(argv) == 0, argv
    assert capsys.readouterr().out.splitlines()[-3:] == ["y1^2", "y1*y2", "z1"]
