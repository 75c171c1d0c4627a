"""tests/bench_pairs.py refuses to write figures from checkouts whose paths
differ in length, since the path alone moves peak_rss_mib."""

import pytest

from tests import bench_pairs


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
