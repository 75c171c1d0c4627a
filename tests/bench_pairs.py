"""Alternating benchmark runs of this tree and a second checkout.

    python tests/bench_pairs.py --parent PATH --workload W --seeds A-B [--seconds 30]
                                [--write FILE]

For each seed from A to B, one pair of runs of
`perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0`, each
tree running its own `perfbench/` from its own root in a fresh interpreter.
On an even seed the parent runs first, on an odd one this tree does, so
neither tree always runs on a host that has just warmed up.  Each run gets
a fresh, empty PYTHONPYCACHEPREFIX, so it reads no bytecode that an earlier
run or test left in either tree (`-B` stops Python writing bytecode, not
reading it) and both trees compile every module they import alike.

Each run's last stdout line is its JSON result.  The script prints, for
each end-to-end metric that this tree's BENCHMARK.json lists, the median of
each tree over the seeds, their ratio (this tree over the parent), the
pairs this tree read better in the metric's direction, and the
interquartile range of the parent's runs, which a median gain must exceed
to stand out from the parent's own spread.  It exits non-zero when any run
failed, read incorrect, or counted a failed job.  It only prints the
ratios; it is no gate on them.

With --write FILE it also writes those figures, and each run's values, as
the workload's entry of a JSON object in FILE, keeping the entries of other
workloads already there.  The entry records the seeds, --seconds, the
Python version, the CPU count, and the commit of each tree that is a git
checkout, read before the runs, with whether its tracked files other than
FILE differed from that commit.  The root
BENCH_e2e.json holds one such entry per workload.

`peak_rss_mib` steps by about 0.45 MiB with the length of a checkout's path
alone, so the two trees' resolved paths must be of equal length for the
figures to compare: when they are not, the script prints a warning, and
with --write it refuses to run at all.

The other scripts and tests in tests/ read the benchmark's modules through
bench_module, and the lines of a job's files through file_lines.
"""

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"


def bench_module(name: str):
    """A module of this tree's perfbench/, imported by bare name, as
    perfbench/run.py imports it, so its modules import each other alike and
    are loaded once.  The import writes no bytecode under perfbench/, and
    leaves sys.path and sys.dont_write_bytecode as they were."""
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))
        sys.dont_write_bytecode = write_bytecode


def file_lines(job) -> list[str]:
    """The nonblank lines of a job's files."""
    return [line for _, text in job.files for line in text.splitlines() if line.strip()]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in `tree`: its JSON result, or None when the run
    crashed or printed none."""
    with tempfile.TemporaryDirectory() as cache:
        done = subprocess.run(
            [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONPYCACHEPREFIX": cache})
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        return None


def commit(tree: Path, written: Path | None) -> dict | None:
    """The commit a tree is checked out at, and whether its tracked files,
    other than the file `written`, differ from it; None when the tree is
    not the root of a git checkout."""
    def git(*argv) -> str | None:
        done = subprocess.run(["git", "-C", str(tree), *argv], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(tree):
        return None
    changed = {(tree / name).resolve() for name in git("diff", "--name-only", "HEAD").splitlines()}
    changed.discard(written and written.resolve())
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(changed)}


def write_entry(path: Path, workload: str, entry: dict) -> None:
    """Set the workload's entry of the JSON object in `path`, keeping the
    others."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the other checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--write", type=Path, metavar="FILE",
                    help="also write the figures as the workload's entry of this JSON file")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    lengths = [len(str(path)) for path in trees.values()]
    if lengths[0] != lengths[1]:
        msg = (f"the checkouts' paths differ in length ({lengths[0]} and {lengths[1]} characters),"
               " which moves peak_rss_mib by itself")
        if args.write:
            ap.error(msg + "; --write needs paths of equal length")
        print("warning: " + msg, file=sys.stderr)
    commits = {tree: commit(path, args.write) for tree, path in trees.items()}  # as measured
    results: dict[str, list] = {"parent": [], "change": []}
    bad = []
    for seed in args.seeds:
        for tree in (("parent", "change") if seed % 2 == 0 else ("change", "parent")):
            res = run(trees[tree], args.workload, seed, args.seconds)
            if res is None or not res["correct"] or res["failed"]:
                bad.append(f"{tree} seed {seed}: "
                           + ("no result" if res is None else f"{res['failed']} failed jobs"))
                continue
            results[tree].append((seed, {k: v["value"] for k, v in res["metrics"].items()}))
            print(f"seed {seed} {tree:6} " + "  ".join(
                f"{m['name']} {results[tree][-1][1][m['name']]:.6g}" for m in metrics), flush=True)
    for line in bad:
        print(f"FAIL {line}")
    if bad:
        return 1
    print(f"{args.workload}, {len(args.seeds)} pairs: parent median -> change median (ratio), "
          "pairs the change read better, parent IQR")
    figures = {}
    for metric in metrics:
        name = metric["name"]
        parent = [m[name] for _, m in results["parent"]]
        change = [m[name] for _, m in results["change"]]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p50, c50 = statistics.median(parent), statistics.median(change)
        print(f"  {name:14} {p50:10.5g} -> {c50:10.5g} {metric['unit']:4} (x{c50 / p50:.3f})"
              f"  won {won}/{len(parent)}  parent IQR {iqr(parent):.4g}")
        figures[name] = {"unit": metric["unit"], "better": metric["better"], "parent_median": p50,
                         "change_median": c50, "ratio": c50 / p50, "won": won,
                         "pairs": len(parent), "parent_iqr": iqr(parent)}
    if args.write:
        write_entry(args.write, args.workload, {
            "seeds": [args.seeds.start, args.seeds.stop - 1], "seconds": args.seconds,
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "commits": commits,
            "metrics": figures, "runs": results})
    return 0


if __name__ == "__main__":
    sys.exit(main())
