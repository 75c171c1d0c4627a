"""Benchmark of the m2sl2 command line, one workload per process.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30] [--record FILE]
    python3 perfbench/run.py --self-test --workload chain
    python3 perfbench/run.py --make-golden

Run from the repository root.  One closed-loop client in one process calls
`m2sl2.cli.main` with the argv a user would type, stdout captured, one job
after another; inputs come from `workloads.py` and `--seed`.  With
`--trace 0` whole passes over the job list run for about `--seconds` (the
pass count is `--seconds` over the workload's nominal pass time); each job's
latency is its fastest run, scaled to a reference machine speed, and the
end-to-end metrics are printed.  With `--trace 1` one untraced pass and one
traced pass run over the job list, and the per-layer metrics of the traced
pass are printed with the tracing overhead.  Answers are checked
after the timed region; the last stdout line is the JSON result.  `--all`
runs every workload in its own process, checks that nothing outside
perfbench/ was written, and exits nonzero when any error ratio is above 0.
"""

import sys

# Before any import of our own or of the package: a run writes no bytecode,
# so it leaves no file outside perfbench/ and every set-up compiles alike.
sys.dont_write_bytecode = True

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# The speed of the 2-vCPU virtual machine this was built on drifts by 20-75%
# over seconds to minutes: a fixed loop took 5.1 ms in one run and 8.9 ms in
# the next.  So each timing is scaled to a reference speed, at which the
# calibration kernel below takes REF_KERNEL_S; the kernel is timed right
# before each job and after each set-up.  Over ten seeds this brought the
# spread (IQR / median) of chain's timings from 0.26-0.32 down to 0.05-0.06.
REF_KERNEL_S = 0.002
SELF_TEST_JOBS = 6
OUT_DIR = BENCH_DIR / "out"


def load_package():
    """Import m2sl2 afresh (dropping any loaded copy) and return m2sl2.cli."""
    for name in [n for n in sys.modules if n == "m2sl2" or n.startswith("m2sl2.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("m2sl2.cli")


def materialize(jobs, work_dir: Path):
    """Write the jobs' files; return (job, argv) with file names made paths."""
    plan = []
    for job in jobs:
        paths = {}
        for name, text in job.files:
            path = work_dir / name
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        plan.append((job, [paths.get(a, a) for a in job.argv]))
    return plan


def _kernel() -> int:
    acc: dict = {}
    for i in range(5000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 3
    return len(acc)


def speed_factor() -> float:
    """REF_KERNEL_S over the kernel's current time (best of two)."""
    best = float("inf")
    for _ in range(2):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return REF_KERNEL_S / best


def run_job(main, argv):
    """One CLI call with stdout and stderr captured: (exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def setup(workload: str, seed: int, work_dir: Path):
    """Import, generate and write the inputs, run one warm-up job.

    Returns (cli, plan, seconds at reference speed).
    """
    t0 = perf_counter()
    cli = load_package()
    plan = materialize(workloads.build(workload, seed), work_dir)
    [(_, argv)] = materialize([workloads.warmup_job(workload)], work_dir)
    run_job(cli.main, argv)
    return cli, plan, (perf_counter() - t0) * speed_factor()


def run_pass(cli, plan):
    """Every job once, in order: ([(job, rc, stdout, seconds)], wall seconds)."""
    main = cli.main  # read now: the traced pass runs the wrapped entry point
    records = []
    t0 = perf_counter()
    for job, argv in plan:
        t = perf_counter()
        rc, out = run_job(main, argv)
        records.append((job, rc, out, perf_counter() - t))
    return records, perf_counter() - t0


def timed_loop(cli, plan, passes: int):
    """`passes` whole passes over the job list, each job's time at reference
    speed: (records, wall seconds, raw job seconds)."""
    main = cli.main
    records = []
    raw = 0.0
    t0 = perf_counter()
    for _ in range(passes):
        for job, argv in plan:
            factor = speed_factor()
            t = perf_counter()
            rc, out = run_job(main, argv)
            dt = perf_counter() - t
            raw += dt
            records.append((job, rc, out, dt * factor))
    return records, perf_counter() - t0, raw


def verify(records, golden):
    """Check every answer: (failed count, first few reasons)."""
    failed, reasons = 0, []
    for job, rc, out, _ in records:
        why = checks.check(job, rc, out, golden)
        if why is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{job.kind} {job.key}: {why}")
    return failed, reasons


def checker_rejects_corruption(records, golden) -> bool:
    job, rc, out, _ = records[0]
    return checks.check(job, rc, checks.corrupt(job, out), golden) is not None


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def emit(workload, seed, trace, correct, attempted, failed, rows) -> None:
    """Print `rows` (name -> (value, unit, samples)) as a table, then the JSON result."""
    print(f"workload {workload}  seed {seed}  trace {trace}  attempted {attempted}  "
          f"failed {failed}  error_ratio {failed / attempted:.4g}")
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit:6s} n={samples}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    golden = checks.load_golden()
    work_dir = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, plan, dt = setup(workload, seed, work_dir)
            setups.append(dt)
        if trace:
            records, wall_plain = run_pass(cli, plan)
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            try:
                traced, wall_traced = run_pass(cli, plan)
            finally:
                tracer.restore()
            records += traced
            rows = tracing.per_layer(tracer)
            rows["trace.overhead_ratio"] = (wall_traced / wall_plain - 1, "ratio", len(plan))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{workload}")
        else:
            # A fixed pass count, not a deadline, so that every run of a
            # workload times each job equally often; a job's latency is its
            # fastest run, which drops the short slow spells the speed
            # calibration misses.
            passes = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
            records, elapsed, raw = timed_loop(cli, plan, passes)
            best: dict[str, float] = {}
            for job, _, _, dt in records:
                best[job.key] = min(dt, best.get(job.key, dt))
            lat = sorted(best.values())
            n = len(lat)
            print(f"{len(records)} jobs in {passes} passes, {elapsed:.3f} s wall, "
                  f"{raw:.3f} s in jobs at observed speed, "
                  f"{sum(r[3] for r in records):.3f} s at reference speed")
            rows = {
                "jobs_per_s": (n / sum(lat), "1/s", n),
                "job_ms_p50": (statistics.median(lat) * 1e3, "ms", n),
                "job_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms", n),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
                "setup_s": (statistics.median(setups), "s", len(setups)),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed, reasons = verify(records, golden)
    for why in reasons:
        print(f"wrong answer: {why}")
    guard = checker_rejects_corruption(records, golden)
    if not guard:
        print("checker accepted a corrupted answer")
    correct = failed == 0 and guard
    emit(workload, seed, trace, correct, len(records), failed, rows)
    return 0 if correct else 1


def self_test(workload: str, seed: int) -> int:
    """Feed one corrupted answer through the checks; pass when exactly it is counted."""
    golden = checks.load_golden()
    work_dir = BENCH_DIR / ".work" / f"selftest-{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cli, plan, _ = setup(workload, seed, work_dir)
        records, _ = run_pass(cli, plan[:SELF_TEST_JOBS])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    job, rc, out, dt = records[0]
    records[0] = (job, rc, checks.corrupt(job, out), dt)
    failed, reasons = verify(records, golden)
    ok = failed == 1 and bool(reasons) and reasons[0].startswith(f"{job.kind} {job.key}:")
    print(f"self-test {workload}: attempted {len(records)} failed {failed} "
          f"error_ratio {failed / len(records):.4g} "
          f"({'corrupted answer counted' if ok else 'CORRUPTED ANSWER NOT COUNTED'})")
    return 0 if ok else 1


def make_golden() -> int:
    """Record the stdout digest of every pooled input.  Run at the seed commit only."""
    cli = load_package()
    work_dir = BENCH_DIR / ".work" / f"golden-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        for job, argv in materialize(workloads.golden_pool(), work_dir):
            rc, out = run_job(cli.main, argv)
            if rc != 0:
                print(f"{job.kind} {job.key}: exit status {rc}", file=sys.stderr)
                return 1
            if golden.setdefault(job.key, checks.digest(out)) != checks.digest(out):
                print(f"input key collision at {job.key}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {len(golden)} digests to {checks.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


def _snapshot() -> dict:
    """(size, mtime) of every file outside perfbench/ and .git/."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in (BENCH_DIR, ROOT / ".git")]
        for f in filenames:
            st = os.stat(os.path.join(dirpath, f))
            snap[os.path.join(dirpath, f)] = (st.st_size, st.st_mtime_ns)
    return snap


def run_all(seed: int, seconds: float, record: str | None) -> int:
    before = _snapshot()
    bad = []
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                bad.append(f"{workload} trace {trace}: exit status {proc.returncode}")
                continue
            res = json.loads(lines[-1])
            results[f"{workload}/trace{trace}"] = res
            ratio = res["failed"] / res["attempted"]
            if ratio > 0 or not res["correct"]:
                bad.append(f"{workload} trace {trace}: error_ratio {ratio:.4g}")
        proc = subprocess.run([sys.executable, "-B", str(Path(__file__).resolve()), "--self-test",
                               "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            bad.append(f"{workload}: self-test did not count the corrupted answer")
    after = _snapshot()
    written = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
    for path in written:
        bad.append(f"file written outside perfbench/: {os.path.relpath(path, ROOT)}")
    if record:
        Path(record).write_text(json.dumps({"seed": seed, "seconds": seconds, "results": results},
                                           indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for line in bad:
        print(f"FAIL {line}")
    print("all workloads correct" if not bad else f"{len(bad)} failure(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    ap.add_argument("--record", help="with --all: also write the results to this JSON file")
    ap.add_argument("--self-test", action="store_true",
                    help="check that one corrupted answer is counted as an error")
    ap.add_argument("--make-golden", action="store_true",
                    help="rewrite golden.json from the current package (seed commit only)")
    args = ap.parse_args(argv)
    if not (SRC / "m2sl2" / "__init__.py").is_file():
        print(f"error: no m2sl2 package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.make_golden:
        return make_golden()
    if args.all:
        return run_all(args.seed, args.seconds, args.record)
    if args.workload is None:
        ap.error("--workload is required")
    if args.self_test:
        return self_test(args.workload, args.seed)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
