"""Interleaved timing of the front end on the benchmark's job lines, for
this tree against a second checkout.

    python tests/front_end_timing.py --parent PATH

The lines are the expressions of the seed-1 `chain` jobs (every line of their
stream files) and of the seed-1 `reduce` jobs (the polynomial each reduces,
then the three lines of its generator file, which `reduce` parses on every
job), timed through parse_poly, and of the seed-1 `identity` jobs that read one
(`is-identity` and `normalize`), timed through parse alone: their brackets
and powers cost far more to evaluate than to parse.  The `identity` texts
parse in about 1.5 ms, too short to resolve a 2% difference, so its batch is
the same texts repeated IDENTITY_REPEAT times, about 20 ms a pass.  This
tree's `perfbench/workloads.py` builds them, so both trees parse the same
texts.
Each round times both trees, each in a fresh child interpreter that
parses every line once untimed, then times five passes over them and keeps
the least; the order of the two trees alternates from round to round.  The
script prints, per workload, the least time of each tree over the rounds
and their ratio, this tree over the parent.  Next to it, the spread: the
quartiles of the per-round ratio (each round's time of this tree over the
parent's in that round) and the number of rounds this tree was faster, so a
reading can be told from the host's drift.  It only prints; it is no gate.

The child and the rounds are shared: tests/step_timing.py times reduce_by
with them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 15
IDENTITY_REPEAT = 14  # copies of the identity texts in one timed pass

# run in the child: argv[1] is the tree's src directory, stdin the items of
# each workload.  `setup` defines prepare(item), run untimed before every
# pass, and step, which maps each workload to its timed call on a prepared
# item.
CHILD = """
import json, sys, time
PASSES = 5
sys.path.insert(0, sys.argv[1])
{setup}
out = {{}}
for name, items in json.load(sys.stdin).items():
    call = step[name]
    for item in items:
        call(prepare(item))
    best = float("inf")
    for _ in range(PASSES):
        ready = [prepare(item) for item in items]
        t = time.perf_counter()
        for item in ready:
            call(item)
        best = min(best, time.perf_counter() - t)
    out[name] = best
print(json.dumps(out))
"""

PARSE = """
from m2sl2.parsing import parse, parse_poly
prepare, step = str, {"chain": parse_poly, "reduce": parse_poly, "identity": parse}
"""


def job_lines() -> dict[str, list[str]]:
    """The expressions parse_poly reads on a seed-1 pass of each workload,
    and those parse reads on one of `identity`, repeated."""
    chain = [line for job in seed1_jobs("chain") for line in file_lines(job)]
    reduce = [line for job in seed1_jobs("reduce") for line in (job.argv[1], *file_lines(job))]
    identity = [job.argv[1] for job in seed1_jobs("identity")
                if job.argv[0] in ("is-identity", "normalize")] * IDENTITY_REPEAT
    return {"chain": chain, "reduce": reduce, "identity": identity}


def file_lines(job) -> list[str]:
    """The nonblank lines of a job's files."""
    return [line for _, text in job.files for line in text.splitlines() if line.strip()]


def seed1_jobs(workload: str) -> list:
    """The seed-1 jobs of a workload, from this tree's perfbench/workloads.py."""
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads.build(workload, 1)


def time_tree(src: Path, payload: str, setup: str) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-B", "-c", CHILD.format(setup=setup), str(src)],
                          input=payload, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def parser(doc: str) -> argparse.ArgumentParser:
    """The command line of a timing script: --parent, the other checkout."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the other checkout")
    return ap


def compare(items: dict[str, list], setup: str, unit: str, parent: Path) -> dict[str, dict]:
    """Time `setup`'s step on the items in this tree and the checkout at
    `parent` for ROUNDS alternating rounds, print the least times and their
    ratio, with the quartiles of the per-round ratio and the rounds won, and
    return those figures, with each round's times, per batch."""
    payload = json.dumps(items)
    trees = {"change": ROOT / "src", "parent": parent.resolve() / "src"}
    times = {tree: {name: [] for name in items} for tree in trees}  # one entry per round
    for r in range(ROUNDS):
        for tree in (("change", "parent") if r % 2 else ("parent", "change")):
            for name, seconds in time_tree(trees[tree], payload, setup).items():
                times[tree][name].append(seconds * 1e3)
    width = max(map(len, items))
    figures = {}
    for name, batch in items.items():
        parent_ms, change_ms = min(times["parent"][name]), min(times["change"][name])
        ratios = [c / p for c, p in zip(times["change"][name], times["parent"][name])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        won = sum(x < 1 for x in ratios)
        print(f"{name:{width}} {len(batch):5} {unit}  parent {parent_ms:8.2f} ms  change {change_ms:8.2f} ms"
              f"  ratio {change_ms / parent_ms:.3f}  (min of {ROUNDS} rounds)"
              f"  per-round ratio quartiles {q1:.3f} {median:.3f} {q3:.3f}, won {won}/{ROUNDS}")
        figures[name] = {unit: len(batch), "parent_ms": parent_ms, "change_ms": change_ms,
                         "ratio": change_ms / parent_ms, "per_round_ratio_quartiles": [q1, median, q3],
                         "won": won, "rounds": ROUNDS,
                         "runs_ms": {tree: times[tree][name] for tree in ("parent", "change")}}
    return figures


def main(argv=None) -> None:
    compare(job_lines(), PARSE, "lines", parser(__doc__).parse_args(argv).parent)


if __name__ == "__main__":
    main()
