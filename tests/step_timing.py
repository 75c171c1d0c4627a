"""Interleaved timing of the front end, the reduction loop and the command
line, in process on the benchmark's seed-1 jobs and one fresh process per
command on fixed inputs, for this tree against a second checkout.

    python tests/step_timing.py --parent PATH [--write PATH]

The jobs are built by this tree's `perfbench/workloads.py`, so both trees
run the same inputs.  Each round times both trees, each in a fresh child
interpreter, and the order of the two trees alternates from round to
round.  A child prepares every item of a batch and runs it once, untimed;
then, five times, it prepares every item afresh, untimed, times one pass
over them, and keeps the least pass.

First the front end, the `parse` group, on lines:
- `chain`: every line of the seed-1 `chain` jobs' stream files, through
  parse_poly;
- `reduce`: each seed-1 `reduce` job's polynomial, then the three lines of
  its generator file, which `reduce` parses on every job, through
  parse_poly;
- `identity`: the texts of the seed-1 `identity` jobs that read one
  (`is-identity` and `normalize`), through parse alone: their brackets and
  powers cost far more to evaluate than to parse.  The texts parse in about
  1.5 ms, too short to resolve a 2% difference, so the batch is the same
  texts repeated IDENTITY_REPEAT times, about 20 ms a pass.

Then, in children of their own, the reduction loop, the `step` group.  Each
job is read as a list of polynomial texts: a `reduce` job is its polynomial
followed by the lines of its generator file, a `chain` job the lines of its
stream file.  A child parses every job afresh before each pass, untimed, so
every pass starts from freshly parsed polynomials as a job of the benchmark
does:
- `reduce` calls reduce_by with no trace, as the reduce command does
  without --trace;
- `traced` passes a fresh trace list, so each step also builds its record
  from the factorization that `_factor` reads off the witness;
- `chain` calls chain_demo on the stream, whose items each go through the
  same reduction loop against the generators adjoined so far.

Then, in children of their own, the `builders` group: the two builders
every remainder term passes through, on the terms of each seed-1 `reduce`
job's remainder.  A child reduces each job once and keeps the remainder;
prepare makes fresh copies of its monomials, untimed, through the
validating constructor, so each pass reads objects no earlier pass touched
(a monomial keeps no embedding data, so a copy also times a tree that kept
it):
- `_embedding` builds each term's embedding data, as the reduction loop
  does for every monomial it pops;
- `format_terms` prints the remainder as the reduce command does.

Then, in children of their own, the `identity` group: the seed-1
`identity` jobs, one batch per job kind, each job a one-item list
untouched by prepare, so its parse is timed as the command runs it:
- `is-identity` folds each text's parse tree over generic first rows,
  `_tree_row(parse(text))`, as is-identity does before it tests for zero;
- `normalize` reads each text through parse_poly;
- `independence` runs independence_report(5, 3) and (6, 3), the seed-1
  `independence` jobs;
- `scaling` runs the larger cases the ROADMAP's north star names, past
  the benchmark's: independence_report(7, 4), then `_tree_row(parse(text))`
  on "(y1+z1+z2)^k" for k = 8, 10 and 12 (SCALING).

Last, in children of their own, the `cli` group: the seed-1 `reduce` and
`chain` jobs through the command line, cli.main on each job's argv with
stdout discarded, so the parse, the output and, for a trace, the file are
timed with the step.  A child writes each job's generator or stream file to
a temporary directory in prepare, untimed, and reads the job's argv with
its file names pointing there:
- `reduce` prints the remainder as text;
- `reduce --json` prints it with the trace, as JSON;
- `reduce --trace FILE` prints the text and writes the trace to a file in
  the same directory;
- `chain-demo FILE` reads the stream file, grows the chain and prints a
  line per adjoined generator, the whole path of a `chain` job.

Then the `fresh` group, which shares no process: each of the nine
subcommands on one fixed small input (FRESH; `pwos-min` reads a file
written to a temporary directory), run as `python -m m2sl2.cli ...` in a
child of its own with stdout discarded, so a batch times what a user pays
for one command, the interpreter's start and the package's import
included.  Each tree's children read its bytecode from a cache directory
of its own (PYTHONPYCACHEPREFIX), written by one untimed run of every
command, and each round runs every command once per tree, the order of the
trees alternating as above.

The script prints, per batch, the least time of each tree over the rounds
and their ratio, this tree over the parent, then the quartiles of the
per-round ratio and the rounds this tree won.  It only prints and writes;
it is no gate.

With --write PATH it also writes those figures, and each round's times, as
one entry per batch of a JSON object in PATH, named by its group and batch
("step chain", "cli reduce", ...), keeping the entries already there.  Each
entry records the Python version, the CPU count, and the commit of each
tree that is a git checkout, read before the runs, with whether its
tracked files other than PATH differed from that commit (bench_pairs.py's
commit and write_entry).  The root BENCH_steps.json holds one such set.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, bench_module, commit, file_lines, write_entry

ROUNDS = 15
IDENTITY_REPEAT = 14  # copies of the identity texts in one timed pass

# run in the child: argv[1] is the tree's src directory, stdin the items of
# each batch.  `setup` defines prepare(item), run untimed before every
# pass, and step, which maps each batch to its timed call on a prepared
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


REDUCE = """
from m2sl2.parsing import parse_poly
from m2sl2.reduction import chain_demo, reduce_by

def prepare(texts):
    return [parse_poly(t) for t in texts]

step = {"reduce": lambda job: reduce_by(job[0], job[1:]),
        "traced": lambda job: reduce_by(job[0], job[1:], trace=[]),
        "chain": chain_demo}
"""


BUILDERS = """
from m2sl2.cli import format_terms
from m2sl2.freealg import CanonicalMonomial
from m2sl2.parsing import parse_poly
from m2sl2.reduction import reduce_by

_remainders = {}

def prepare(texts):
    key = tuple(texts)
    if key not in _remainders:
        f, *gens = [parse_poly(t) for t in texts]
        _remainders[key] = list(reduce_by(f, gens).terms.items())
    return [(CanonicalMonomial(m.yexp, m.cseq, m.dseq), c) for m, c in _remainders[key]]

def embed(items):
    for m, _ in items:
        m._embedding()

step = {"_embedding": embed, "format_terms": format_terms}
"""


IDENTITY = """
from m2sl2.genmat import _tree_row, independence_report
from m2sl2.parsing import parse, parse_poly

prepare = tuple

def scaling(job):  # the caps of an independence report, or a text
    return independence_report(*job) if isinstance(job[0], int) else _tree_row(parse(job[0]))

step = {"is-identity": lambda job: _tree_row(parse(job[0])),
        "normalize": lambda job: parse_poly(job[0]),
        "independence": lambda job: independence_report(*job),
        "scaling": scaling}
"""

# the `identity` group's `scaling` batch: caps of one independence report, then texts
SCALING = [[7, 4], *([f"(y1+z1+z2)^{k}"] for k in (8, 10, 12))]


CLI = """
import contextlib, io, os, tempfile
from m2sl2.cli import main

_dir = tempfile.TemporaryDirectory()  # removed when the child exits
TRACE = os.path.join(_dir.name, "trace.json")

def prepare(job):
    argv, files = job
    for name, text in files:
        with open(os.path.join(_dir.name, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    names = {name for name, _ in files}
    return [os.path.join(_dir.name, a) if a in names else a for a in argv]

def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0

step = {"reduce": cli,
        "reduce --json": lambda argv: cli(argv + ["--json"]),
        "reduce --trace FILE": lambda argv: cli(argv + ["--trace", TRACE]),
        "chain-demo FILE": cli}
"""


def groups() -> dict[str, tuple[dict[str, list], str, str]]:
    """Each group's batches, the setup of its child, and what its items are."""
    workloads = bench_module("workloads")
    reduce, chain, identity = (workloads.build(w, 1) for w in ("reduce", "chain", "identity"))
    reduce_texts = [[job.argv[1], *file_lines(job)] for job in reduce]
    chain_texts = [file_lines(job) for job in chain]
    kinds: dict[str, list] = {"is-identity": [], "normalize": [], "independence": [],
                              "scaling": SCALING}
    for job in identity:  # the text of a job, or the caps of an independence job
        argv = job.argv
        kinds[argv[0]].append([int(argv[argv.index(flag) + 1]) for flag in ("--degree", "--indices")]
                              if argv[0] == "independence" else [argv[1]])
    texts = [job.argv[1] for job in identity if job.argv[0] in ("is-identity", "normalize")]
    cli = [[job.argv, job.files] for job in reduce]
    return {
        "parse": ({"chain": [t for job in chain_texts for t in job],
                   "reduce": [t for job in reduce_texts for t in job],
                   "identity": texts * IDENTITY_REPEAT}, PARSE, "lines"),
        "step": ({"reduce": reduce_texts, "traced": reduce_texts, "chain": chain_texts},
                 REDUCE, "jobs"),
        "builders": ({"_embedding": reduce_texts, "format_terms": reduce_texts}, BUILDERS, "jobs"),
        "identity": (kinds, IDENTITY, "jobs"),
        "cli": ({"reduce": cli, "reduce --json": cli, "reduce --trace FILE": cli,
                 "chain-demo FILE": [[job.argv, job.files] for job in chain]}, CLI, "jobs"),
    }


# the `fresh` group: each subcommand on a fixed small input; FILE is pwos-min's file
FRESH = {"normalize": ["y1"], "is-identity": ["[y1,z1]*z2"], "compare": ["y1*z1", "y2"],
         "embed": ["y1*z1", "y1^2*y2*z2*z3"], "factor": ["y1*z1", "y1^2*y2*z2"], "reduce": ["3*y1"],
         "chain-demo": ["--degree", "3", "--indices", "2"],
         "independence": ["--degree", "3", "--indices", "2"], "pwos-min": ["FILE"]}
PWOS_MIN_FILE = "y1^2\ny1*y2\nz1\ny1*z1\n"


def fresh_argvs(directory: str) -> dict[str, list[str]]:
    """The argv of each `fresh` command, with pwos-min's file written to
    `directory`."""
    path = os.path.join(directory, "pwos-min.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PWOS_MIN_FILE)
    return {name: [name, *[path if a == "FILE" else a for a in args]] for name, args in FRESH.items()}


def time_tree(src: Path, payload: str, setup: str) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-B", "-c", CHILD.format(setup=setup), str(src)],
                          input=payload, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def trees(parent: Path) -> dict[str, Path]:
    return {"change": ROOT / "src", "parent": parent.resolve() / "src"}


def rounds() -> list[tuple[str, str]]:
    """The order of the two trees in each round."""
    return [("change", "parent") if r % 2 else ("parent", "change") for r in range(ROUNDS)]


def compare(group: str, items: dict[str, list], setup: str, unit: str,
            parent: Path) -> dict[str, dict]:
    """Time `setup`'s step on the items in this tree and the checkout at
    `parent` for ROUNDS alternating rounds; summarize."""
    payload = json.dumps(items)
    src = trees(parent)
    times = {tree: {name: [] for name in items} for tree in src}  # one entry per round
    for order in rounds():
        for tree in order:
            for name, seconds in time_tree(src[tree], payload, setup).items():
                times[tree][name].append(seconds * 1e3)
    return summarize(group, {name: len(batch) for name, batch in items.items()}, unit, times)


def compare_fresh(parent: Path) -> dict[str, dict]:
    """Time each `fresh` command as a child of its own in this tree and the
    checkout at `parent` for ROUNDS alternating rounds, after one untimed
    run of each in each tree; summarize."""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = fresh_argvs(tmp)
        # the untimed runs must write each tree's bytecode cache
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        envs = {tree: {**env, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": os.path.join(tmp, tree)}
                for tree, src in trees(parent).items()}

        def run(tree: str, argv: list[str]) -> float:
            t = time.perf_counter()
            subprocess.run([sys.executable, "-m", "m2sl2.cli", *argv], env=envs[tree],
                           stdout=subprocess.DEVNULL, check=True)
            return (time.perf_counter() - t) * 1e3

        for tree in envs:  # writes each tree's bytecode cache
            for argv in argvs.values():
                run(tree, argv)
        times = {tree: {name: [] for name in argvs} for tree in envs}  # one entry per round
        for order in rounds():
            for tree in order:
                for name, argv in argvs.items():
                    times[tree][name].append(run(tree, argv))
    return summarize("fresh", dict.fromkeys(argvs, 1), "command", times)


def summarize(group: str, sizes: dict[str, int], unit: str, times: dict) -> dict[str, dict]:
    """Print, per batch, the least times over the rounds and their ratio,
    with the quartiles of the per-round ratio and the rounds won, and return
    those figures, with each round's times, per batch, named by the group
    and the batch.  `times` holds each tree's times in ms, per batch and
    round."""
    width = len(group) + 1 + max(map(len, sizes))
    figures = {}
    for name, size in sizes.items():
        parent_ms, change_ms = min(times["parent"][name]), min(times["change"][name])
        ratios = [c / p for c, p in zip(times["change"][name], times["parent"][name])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        won = sum(x < 1 for x in ratios)
        entry = f"{group} {name}"
        print(f"{entry:{width}} {size:5} {unit}  parent {parent_ms:8.2f} ms  change {change_ms:8.2f} ms"
              f"  ratio {change_ms / parent_ms:.3f}  (min of {ROUNDS} rounds)"
              f"  per-round ratio quartiles {q1:.3f} {median:.3f} {q3:.3f}, won {won}/{ROUNDS}")
        figures[entry] = {unit: size, "parent_ms": parent_ms, "change_ms": change_ms,
                          "ratio": change_ms / parent_ms, "per_round_ratio_quartiles": [q1, median, q3],
                          "won": won, "rounds": ROUNDS,
                          "runs_ms": {tree: times[tree][name] for tree in ("parent", "change")}}
    return figures


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the other checkout")
    ap.add_argument("--write", type=Path, metavar="PATH",
                    help="also write each batch's figures as its entry of this JSON file")
    args = ap.parse_args(argv)
    commits = {"parent": commit(args.parent.resolve(), args.write),
               "change": commit(ROOT, args.write)}  # as measured, read before the runs
    figures = {name: figure for group, (items, setup, unit) in groups().items()
               for name, figure in compare(group, items, setup, unit, args.parent).items()}
    figures.update(compare_fresh(args.parent))
    if args.write:
        for name, figure in figures.items():
            write_entry(args.write, name, {**figure, "commits": commits,
                                           "python": platform.python_version(),
                                           "cpus": os.cpu_count()})


if __name__ == "__main__":
    main()
