"""Interleaved in-process timing of the reduction loop on the benchmark's
seed-1 `reduce` and `chain` jobs, and of the seed-1 `identity` jobs, for
this tree against a second checkout.

    python tests/step_timing.py --parent PATH [--write PATH]

Each job is read as a list of polynomial texts, built by this tree's
`perfbench/workloads.py`, so both trees run the same inputs: a `reduce` job
is its polynomial followed by the lines of its generator file, a `chain`
job the lines of its stream file.  The child and the rounds are those of
tests/front_end_timing.py: each round times both trees, each in a fresh
child interpreter, in alternating order.  A child parses every job afresh
before each pass, untimed, so every pass starts from freshly parsed
polynomials as a job of the benchmark does; it runs one untimed pass,
then times five and keeps the least.  Three batches are timed:
- `reduce` calls reduce_by with no trace, as the reduce command does
  without --trace;
- `traced` passes a fresh trace list, so each step also builds its record
  from the factorization that `_factor` reads off the witness;
- `chain` calls chain_demo on the stream, whose items each go through the
  same reduction loop against the generators adjoined so far.

Then, in children of their own, the two builders every remainder term
passes through, on the terms of each seed-1 `reduce` job's remainder.  A
child reduces each job once and keeps the remainder; prepare makes fresh
copies of its monomials, untimed, through the validating constructor, so
each pass reads objects no earlier pass touched (a monomial keeps no
embedding data, so a copy also times a tree that kept it):
- `_embedding` builds each term's embedding data, as the reduction loop
  does for every monomial it pops;
- `format_terms` prints the remainder as the reduce command does.

Then, in children of their own, the seed-1 `identity` jobs, one batch per
job kind, each job a one-item list untouched by prepare, so its parse is
timed as the command runs it:
- `is-identity` folds each text's parse tree over generic first rows,
  `_tree_row(parse(text))`, as is-identity does before it tests for zero;
- `normalize` reads each text through parse_poly;
- `independence` runs independence_report(5, 3) and (6, 3), the seed-1
  `independence` jobs.

Last, in children of their own, the seed-1 `reduce` and `chain` jobs
through the command line, cli.main on each job's argv with stdout
discarded, so the parse, the output and, for a trace, the file are timed
with the step.  A child writes each job's generator or stream file to a
temporary directory in prepare, untimed, and reads the job's argv with its
file names pointing there:
- `reduce` prints the remainder as text;
- `reduce --json` prints it with the trace, as JSON;
- `reduce --trace FILE` prints the text and writes the trace to a file in
  the same directory;
- `chain-demo FILE` reads the stream file, grows the chain and prints a
  line per adjoined generator, the whole path of a `chain` job.

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

import os
import platform
from pathlib import Path

from bench_pairs import commit, write_entry
from front_end_timing import ROOT, compare, parser, seed1_jobs

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
step = {"is-identity": lambda job: _tree_row(parse(job[0])),
        "normalize": lambda job: parse_poly(job[0]),
        "independence": lambda job: independence_report(*job)}
"""


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


def step_jobs() -> dict[str, list]:
    """Each seed-1 job of a batch as its list of polynomial texts."""
    def lines(job) -> list[str]:
        (_, text), = job.files
        return [line for line in text.splitlines() if line.strip()]

    reduce = [[job.argv[1]] + lines(job) for job in seed1_jobs("reduce")]
    chain = [lines(job) for job in seed1_jobs("chain")]
    return {"reduce": reduce, "traced": reduce, "chain": chain}


def identity_jobs() -> dict[str, list]:
    """Each seed-1 `identity` job of a kind as its argument list: the text
    of an is-identity or normalize job, the caps of an independence job."""
    out: dict[str, list] = {"is-identity": [], "normalize": [], "independence": []}
    for job in seed1_jobs("identity"):
        kind = job.argv[0]
        if kind == "independence":
            argv = job.argv
            out[kind].append([int(argv[argv.index(flag) + 1]) for flag in ("--degree", "--indices")])
        else:
            out[kind].append([job.argv[1]])
    return out


def cli_jobs() -> dict[str, list]:
    """Each seed-1 `reduce` job as [argv, files], once per command form,
    then each seed-1 `chain` job."""
    def jobs(workload: str) -> list:
        return [[list(job.argv), [list(f) for f in job.files]] for job in seed1_jobs(workload)]

    reduce = jobs("reduce")
    return {"reduce": reduce, "reduce --json": reduce, "reduce --trace FILE": reduce,
            "chain-demo FILE": jobs("chain")}


def main(argv=None) -> None:
    ap = parser(__doc__)
    ap.add_argument("--write", type=Path, metavar="PATH",
                    help="also write each batch's figures as its entry of this JSON file")
    args = ap.parse_args(argv)
    commits = {"parent": commit(args.parent.resolve(), args.write),
               "change": commit(ROOT, args.write)}  # as measured, read before the runs
    steps = step_jobs()
    reduce = steps["reduce"]
    groups = {"step": (steps, REDUCE),
              "builders": ({"_embedding": reduce, "format_terms": reduce}, BUILDERS),
              "identity": (identity_jobs(), IDENTITY),
              "cli": (cli_jobs(), CLI)}
    figures = {f"{group} {name}": figure for group, (items, setup) in groups.items()
               for name, figure in compare(items, setup, "jobs", args.parent).items()}
    if args.write:
        for name, figure in figures.items():
            write_entry(args.write, name, {**figure, "commits": commits,
                                           "python": platform.python_version(),
                                           "cpus": os.cpu_count()})


if __name__ == "__main__":
    main()
