"""Interleaved in-process timing of the reduction loop on the benchmark's
seed-1 `reduce` and `chain` jobs, for this tree against a second checkout.

    python tests/step_timing.py --parent PATH

Each job is read as a list of polynomial texts, built by this tree's
`perfbench/workloads.py`, so both trees run the same inputs: a `reduce` job
is its polynomial followed by the lines of its generator file, a `chain`
job the lines of its stream file.  The child and the rounds are those of
tests/front_end_timing.py: each round times both trees, each in a fresh
child interpreter, in alternating order.  A child parses every job afresh
before each pass, untimed, so every pass starts from cold monomial and
support caches as a job of the benchmark does; it runs one untimed pass,
then times five and keeps the least.  Three batches are timed:
- `reduce` calls reduce_by with no trace, as the reduce command does
  without --trace;
- `traced` passes a fresh trace list, so each step also builds its record
  from the factorization the lift returns;
- `chain` calls chain_demo on the stream, whose items each go through the
  same reduction loop against the generators adjoined so far.

The script prints, per batch, the least time of each tree over the rounds
and their ratio, this tree over the parent, then the quartiles of the
per-round ratio and the rounds this tree won.  It only prints; it is no
gate.
"""

from front_end_timing import compare, seed1_jobs

REDUCE = """
from m2sl2.parsing import parse_poly
from m2sl2.reduction import chain_demo, reduce_by

def prepare(texts):
    return [parse_poly(t) for t in texts]

step = {"reduce": lambda job: reduce_by(job[0], job[1:]),
        "traced": lambda job: reduce_by(job[0], job[1:], trace=[]),
        "chain": chain_demo}
"""


def step_jobs() -> dict[str, list]:
    """Each seed-1 job of a batch as its list of polynomial texts."""
    def lines(job) -> list[str]:
        (_, text), = job.files
        return [line for line in text.splitlines() if line.strip()]

    reduce = [[job.argv[1]] + lines(job) for job in seed1_jobs("reduce")]
    chain = [lines(job) for job in seed1_jobs("chain")]
    return {"reduce": reduce, "traced": reduce, "chain": chain}


def main(argv=None) -> None:
    compare(__doc__, step_jobs(), REDUCE, "jobs", argv)


if __name__ == "__main__":
    main()
