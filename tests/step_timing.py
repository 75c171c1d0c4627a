"""Interleaved in-process timing of reduce_by on the benchmark's seed-1
`reduce` jobs, for this tree against a second checkout.

    python tests/step_timing.py --parent PATH

Each job is a polynomial and the generator file it is reduced by, built by
this tree's `perfbench/workloads.py`, so both trees reduce the same inputs.
The child and the rounds are those of tests/front_end_timing.py: each round
times both trees, each in a fresh child interpreter, in alternating order.
A child parses every job afresh before each pass, untimed, so every pass
starts from cold monomial and support caches as a job of the benchmark
does; it runs one untimed pass, then times five and keeps the least.  Two
batches are timed: `reduce` calls reduce_by with no trace, as the reduce
command does without --trace, and `traced` passes a fresh trace list, so
the loop takes the path that builds every step's factorization for its
trace record.  The script prints, per batch, the least time of each tree
over the rounds and their ratio, this tree over the parent.  It only
prints; it is no gate.
"""

from front_end_timing import compare, seed1_jobs

REDUCE = """
from m2sl2.parsing import parse_poly
from m2sl2.reduction import reduce_by

def prepare(job):
    expr, gens = job
    return parse_poly(expr), [parse_poly(g) for g in gens]

step = {"reduce": lambda job: reduce_by(*job),
        "traced": lambda job: reduce_by(*job, trace=[])}
"""


def reduce_jobs() -> dict[str, list]:
    """Each seed-1 `reduce` job as (polynomial text, generator texts), once
    for each batch."""
    jobs = []
    for job in seed1_jobs("reduce"):
        (_, gens), = job.files
        jobs.append((job.argv[1], [g for g in gens.splitlines() if g.strip()]))
    return {"reduce": jobs, "traced": jobs}


def main(argv=None) -> None:
    compare(__doc__, reduce_jobs(), REDUCE, "jobs", argv)


if __name__ == "__main__":
    main()
