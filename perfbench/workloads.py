"""Seeded inputs for the benchmark workloads.

Every input is built from an integer pool index by a generator that depends
only on that index, so a fixed pool of inputs exists for each workload and
`golden.json` can hold the stdout digest of every pooled input, computed once
at the seed commit.  A run's `--seed` picks which pool items it uses and
never anything else; the pools are stratified by input size so that every
seed gets the same mix of sizes and the per-run figures stay comparable.

Nothing here imports `m2sl2`: the texts are written from the grammar and the
canonical-monomial definition in the package docstrings, so a change to the
package cannot change the inputs it is measured on.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

# The three generators of the ROADMAP's reduce_by workload.  Their leading
# terms under the linear well-order (odd letters first, then the highest
# differing index) are 6*y1^2, 4*z1*z2 and 10*y2*z1.
GENERATORS = ("6*y1^2 + y1", "4*z1*z2 - y2", "10*y2*z1 + 3")
GENERATOR_LEADS = ((6, "y1^2"), (4, "z1*z2"), (10, "y2*z1"))

REDUCE_STRATA = 101       # pooled term counts 50..150
REDUCE_REPLICAS = 4       # pooled polynomials per term count
REDUCE_TERMS = range(50, 151, 3)  # term counts of one run: 34 jobs
CHAIN_STRATA = 30        # pooled stream lengths spread evenly over 100..140
CHAIN_REPLICAS = 8
CHAIN_COEFFS = (2, 3, 4, 5, 6, 9, 10, 12, 15, 30)
IDENTITY_WORDS = (64, 128, 256)   # word-count band of the is-identity images
IDENTITY_PER_RUN = (1, 3, 1)      # images per (relation, perturbed) of each band
IDENTITY_REPLICAS = 10            # pooled images per (relation, words, perturbed) cell
BRACKET_POOL = 120
BRACKET_JOBS = 9
POWERS = (7, 8, 9)
INDEPENDENCE = (5, 6)

WORKLOADS = ("reduce", "chain", "identity")
# Seconds one pass over a run's job list took at the seed commit on a 2-vCPU
# virtual machine; --seconds / this fixes how many times each job runs.
PASS_SECONDS = {"reduce": 10.0, "chain": 6.0, "identity": 2.5}
GOLDEN_KINDS = ("reduce", "chain-demo", "normalize")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  File arguments are bare names of `files` entries."""

    kind: str                     # the subcommand
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    expect: object = None         # kind-specific answer known by construction
    size: int = 0                 # work proxy: terms, stream items or words

    @property
    def key(self) -> str:
        """Digest of the input, the lookup key into golden.json."""
        blob = json.dumps([self.argv, self.files], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- monomial and polynomial texts -------------------------------------------

def monomial_text(ys, cs, ds) -> str:
    """Text of the canonical monomial y^ys * z_c1 z_d1 z_c2 ..., "1" if empty.

    ys lists y indices with repetition; cs and ds are the sorted c- and d-slot
    indices (len(ds) is len(cs) or one less).
    """
    parts = []
    for i in sorted(set(ys)):
        e = ys.count(i)
        parts.append(f"y{i}" if e == 1 else f"y{i}^{e}")
    for k, c in enumerate(cs):
        parts.append(f"z{c}")
        if k < len(ds):
            parts.append(f"z{ds[k]}")
    return "*".join(parts) if parts else "1"


def basis_texts(max_degree: int, max_index: int) -> list[str]:
    """Every canonical monomial of degree <= max_degree with indices <= max_index."""
    idx = range(1, max_index + 1)
    out = []
    for d in range(max_degree + 1):
        for zlen in range(d + 1):
            for ys in combinations_with_replacement(idx, d - zlen):
                for cs in combinations_with_replacement(idx, (zlen + 1) // 2):
                    for ds in combinations_with_replacement(idx, zlen // 2):
                        out.append(monomial_text(list(ys), cs, ds))
    return out


def poly_text(terms) -> str:
    """Render [(coeff, monomial text), ...] as an expression."""
    chunks = []
    for k, (c, m) in enumerate(terms):
        body = str(abs(c)) if m == "1" else f"{abs(c)}*{m}"
        if k == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(chunks)


def degree_classes(basis: list[str]) -> dict[tuple[int, int], list[str]]:
    """Monomial texts grouped by (degree, number of z letters)."""
    groups: dict[tuple[int, int], list[str]] = {}
    for m in basis:
        deg = zs = 0
        if m != "1":
            for part in m.split("*"):
                letter, _, exp = part.partition("^")
                deg += int(exp) if exp else 1
                zs += letter[0] == "z"
        groups.setdefault((deg, zs), []).append(m)
    return groups


def stratified_sample(rng: random.Random, groups: dict, n: int) -> list[str]:
    """n distinct monomials; each class gets its share of n (largest remainders).

    Reduction cost depends on how many terms of each degree and z-count a
    polynomial has; fixing those counts cut the coefficient of variation of
    the reduce time of 100-term polynomials from 23% to 16% (25 samples).
    """
    total = sum(len(g) for g in groups.values())
    quota = {k: n * len(g) / total for k, g in groups.items()}
    take = {k: int(q) for k, q in quota.items()}
    for k in sorted(groups, key=lambda k: (take[k] - quota[k], k))[: n - sum(take.values())]:
        take[k] += 1
    picked = [m for k in sorted(groups) for m in rng.sample(groups[k], take[k])]
    rng.shuffle(picked)
    return picked


# --- pooled inputs -----------------------------------------------------------

def reduce_job(i: int, groups: dict) -> Job:
    n = 50 + i // REDUCE_REPLICAS
    rng = random.Random(f"reduce/{i}")
    terms = [(rng.choice((-1, 1)) * rng.randint(1, 99), m) for m in stratified_sample(rng, groups, n)]
    gens = "".join(g + "\n" for g in GENERATORS)
    return Job("reduce", ("reduce", poly_text(terms), "gens.txt"), (("gens.txt", gens),), size=n)


def chain_job(i: int, basis: list[str]) -> Job:
    n = 100 + round(40 * (i // CHAIN_REPLICAS) / (CHAIN_STRATA - 1))
    rng = random.Random(f"chain/{i}")
    lines = [poly_text([(rng.choice((-1, 1)) * rng.choice(CHAIN_COEFFS), m)])
             for m in rng.sample(basis, n)]
    name = f"stream-{i}.txt"
    return Job("chain-demo", ("chain-demo", name), ((name, "".join(s + "\n" for s in lines)),),
               expect=n, size=n)


def _rand_lie(rng: random.Random, grade: int, depth: int):
    """(text, word count) of a random Lie element of the given grade, indices <= 4."""
    if depth <= 0 or rng.random() < 0.35:
        return f"{'y' if grade == 0 else 'z'}{rng.randint(1, 4)}", 1
    ga, gb = rng.choice(((0, 0), (1, 1)) if grade == 0 else ((0, 1), (1, 0)))
    a, na = _rand_lie(rng, ga, depth - 1)
    b, nb = _rand_lie(rng, gb, depth - 1)
    return f"[{a}, {b}]", 2 * na * nb


def identity_job(i: int) -> Job:
    """A substitution image of one defining relation, perhaps plus a monomial.

    Index i encodes the cell: relation = i % 3, word band = (i // 3) % 3,
    perturbed = (i // 9) % 2.  Images are redrawn until the expansion has
    exactly the band's word count.  An image is an identity by construction;
    adding one basis monomial makes the answer false, because basis
    monomials evaluate to linearly independent matrices.
    """
    rel, words, perturbed = i % 3, IDENTITY_WORDS[(i // 3) % 3], (i // 9) % 2 == 1
    rng = random.Random(f"identity/{i}")
    while True:
        if rel == 0:    # [y1, y2]
            (a, na), (b, nb) = _rand_lie(rng, 0, 3), _rand_lie(rng, 0, 3)
            text, n = f"[{a}, {b}]", 2 * na * nb
        elif rel == 1:  # z1 z2 z3 - z3 z2 z1
            (a, na), (b, nb), (c, nc) = (_rand_lie(rng, 1, 3) for _ in range(3))
            text, n = f"({a})*({b})*({c}) - ({c})*({b})*({a})", 2 * na * nb * nc
        else:           # y1 z1 + z1 y1
            (a, na), (b, nb) = _rand_lie(rng, 0, 3), _rand_lie(rng, 1, 3)
            text, n = f"({a})*({b}) + ({b})*({a})", 2 * na * nb
        if n == words:
            break
    if perturbed:
        m = rng.choice(basis_texts(3, 4)[1:])
        text = f"{text} + {m}"
        n += 1
    return Job("is-identity", ("is-identity", text), expect=not perturbed, size=n)


def _rand_sum(rng: random.Random) -> tuple[str, int]:
    terms = []
    for _ in range(rng.randint(2, 3)):
        letters = [f"{rng.choice('yz')}{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2))]
        terms.append((rng.choice((-1, 1)) * rng.randint(1, 3), "*".join(letters)))
    return poly_text(terms), len(terms)


def bracket_job(i: int) -> Job:
    rng = random.Random(f"bracket/{i}")
    (a, na), (b, nb), (c, nc) = (_rand_sum(rng) for _ in range(3))
    p = rng.randint(2, 3)
    text = f"[({a})^{p}, {b}] * ({c})"
    return Job("normalize", ("normalize", text), size=2 * na ** p * nb * nc)


def power_job(k: int) -> Job:
    return Job("normalize", ("normalize", f"(y1+z1+z2)^{k}"), size=3 ** k)


def independence_job(degree: int) -> Job:
    monomials = len(basis_texts(degree, 3))
    return Job("independence", ("independence", "--degree", str(degree), "--indices", "3"),
               expect=monomials, size=monomials * 100)


def golden_pool() -> list[Job]:
    """Every pooled input whose stdout is checked against golden.json."""
    g7, b6 = degree_classes(basis_texts(7, 3)), basis_texts(6, 3)
    return ([reduce_job(i, g7) for i in range(REDUCE_STRATA * REDUCE_REPLICAS)]
            + [chain_job(i, b6) for i in range(CHAIN_STRATA * CHAIN_REPLICAS)]
            + [bracket_job(i) for i in range(BRACKET_POOL)]
            + [power_job(k) for k in POWERS])


# --- per-run job lists -------------------------------------------------------

def _spread(jobs: list[Job]) -> list[Job]:
    """Reorder a list sorted by size so every stretch of it samples all sizes.

    A slow spell of the host then slows jobs of every size, not one size
    class, and the self-test's first jobs cover several sizes.
    """
    n = len(jobs)
    order = sorted(range(n), key=lambda k: (k * 0.6180339887498949) % 1.0)
    return [jobs[k] for k in order]


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one run: the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "reduce":
        groups = degree_classes(basis_texts(7, 3))
        jobs = [reduce_job((n - 50) * REDUCE_REPLICAS + rng.randrange(REDUCE_REPLICAS), groups)
                for n in REDUCE_TERMS]
    elif workload == "chain":
        basis = basis_texts(6, 3)
        jobs = [chain_job(k * CHAIN_REPLICAS + rng.randrange(CHAIN_REPLICAS), basis)
                for k in range(CHAIN_STRATA)]
    elif workload == "identity":
        jobs = []
        for cell in range(18):
            for r in rng.sample(range(IDENTITY_REPLICAS), IDENTITY_PER_RUN[(cell // 3) % 3]):
                jobs.append(identity_job(cell + 18 * r))
        jobs += [bracket_job(i) for i in rng.sample(range(BRACKET_POOL), BRACKET_JOBS)]
        jobs += [power_job(k) for k in POWERS]
        jobs += [independence_job(d) for d in INDEPENDENCE]
        jobs.sort(key=lambda j: (j.size, j.argv))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _spread(jobs)


def warmup_job(workload: str) -> Job:
    """The set-up's untimed job: one fixed pooled input, whatever the seed,
    so that set-up time does not vary with the seed."""
    if workload == "reduce":
        return reduce_job(0, degree_classes(basis_texts(7, 3)))
    if workload == "chain":
        return chain_job(0, basis_texts(6, 3))
    return identity_job(0)
