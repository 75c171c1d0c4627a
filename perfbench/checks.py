"""Answer checks that do not go through the package under test.

`check` returns None for a right answer and a one-line reason otherwise.
Golden digests cover byte-identical stdout for reduce, chain-demo and
normalize; is-identity answers are known by construction; independence must
report full rank over the monomial count of our own enumeration; reduce
remainders must also satisfy the Euclidean invariant, decided by an embedding
test written here from the definition of the embedding order.
"""

import hashlib
import json
from math import gcd
from pathlib import Path

from workloads import GENERATOR_LEADS, GOLDEN_KINDS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- the embedding order on monomial texts -----------------------------------

def _profile(mono: str):
    """(variant, rows) of a monomial text; rows[k] = (y, c, d) counts of index k+1.

    z letters at odd positions of the z-block fill c-slots, the others d-slots.
    """
    ys: dict[int, int] = {}
    zs: list[int] = []
    if mono != "1":
        for part in mono.split("*"):
            letter, _, exp = part.partition("^")
            idx = int(letter[1:])
            if letter[0] == "y":
                ys[idx] = ys.get(idx, 0) + (int(exp) if exp else 1)
            else:
                zs.append(idx)
    top = max(list(ys) + zs, default=0)
    rows = [[ys.get(k, 0), 0, 0] for k in range(1, top + 1)]
    for pos, idx in enumerate(zs):
        rows[idx - 1][1 + pos % 2] += 1
    return (2 if zs else 1), [tuple(r) for r in rows]


def embeds(small: str, big: str) -> bool:
    """Does `small` embed into `big` (same variant, rows mapped strictly
    increasingly, each dominated entrywise, `big` read with an infinite zero
    tail)?  Greedy leftmost matching is complete for this order."""
    vs, rs = _profile(small)
    vb, rb = _profile(big)
    if vs != vb:
        return False
    rb += [(0, 0, 0)] * len(rs)
    p = 0
    for row in rs:
        while p < len(rb) and not all(a <= b for a, b in zip(row, rb[p])):
            p += 1
        if p == len(rb):
            return False
        p += 1
    return True


def parse_output_poly(text: str) -> list[tuple[int, str]]:
    """Terms of a polynomial printed by the CLI: "+ 5*y1*z2 - z3", or "0"."""
    if text == "0":
        return []
    toks = text.split(" ")
    if len(toks) % 2:
        raise ValueError("sign and body tokens must alternate")
    terms = []
    for sign, body in zip(toks[0::2], toks[1::2]):
        if sign not in "+-":
            raise ValueError(f"bad sign {sign!r}")
        head, _, rest = body.partition("*")
        if head.isdigit() and rest:
            mag, mono = int(head), rest
        else:
            mag, mono = 1, body
        terms.append((mag if sign == "+" else -mag, mono))
    return terms


def _reduce_invariant(out: str) -> str | None:
    for c, mono in parse_output_poly(out.rstrip("\n")):
        lcs = [lc for lc, lm in GENERATOR_LEADS if embeds(lm, mono)]
        if lcs and not 0 < c < gcd(*lcs):
            return f"remainder term {c}*{mono} is reducible (gcd {gcd(*lcs)})"
        if not c:
            return f"zero coefficient on {mono}"
    return None


def _chain_tail(out: str, items: int) -> str | None:
    lines = out.splitlines()
    last_step = 0
    for line in lines[:-1]:
        if not line.startswith("step "):
            return f"unexpected line {line!r}"
        last_step = int(line.split(":")[0][5:])
    want = f"stabilized at step {last_step} ({items} steps seen)"
    if not lines or lines[-1] != want:
        return f"last line is not {want!r}"
    return None


def _independence(out: str, monomials: int) -> str | None:
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    if int(fields.get("monomials", -1)) != monomials:
        return f"monomial count {fields.get('monomials')} != {monomials}"
    if fields.get("rank") != fields.get("monomials") or fields.get("full rank") != "yes":
        return "rank differs from the monomial count"
    return None


def check(job, rc, out: str, golden: dict) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    try:
        if job.kind in GOLDEN_KINDS and golden.get(job.key) != digest(out):
            return "stdout differs from the golden digest"
        if job.kind == "reduce":
            return _reduce_invariant(out)
        if job.kind == "chain-demo":
            return _chain_tail(out, job.expect)
        if job.kind == "is-identity":
            want = "true\n" if job.expect else "false\n"
            return None if out == want else f"answer {out.strip()!r}, expected {want.strip()!r}"
        if job.kind == "independence":
            return _independence(out, job.expect)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    return None


def corrupt(job, out: str) -> str:
    """A wrong answer for the self-test: flips a boolean, else alters one digit."""
    if job.kind == "is-identity":
        return "false\n" if out == "true\n" else "true\n"
    for k in range(len(out) - 1, -1, -1):
        if out[k].isdigit():
            return out[:k] + str((int(out[k]) + 1) % 10) + out[k + 1:]
    return out + "0\n"
