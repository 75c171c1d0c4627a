"""The command line's output contract: a seeded corpus of calls to
`m2sl2.cli.main`, and one digest per call over its exit status, stdout,
stderr and `--trace` file.

    PYTHONPATH=src python tests/cli_corpus.py           # check the calls against the file
    PYTHONPATH=src python tests/cli_corpus.py --write   # regenerate tests/data/cli_corpus.json

`tests/test_cli_corpus.py` runs the check in tier-1.  A change that alters an
output on purpose regenerates the file and lists each changed call, which
`--write` prints.

The corpus covers all nine subcommands, each call in text and under `--json`:
a sample of the benchmark's golden pool, random `compare`, `embed` and
`factor` pairs (the empty witness among them, and some non-monomials),
`pwos-min` on random, empty, comment-only and missing files, `independence`
at degrees -1..5 and indices -1..3 and at the sizes 6/3, 7/3 and 4/5,
`chain-demo` in all three orders at small caps and on random streams,
`reduce` with and without `--trace`, random and mutated expressions for
`normalize` and `is-identity`, the resource caps, and usage errors whose
messages read the same on every supported Python.  Calls run in-process in
a temporary directory, with file arguments as bare names, so every path in a
message is the same on every run.  Texts are built here from
`random.Random(SEED)`, not by the package.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import m2sl2.cli
from bench_pairs import bench_module

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data" / "cli_corpus.json"
SEED = 21
TRACE = "trace.json"  # the --trace argument of every call that writes one
GOLDEN_STRIDE = 20    # golden-pool reduce and chain-demo jobs taken: every 20th, from the 2nd


# --- random texts --------------------------------------------------------------

def _monomial(rng: random.Random) -> str:
    parts = []
    for i in range(1, 4):
        e = rng.choice((0, 0, 1, 1, 2))
        if e:
            parts.append(f"y{i}" if e == 1 else f"y{i}^{e}")
    parts.extend(f"z{rng.randint(1, 3)}" for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))))
    rng.shuffle(parts)
    return "*".join(parts) or "1"


def _poly(rng: random.Random, max_terms: int = 3) -> str:
    out = []
    for k in range(rng.randint(1, max_terms)):
        c = rng.choice((1, 1, 2, 3, 5, 12))
        sign = rng.choice("+-") if k or rng.random() < 0.5 else ""
        body = _monomial(rng) if c == 1 else f"{c}*{_monomial(rng)}"
        out.append(f"{sign} {body}".strip())
    return " ".join(out)


def _expr(rng: random.Random, depth: int = 3) -> str:
    """An expression of the full grammar: sums, products, powers, brackets."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("y1", "y2", "z1", "z2", "z3", "3", "(-2)", "0", "1"))
    kind = rng.choice(("add", "mul", "pow", "br", "par"))
    if kind == "add":
        return f"{_expr(rng, depth - 1)} {rng.choice('+-')} {_expr(rng, depth - 1)}"
    if kind == "mul":
        return f"{_expr(rng, depth - 1)}*{_expr(rng, depth - 1)}"
    if kind == "pow":
        return f"({_expr(rng, depth - 1)})^{rng.randint(0, 3)}"
    if kind == "br":
        return f"[{_expr(rng, depth - 1)}, {_expr(rng, depth - 1)}]"
    return f"({_expr(rng, depth - 1)})"


def _mutate(rng: random.Random, text: str) -> str:
    """Up to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op, at = rng.choice("idr"), rng.randint(0, len(chars))
        new = rng.choice("yz0123456789+-*^()[], ")
        if op == "i":
            chars.insert(at, new)
        elif at < len(chars):
            if op == "d":
                del chars[at]
            else:
                chars[at] = new
    return "".join(chars)


def _lines(rng: random.Random, make, most: int) -> str:
    out = [make(rng) for _ in range(rng.randint(1, most))]
    if rng.random() < 0.3:
        out.insert(rng.randint(0, len(out)), "# a comment")
    return "".join(f"{line}\n" for line in out)


# --- the corpus ----------------------------------------------------------------

def corpus() -> list[tuple[tuple[str, ...], tuple[tuple[str, str], ...]]]:
    """Every call as (argv, files), files as (bare name, text) pairs; each
    argv appears in text form and with --json."""
    rng = random.Random(SEED)
    base: list[tuple[tuple[str, ...], tuple]] = []

    def add(*argv, files=()):
        base.append((tuple(argv), tuple(files)))

    seen = {}
    for job in bench_module("workloads").golden_pool():
        k = seen[job.kind] = seen.get(job.kind, -1) + 1
        if job.kind == "normalize" or k % GOLDEN_STRIDE == 1:
            add(*job.argv, files=job.files)
            if job.kind == "reduce" and k % (2 * GOLDEN_STRIDE) == 1:
                add(*job.argv, "--trace", TRACE, files=job.files)

    for cmd in ("compare", "embed", "factor"):
        for _ in range(50):
            left = _monomial(rng) if rng.random() < 0.9 else _poly(rng)
            if rng.random() < 0.5:  # a right side built around the left, so it often embeds
                right = f"{_monomial(rng)}*({left})*{_monomial(rng)}"
            else:
                right = _monomial(rng) if rng.random() < 0.9 else _poly(rng)
            add(cmd, left, right)
        for left, right in (("1", "y1"), ("1", "1"), ("1", "z2*z1"), ("y1", "1"), ("0", "y1")):
            add(cmd, left, right)  # the empty witness, and its refusals

    for _ in range(15):
        add("pwos-min", "monos.txt", files=[("monos.txt", _lines(
            rng, lambda r: _monomial(r) if r.random() < 0.85 else _poly(r), 8))])
    add("pwos-min", "monos.txt", files=[("monos.txt", "")])
    add("pwos-min", "monos.txt", files=[("monos.txt", "# only a comment\n\n")])
    add("pwos-min", "missing.txt")

    for degree in range(-1, 6):
        for indices in range(-1, 4):
            add("independence", "--degree", str(degree), "--indices", str(indices))
    # the sizes the benchmark's identity workload ranks, and two next to them
    for degree, indices in ((5, 3), (6, 3), (7, 3), (4, 5)):
        add("independence", "--degree", str(degree), "--indices", str(indices))

    for order in ("graded", "lex", "total"):
        for degree, indices in ((0, 1), (2, 1), (3, 2), (4, 2)):
            for budget in ((), ("--budget", "0"), ("--budget", "3")):
                add("chain-demo", "--order", order, "--degree", str(degree),
                    "--indices", str(indices), *budget)
        add("chain-demo", "--order", order, "--degree", "-1")
    # lex and total sort the whole basis, and graded may stream all of it
    # under the default budget, so each refuses a large one
    for order in ("lex", "total", "graded"):
        add("chain-demo", "--order", order, "--degree", "2", "--indices", "5000")
    for _ in range(12):
        budget = ("--budget", str(rng.randint(0, 6))) if rng.random() < 0.3 else ()
        add("chain-demo", "stream.txt", *budget,
            files=[("stream.txt", _lines(rng, _poly, 8))])
    add("chain-demo", "stream.txt", files=[("stream.txt", "y1 +\n")])
    add("chain-demo", "missing.txt")

    for _ in range(25):
        gens = _lines(rng, lambda r: _poly(r, 2), 4)
        expr = _poly(rng, 6)
        add("reduce", expr, "gens.txt", files=[("gens.txt", gens)])
        add("reduce", expr, "gens.txt", "--trace", TRACE, files=[("gens.txt", gens)])
    add("reduce", "y1^2 + z1*z2", "--trace", TRACE)
    add("reduce", "y1^2 + y2", "gens.txt", files=[("gens.txt", "y1 +* 2\n")])
    add("reduce", "y1^2 + y2", "gens.txt", "--trace", TRACE, files=[("gens.txt", "0\ny1\n")])
    add("reduce", "y1^2 + y2", "missing.txt")
    add("reduce", "2^20000*y1", "gens.txt", "--trace", TRACE, files=[("gens.txt", "y1\n")])

    for _ in range(60):
        expr = _expr(rng)
        for text in (expr, _mutate(rng, expr)):
            add("normalize", text)
            add("is-identity", text)
    for text in ("", "-y1", "--y1", "y1 y2", "[y1, z1", "y1^", "(y1", "y0", "z1^-1", "+ y1",
                 "(" * 3000 + "y1" + ")" * 3000, "y100000000000", "y²", "1" * 5000,
                 "y1^" + "1" * 5000, "[" * 50 + "y1" + ",z2]" * 50, "y1^100000000000000",
                 "3^100000000000000", "1^99999999999999999999", "(-1)^99999999999999999999*y1",
                 "2^20000", "2^14000", "(y1+z1+z2)^6"):
        add("normalize", text)
        add("is-identity", text)

    # argparse's usage errors; only those whose usage line and message read
    # alike on every supported Python and fit any terminal width
    add("compare", "y1")
    add("normalize")
    add("independence", "--degree", "x")

    # random texts repeat now and then: each call runs once
    return list(dict.fromkeys((argv + flag, files) for argv, files in base
                              for flag in ((), ("--json",))))


def key(argv, files) -> str:
    blob = json.dumps([argv, files], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run(argv, files, workdir: Path) -> str:
    """The digest of one in-process call, run with workdir as the current
    directory; the call's files are written there first."""
    for name, text in files:
        (workdir / name).write_text(text, encoding="utf-8")
    trace = workdir / TRACE
    if trace.exists():
        trace.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = m2sl2.cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    written = trace.read_text(encoding="utf-8") if trace.exists() else None
    blob = json.dumps([status, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digests(workdir: Path) -> dict[str, str]:
    """Run the whole corpus inside workdir; key -> digest."""
    here = os.getcwd()
    # argparse wraps usage lines at the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.chdir(workdir)
        try:
            return {key(argv, files): run(argv, files, workdir) for argv, files in corpus()}
        finally:
            os.chdir(here)


def changed(recorded: dict, now: dict) -> list[str]:
    """One line per call whose digest differs, or that only one side has."""
    argv = {key(a, f): " ".join(a) for a, f in corpus()}
    return [f"{k} {argv.get(k, '(not in the corpus)')[:160]}"
            for k in sorted(recorded.keys() | now.keys()) if recorded.get(k) != now.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Check or regenerate the CLI output digests.")
    ap.add_argument("--write", action="store_true", help=f"rewrite {DATA.relative_to(TESTS.parent)}")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        now = digests(Path(tmp))
    recorded = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}
    diff = changed(recorded, now)
    for line in diff:
        print(line)
    if args.write:
        DATA.write_text(json.dumps(now, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(now)} digests, {len(diff)} changed")
        return 0
    print(f"{len(now)} calls, {len(diff)} differ from the file")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
