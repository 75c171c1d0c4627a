"""Fuzz the command line in-process: every run ends in an answer (exit 0), a
structured error (exit 1, JSON under --json) or a usage error (exit 2), within
2 s, and no exception escapes cli.main.

The inputs stay small so the whole module runs in a few seconds: `reduce`
and `chain-demo` read files of at most 8 items of at most 3 terms over
enumerate_basis(4, 2); `normalize` and `is-identity` read grammar strings,
and `compare`, `embed` and `factor` monomial strings, with up to three
characters inserted, deleted or replaced; `pwos-min` reads files of at most
8 such lines, some of them not monomials; `independence` takes small and
oversize caps.  Half of the expression arguments start with a minus sign,
which must read as part of the expression, not as an option, and a syntax
error never lists the token it rejects among the expected ones.  Examples
are derandomized, so every run sees the same inputs.  A few hostile inputs
also run in a fresh interpreter, so no traceback can hide in what a shell
user would see.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import m2sl2
from m2sl2 import ParseError, ResourceBoundError, enumerate_basis, freealg, genmat
from m2sl2.cli import format_monomial, main
from m2sl2.parsing import parse

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)

BASIS = [format_monomial(m) for m in enumerate_basis(4, 2)]

# a nonzero coefficient times a basis monomial ("1" among them)
TERM = st.tuples(st.integers(-9, 9).filter(bool), st.sampled_from(BASIS))
POLY = st.lists(TERM, min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"({c})*{m}" for c, m in terms))
ITEMS = st.lists(POLY, max_size=8)
# a stream may hold zero items, which reduce to zero and adjoin nothing
STREAM = st.lists(st.one_of(POLY, st.just("0")), max_size=8)


def signed(strategy):
    """The strategy's strings, half of them behind a leading minus sign,
    which the command line must read as part of the expression."""
    return st.one_of(strategy, strategy.map(lambda text: "-" + text))


ATOMS = ("y1", "y2", "z1", "z2", "z3", "3", "(-2)", "0")


def _expr(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, children).map(lambda t: f"[{t[0]}, {t[1]}]"),
    )


GRAMMAR = signed(st.recursive(st.sampled_from(ATOMS), _expr, max_leaves=6))
EDIT_CHARS = "yz0123456789+-*^()[], x"
EDIT = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                 st.integers(0, 10_000), st.sampled_from(EDIT_CHARS))
EDITS = st.lists(EDIT, max_size=3)


def mutate(text: str, edits) -> str:
    for op, pos, ch in edits:
        i = pos % (len(text) + 1)
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif i < len(text):
            text = text[:i] + (ch if op == "replace" else "") + text[i + 1:]
    return text


def run(argv):
    """Exit status, stdout and stderr of one in-process call of main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse reports a usage error this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def check(argv):
    start = time.perf_counter()
    rc, out, err = run(argv)
    assert time.perf_counter() - start < 2, argv
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc != 0:  # a failing command writes nothing to stdout
        assert out == "", (argv, rc, out)
    if "--json" in argv and rc == 0:
        json.loads(out)
    if "--json" in argv and rc == 1:
        obj = json.loads(err)
        assert {"error", "message"} <= set(obj), (argv, err)
    if rc == 1 and "--json" not in argv:
        assert err.startswith("error: "), (argv, err)
    return rc


def write_lines(directory: str, name: str, lines) -> str:
    path = Path(directory) / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@FUZZ
@given(signed(st.one_of(POLY, st.just("0"))), ITEMS, st.integers(0, 4), st.booleans(),
       st.booleans())
def test_reduce_fuzz(expr, gens, zero_gen, as_json, traced):
    if zero_gen == 0:  # one draw in five adds a zero generator, an error
        gens = gens + ["0"]
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["reduce", expr, write_lines(tmp, "gens.txt", gens)]
        trace_path = Path(tmp) / "trace.json"
        if traced:
            argv += ["--trace", str(trace_path)]
        if as_json:
            argv.append("--json")
        rc = check(argv)
        if rc == 0 and traced:
            assert isinstance(json.loads(trace_path.read_text(encoding="utf-8")), list)


@FUZZ
@given(STREAM, st.booleans(), st.one_of(st.none(), st.integers(-1, 9)))
def test_chain_demo_fuzz(items, as_json, budget):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["chain-demo", write_lines(tmp, "stream.txt", items)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        if as_json:
            argv.append("--json")
        check(argv)


@FUZZ
@given(GRAMMAR, EDITS, st.sampled_from(("normalize", "is-identity")),
       st.booleans())
def test_expression_fuzz(expr, edits, command, as_json):
    text = mutate(expr, edits)
    argv = [command, text]
    if as_json:
        argv.append("--json")
    # only a "--" prefix makes the expression an option
    assert check(argv) != 2 or text.startswith("--"), text
    try:
        parse(text)
    except ParseError as exc:
        assert _token_name(text, exc.offset) not in exc.expected, (text, exc.expected)
    except ResourceBoundError:  # parse raises the word cap once the text is read
        pass


def _token_name(text: str, offset: int) -> str:
    """How a ParseError's `expected` would name the token at offset."""
    if offset >= len(text):
        return "end of input"
    ch = text[offset]
    return "integer" if ch.isdecimal() else repr(ch)


# a basis monomial, as is or with up to three character edits
MONOMIAL = signed(st.one_of(st.sampled_from(BASIS),
                            st.tuples(st.sampled_from(BASIS), EDITS).map(lambda t: mutate(*t))))


@FUZZ
@given(MONOMIAL, MONOMIAL, st.booleans(), st.sampled_from(("compare", "embed", "factor")),
       st.booleans())
def test_monomial_pair_fuzz(left, right, glue, command, as_json):
    if glue:  # left times anything mostly embeds left, so factor often answers
        right = f"{left}*{right}"
    argv = [command, left, right]
    if as_json:
        argv.append("--json")
    check(argv)


@FUZZ
@given(st.lists(st.one_of(MONOMIAL, POLY), max_size=8), st.booleans())
def test_pwos_min_fuzz(lines, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["pwos-min", write_lines(tmp, "monomials.txt", lines)]
        if as_json:
            argv.append("--json")
        check(argv)


@FUZZ
@given(st.integers(-2, 5), st.integers(-1, 4), st.booleans())
def test_independence_fuzz(degree, indices, as_json):
    argv = ["independence", "--degree", str(degree), "--indices", str(indices)]
    if as_json:
        argv.append("--json")
    check(argv)


def _enumerated():
    raise AssertionError("an oversize basis was enumerated")


def _classes_unread(max_degree, max_index):
    """The class loop independence_report reads, checking the caps on the
    call as it does, but failing as soon as a class is drawn."""
    return (_enumerated() for _ in freealg._basis_classes(max_degree, max_index))


@pytest.mark.parametrize("degree, indices", [(100, 100), (8, 40), (40, 3), (2, 5000)])
@pytest.mark.parametrize("as_json", [False, True])
def test_independence_refuses_oversize_before_enumerating(monkeypatch, degree, indices, as_json):
    monkeypatch.setattr(genmat, "_basis_classes", _classes_unread)
    argv = ["independence", "--degree", str(degree), "--indices", str(indices)]
    if as_json:
        argv.append("--json")
    rc, out, err = run(argv)
    assert rc == 1 and out == ""
    message = json.loads(err)["message"] if as_json else err
    assert "enumeration exceeded 200000 monomials" in message


HOSTILE = [
    pytest.param(("compare", "y1 + y2", "z1"), id="compare-polynomial"),
    pytest.param(("embed", "y1", "(" * 3000 + "y1" + ")" * 3000), id="embed-nesting-cap"),
    pytest.param(("factor", "z1", "y1^99999999999999999999"), id="factor-letters-cap"),
    pytest.param(("independence", "--degree", "100", "--indices", "100"), id="independence-cap"),
    pytest.param(("independence", "--degree", "x"), id="independence-usage"),
    pytest.param(("pwos-min", "{bad_utf8}"), id="pwos-min-undecodable"),
    pytest.param(("pwos-min", "{missing}"), id="pwos-min-missing"),
]


@pytest.mark.parametrize("argv", HOSTILE)
def test_hostile_input_has_no_traceback(tmp_path, argv):
    bad_utf8 = tmp_path / "bad.txt"
    bad_utf8.write_bytes(b"y1\n\xff\xfe z1\n")
    argv = [a.format(bad_utf8=bad_utf8, missing=tmp_path / "missing.txt") for a in argv]
    src = str(Path(m2sl2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "m2sl2.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode in (1, 2), (argv, proc.returncode, proc.stderr)
    assert proc.stdout == "", (argv, proc.stdout)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
