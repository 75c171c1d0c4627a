import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import m2sl2
from m2sl2 import ONE, CanonicalMonomial, QPoly, ResourceBoundError, enumerate_basis, parse_poly
import m2sl2.cli
from m2sl2.cli import format_monomial, format_qpoly, format_term, main
from tests.util import format_oracle, format_term_oracle, oracle_parse, raw_evaluate_tree


def mk(yexp=(), cseq=(), dseq=()):
    return CanonicalMonomial.make(yexp, cseq, dseq)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# --- formatting --------------------------------------------------------------

def test_format_monomial():
    assert format_monomial(mk()) == "1"
    assert format_monomial(mk((2, 0, 1), (1,), (2,))) == "y1^2*y3*z1*z2"
    assert format_monomial(mk((), (1, 3), (2,))) == "z1*z2*z3"


def test_format_matches_word_oracle_exhaustive():
    # every monomial of degree <= 6 on indices <= 4: the text is the one read
    # off the monomial's word, and it parses back to the monomial alone
    basis = list(enumerate_basis(6, 4))
    assert len(basis) == 6134
    for m in basis:
        text = format_monomial(m)
        assert text == format_oracle(m), m
        assert parse_poly(text).terms == {m: 1}, text
    # the coefficient is printed unless it is 1 or -1, up to the cap's 4300 digits
    big = int("9" * 4300)
    for c in (1, -1, 2, -7, big, -big):
        for m in basis[::7]:
            assert format_term(c, m) == format_term_oracle(c, m), (c, m)
    for c in (big + 1, -big - 1):
        with pytest.raises(ResourceBoundError, match="longer than 4300 digits"):
            format_term(c, basis[-1])


def test_format_qpoly_leading_term_first():
    f = QPoly.monomial(mk((1,)), 3) + QPoly.monomial(mk((1, 1)), -1)
    assert format_qpoly(f) == "- y1*y2 + 3*y1"
    assert format_qpoly(QPoly()) == "0"
    assert format_qpoly(QPoly.monomial(ONE)) == "+ 1"


# --- subcommands -------------------------------------------------------------

def test_normalize(capsys):
    rc, out, _ = run(capsys, "normalize", "z3*z2*z1")
    assert rc == 0 and out == "+ z1*z2*z3\n"
    rc, out, _ = run(capsys, "normalize", "[y1,y2]")
    assert rc == 0 and out == "0\n"


def test_normalize_json(capsys):
    rc, out, _ = run(capsys, "normalize", "z3*z2*z1", "--json")
    assert rc == 0
    assert json.loads(out) == [{"coeff": "1", "m": {"y": [], "c": [1, 3], "d": [2]}}]


def test_is_identity(capsys):
    rc, out, _ = run(capsys, "is-identity", "y1*z1 + z1*y1")
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, "is-identity", "z1*z2 - z2*z1")
    assert rc == 0 and out == "false\n"
    rc, out, _ = run(capsys, "is-identity", "z1*z2*z3 - z3*z2*z1", "--json")
    assert json.loads(out) == {"identity": True}


def test_compare(capsys):
    rc, out, _ = run(capsys, "compare", "y1^2", "y1*y2")
    assert rc == 0 and out == "<\n"
    rc, out, _ = run(capsys, "compare", "z1", "y1^5")
    assert out == ">\n"
    rc, out, _ = run(capsys, "compare", "y2", "y2")
    assert out == "=\n"


def test_compare_rejects_polynomials(capsys):
    rc, _, err = run(capsys, "compare", "y1+y2", "y1")
    assert rc == 1
    assert "error" in err


def test_embed(capsys):
    rc, out, _ = run(capsys, "embed", "y1", "y2^3")
    assert rc == 0 and out == "1->2\n"
    rc, out, _ = run(capsys, "embed", "z1*z2", "z2*z1")
    assert rc == 0 and out == "incomparable\n"
    rc, out, _ = run(capsys, "embed", "y1", "y2^3", "--json")
    assert json.loads(out) == {"phi": [[1, 2]]}
    rc, out, _ = run(capsys, "embed", "y1", "z1", "--json")
    assert json.loads(out) == {"phi": None}
    # the constant monomial embeds by the empty witness
    assert run(capsys, "embed", "1", "y1") == (0, "(empty)\n", "")
    assert run(capsys, "embed", "1", "y1", "--json") == (0, '{"phi": []}\n', "")


def test_factor(capsys):
    rc, out, _ = run(capsys, "factor", "z1", "z1*z2")
    assert rc == 0
    assert out == "phi: 1->1\nN: 1\nP: z2\n"
    rc, out, _ = run(capsys, "factor", "z1", "z1*z2", "--json")
    obj = json.loads(out)
    assert obj == {"phi": [[1, 1]], "N": {"y": [], "c": [], "d": []}, "P": [2]}
    assert run(capsys, "factor", "1", "y1") == (0, "phi: (empty)\nN: y1\nP: (empty)\n", "")
    assert run(capsys, "factor", "1", "y1", "--json") == (
        0, '{"phi": [], "N": {"y": [1], "c": [], "d": []}, "P": []}\n', "")


def test_factor_incomparable_is_domain_error(capsys):
    rc, _, err = run(capsys, "factor", "y1^2", "y1")
    assert rc == 1 and "error:" in err


def test_reduce_with_gens_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("# doubled generator\n2*y1\n")
    rc, out, _ = run(capsys, "reduce", "3*y1", str(gens))
    assert rc == 0 and out == "+ y1\n"


def test_reduce_trace_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("2*y1\n")
    trace_path = tmp_path / "trace.json"
    rc, out, _ = run(capsys, "reduce", "3*y1", str(gens), "--trace", str(trace_path))
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    assert trace[0]["against"] == 0
    assert trace[0]["q"] == "1" and trace[0]["beta"] == "1"
    assert trace[-1] == {"frozen": {"coeff": "1", "m": {"y": [1], "c": [], "d": []}}}


def test_reduce_json(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("y1\n")
    rc, out, _ = run(capsys, "reduce", "y1^2*y2", str(gens), "--json")
    obj = json.loads(out)
    assert obj["remainder"] == []
    assert any("frozen" not in rec for rec in obj["trace"])


def test_reduce_without_gens(capsys):
    rc, out, _ = run(capsys, "reduce", "z1*z2*z3 - z3*z2*z1")
    assert rc == 0 and out == "0\n"


def test_chain_demo_stream_file(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("2*y1\n3*y1\n")
    rc, out, _ = run(capsys, "chain-demo", str(stream))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step 1: adjoined + 2*y1"
    assert lines[1] == "step 2: adjoined + y1"
    assert lines[2] == "stabilized at step 2 (2 steps seen)"


def test_chain_demo_builtin_small(capsys):
    rc, out, _ = run(capsys, "chain-demo", "--degree", "4", "--indices", "2")
    assert rc == 0
    assert "stabilized at step" in out


def test_chain_demo_json(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("y1\ny1^2\n")
    rc, out, _ = run(capsys, "chain-demo", str(stream), "--json")
    obj = json.loads(out)
    assert obj[-1] == {"stabilized_at": 1}
    assert obj[0]["step"] == 1


def test_chain_demo_budget_truncation(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    stream.write_text("y1\ny2\ny3\n")
    rc, out, _ = run(capsys, "chain-demo", str(stream), "--budget", "2", "--json")
    obj = json.loads(out)
    assert obj[-1] == {"stabilized_at": None, "truncated": True}


CHAIN_D6_I3 = {  # chain-demo --degree 6 --indices 3 over the 1,627-monomial basis
    "graded": 5,
    "lex": 2,
    "total": 85,
}


@pytest.mark.parametrize("order", sorted(CHAIN_D6_I3))
def test_chain_demo_builtin_orders_exact(capsys, order):
    step = CHAIN_D6_I3[order]
    argv = ("chain-demo", "--degree", "6", "--indices", "3", "--order", order)
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == ("step 1: adjoined + 1\n"
                   f"step {step}: adjoined + z1\n"
                   f"stabilized at step {step} (1627 steps seen)\n")
    rc, out, err = run(capsys, *argv, "--json")
    assert (rc, err) == (0, "")
    assert out == ('[{"step": 1, "lt": {"coeff": "1", "m": {"y": [], "c": [], "d": []}}}, '
                   f'{{"step": {step}, "lt": {{"coeff": "1", "m": {{"y": [], "c": [1], "d": []}}}}}}, '
                   f'{{"stabilized_at": {step}}}]\n')


def test_chain_demo_graded_budget_boundary(capsys):
    # a budget equal to the stream length consumes it whole: no truncation
    rc, out, _ = run(capsys, "chain-demo", "--degree", "6", "--indices", "3", "--budget", "1627")
    assert rc == 0 and out.endswith("stabilized at step 5 (1627 steps seen)\n")
    rc, out, _ = run(capsys, "chain-demo", "--degree", "6", "--indices", "3", "--budget", "1626")
    assert rc == 0 and out.endswith("budget exhausted after 1626 steps; no stabilization claim\n")


def test_chain_demo_bad_degree_reported_before_bad_budget(capsys):
    rc, out, err = run(capsys, "chain-demo", "--degree", "-1", "--budget", "0")
    assert (rc, out, err) == (1, "", "error: need max_degree >= 0 and max_index >= 1\n")
    rc, out, err = run(capsys, "chain-demo", "--degree", "-1", "--budget", "0", "--json")
    assert (rc, out) == (1, "")
    assert err == ('{"error": "ValueError", "message": '
                   '"need max_degree >= 0 and max_index >= 1"}\n')
    rc, out, err = run(capsys, "chain-demo", "--degree", "3", "--budget", "0")
    assert (rc, out, err) == (1, "", "error: budget must be >= 1\n")


def test_chain_demo_graded_streams_under_budget(capsys):
    # the basis has 94,991,472 monomials; the budget must stop the enumeration
    start = time.perf_counter()
    rc, out, _ = run(capsys, "chain-demo", "--degree", "14", "--indices", "6", "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert out == ("step 1: adjoined + 1\n"
                   "step 8: adjoined + z1\n"
                   "budget exhausted after 10 steps; no stabilization claim\n")


def _fresh_cli(*argv):
    """Run the CLI in a fresh interpreter, so stderr holds exactly what a
    shell user would see: (completed process, seconds)."""
    src = str(Path(m2sl2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "m2sl2.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    return proc, time.perf_counter() - start


def test_cli_import_loads_no_dataclasses_or_code_tools():
    # a one-shot command pays for what it runs: importing the command line
    # in a fresh interpreter loads neither dataclasses nor the modules it
    # pulls in
    src = str(Path(m2sl2.__file__).resolve().parents[1])
    code = ("import sys, m2sl2.cli; "
            "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_chain_demo_graded_many_indices():
    # 5,000 y-exponent slots: the enumeration must not recurse once per slot
    argv = ("chain-demo", "--degree", "2", "--indices", "5000", "--budget", "10")
    proc, seconds = _fresh_cli(*argv)
    assert seconds < 1.0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("step 1: adjoined + 1\n"
                           "budget exhausted after 10 steps; no stabilization claim\n")


@pytest.mark.parametrize("argv, out", [
    (("embed", "z1^1999999*z10000", "z1"), "incomparable\n"),
    (("embed", "z1", "z1^1999999*z10000"), "1->1\n"),
    (("reduce", "y1*z1^1999999*z10000", "GENS"), "0\n"),
], ids=["embed-left", "embed-right", "reduce"])
def test_embedding_rows_linear_in_letters(tmp_path, argv, out):
    # 2,000,000 letters on index 1 and one on index 10,000: a monomial's
    # rows are built in one walk over its letters, not one count of the
    # slots per index, which took over two minutes here
    gens = tmp_path / "gens.txt"
    gens.write_text("z1^1999999*z10000\n")
    proc, seconds = _fresh_cli(*[str(gens) if a == "GENS" else a for a in argv])
    assert seconds < 3.0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("--degree", "2", "--indices", "5000", "--order", "lex"),  # 62,512,501 monomials
    ("--degree", "14", "--indices", "6", "--order", "total", "--budget", "10"),  # 94,991,472
    ("--degree", "2", "--indices", "5000"),  # graded, under the default budget of 1,000,000
])
@pytest.mark.parametrize("as_json", [False, True])
def test_chain_demo_sorted_orders_refuse_before_sorting(argv, as_json):
    # lex and total sort the whole basis before the budget applies, and a
    # graded stream under a budget past the cap may stream all of it, so
    # they take the independence cap and refuse at once from the
    # closed-form count
    proc, seconds = _fresh_cli("chain-demo", *argv, *(["--json"] if as_json else []))
    assert seconds < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    msg = "enumeration exceeded 200000 monomials; tighten the caps"
    if as_json:
        assert json.loads(proc.stderr) == {"error": "ResourceBoundError", "message": msg}
    else:
        assert proc.stderr == f"error: {msg}\n"


def test_independence_cli(capsys):
    rc, out, _ = run(capsys, "independence", "--degree", "2", "--indices", "2")
    assert rc == 0
    assert "monomials: 16" in out and "rank: 16" in out and "full rank: yes" in out
    rc, out, _ = run(capsys, "independence", "--degree", "2", "--indices", "2", "--json")
    obj = json.loads(out)
    assert obj["rank"] == 16 and obj["monomials"] == 16


@pytest.mark.parametrize("as_json", [False, True])
def test_independence_refuses_before_enumerating(capsys, as_json):
    # 19,319,265 basis monomials: the closed-form count refuses at once
    start = time.perf_counter()
    rc, out, err = run(capsys, "independence", "--degree", "12", "--indices", "6",
                       *(["--json"] if as_json else []))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    msg = "enumeration exceeded 200000 monomials; tighten the caps"
    if as_json:
        assert json.loads(err) == {"error": "ResourceBoundError", "message": msg}
    else:
        assert err == f"error: {msg}\n"


def test_pwos_min_cli(tmp_path, capsys):
    f = tmp_path / "monos.txt"
    f.write_text("y1^2\ny1\ny2\nz1\n")
    rc, out, _ = run(capsys, "pwos-min", str(f))
    assert rc == 0
    assert out.splitlines() == ["y1", "z1"]


@pytest.mark.parametrize("body", ["", "# comments only\n\n  # and blanks\n"])
def test_pwos_min_empty_answer_prints_nothing(tmp_path, capsys, body):
    f = tmp_path / "monos.txt"
    f.write_text(body)
    assert run(capsys, "pwos-min", str(f)) == (0, "", "")
    assert run(capsys, "pwos-min", str(f), "--json") == (0, "[]\n", "")


# --- error paths -------------------------------------------------------------

def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "normalize", "y0")
    assert rc == 1
    assert err.startswith("error: syntax error at byte 1")


def test_parse_error_json(capsys):
    rc, _, err = run(capsys, "normalize", "y1 z2", "--json")
    assert rc == 1
    obj = json.loads(err)
    assert obj["error"] == "ParseError"
    assert obj["offset"] == 3
    assert "'*'" in obj["expected"]


@pytest.mark.parametrize("expr,offset,expected", [
    ("y1)", 2, ("'*'", "'+'", "'-'", "'^'", "end of input")),
    ("y1 y2", 3, ("'*'", "'+'", "'-'", "'^'", "end of input")),
    ("y1^2^3", 4, ("'*'", "'+'", "'-'", "end of input")),
    ("z1 + (y1^2)]", 11, ("'*'", "'+'", "'-'", "'^'", "end of input")),
    ("z1 + y1^2 ,", 10, ("'*'", "'+'", "'-'", "end of input")),
    # inside brackets the closer takes the place of the end of input
    ("(y1 y2)", 4, ("'*'", "'+'", "'-'", "'^'", "')'")),
    ("[y1 y2, z1]", 4, ("'*'", "'+'", "'-'", "'^'", "','")),
    ("[y1, z1^2 y2]", 10, ("'*'", "'+'", "'-'", "']'")),
    ("(y1^2^3)", 5, ("'*'", "'+'", "'-'", "')'")),
    ("((y1)^2 z1)", 8, ("'*'", "'+'", "'-'", "')'")),
    ("(y1", 3, ("'*'", "'+'", "'-'", "'^'", "')'")),
])
def test_trailing_token_error_lists_what_may_follow(capsys, expr, offset, expected):
    # after a complete expression only an operator may follow, and '^' only
    # when the last factor has no exponent yet
    rc, _, err = run(capsys, "normalize", expr, "--json")
    assert rc == 1
    obj = json.loads(err)
    assert (obj["offset"], obj["expected"]) == (offset, list(expected))
    rc, _, err = run(capsys, "normalize", expr)
    assert err.endswith(f"(expected {', '.join(expected)})\n")


@pytest.mark.parametrize("argv,out", [
    (("normalize", "-y1"), "- y1\n"),
    (("normalize", "-2*y1", "--json"),
     '[{"coeff": "-2", "m": {"y": [1], "c": [], "d": []}}]\n'),
    (("normalize", "--", "-y1"), "- y1\n"),
    (("is-identity", "-[y1,y2]"), "true\n"),
    (("compare", "-y1", "y2"), "<\n"),
    (("embed", "-y1", "y1*y2"), "1->1\n"),
    (("factor", "-z1", "y1*z1*z2"), "phi: 1->1\nN: y1\nP: z2\n"),
    (("reduce", "-y1"), "- y1\n"),
])
def test_leading_minus_is_an_expression(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_single_dash_arguments_are_not_options(capsys):
    # a negative option value still reaches the engine's own check
    rc, _, err = run(capsys, "independence", "--degree", "-1")
    assert (rc, err) == (1, "error: need max_degree >= 0 and max_index >= 1\n")
    # a file argument that starts with a minus sign is a path
    rc, _, err = run(capsys, "chain-demo", "-x")
    assert rc == 1 and "No such file" in err
    with pytest.raises(SystemExit) as ei:
        main(["normalize", "-h"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("usage: m2sl2 normalize")
    with pytest.raises(SystemExit) as ei:
        main(["normalize", "--y1"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_leading_minus_in_a_fresh_interpreter():
    proc, _ = _fresh_cli("normalize", "-y1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "- y1\n", "")


@pytest.mark.parametrize("expr,offset", [
    ("(" * 3000 + "y1" + ")" * 3000, 100),  # nesting cap, not RecursionError
    ("y100000000000", 1),                   # index cap, not MemoryError
    ("y\u00b2", 1),                         # isdigit() but not int(), not ValueError
    pytest.param("1" * 5000, 0, id="literal-5000-digits"),        # not int()'s ValueError
    pytest.param("y1^" + "1" * 5000, 3, id="exponent-5000-digits"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_hostile_input_is_parse_error(expr, offset, as_json):
    # a fresh interpreter, so stderr holds exactly what a shell user would see
    src = str(Path(m2sl2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "m2sl2.cli", "normalize", expr] + (["--json"] if as_json else [])
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if as_json:
        obj = json.loads(proc.stderr)
        assert obj["error"] == "ParseError" and obj["offset"] == offset
    else:
        assert proc.stderr.startswith(f"error: syntax error at byte {offset}")


@pytest.mark.parametrize("as_json", [False, True])
def test_expansion_cap_is_resource_error(as_json):
    # 2^50 words: the cap fires before any word is built
    src = str(Path(m2sl2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    expr = "[" * 50 + "y1" + ",z2]" * 50
    argv = [sys.executable, "-m", "m2sl2.cli", "normalize", expr] + (["--json"] if as_json else [])
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if as_json:
        assert json.loads(proc.stderr)["error"] == "ResourceBoundError"
    else:
        assert proc.stderr.startswith("error: expression expands to more than")


def test_is_identity_never_rewrites(capsys, monkeypatch):
    # the oracle evaluates raw words; the rewriting it checks is never consulted
    import m2sl2.freealg

    def refuse(name):
        def call(*args):
            raise AssertionError(f"is-identity called {name}")
        return call

    monkeypatch.setattr(m2sl2.freealg, "reduce_word", refuse("reduce_word"))
    for module in (m2sl2.freealg, m2sl2.parsing):
        monkeypatch.setattr(module, "reduce_powers", refuse("reduce_powers"))
    for expr, want in (("[[y1,z1],[z2,y2]] + z1*y2 + y2*z1", "false"),
                       ("(y1*z1 + z1*y1)*(z2+y3)^2", "true"),
                       ("(z1+z2)*(z2+z3)*(z3+z1) - (z3+z1)*(z2+z3)*(z1+z2)", "true"),
                       # a power of a base of one canonical term, charged by row 1
                       ("(y1*y2 + y2*y1)^3 - 8*y1^3*y2^3", "true")):
        rc, out, _ = run(capsys, "is-identity", expr)
        assert rc == 0 and out == want + "\n"
        rc, out, _ = run(capsys, "is-identity", expr, "--json")
        assert rc == 0 and json.loads(out) == {"identity": want == "true"}
    with pytest.raises(AssertionError, match="reduce_word"):
        parse_poly("(y1 + z1)")
    with pytest.raises(AssertionError, match="reduce_powers"):
        parse_poly("y1*z1")


def test_huge_powers_of_single_words(capsys):
    rc, out, _ = run(capsys, "normalize", "1^100000000000000")
    assert rc == 0 and out == "+ 1\n"
    rc, out, _ = run(capsys, "normalize", "0^100000000000000")
    assert rc == 0 and out == "0\n"
    rc, out, _ = run(capsys, "is-identity", "(-1)^100000000000001 + 1")
    assert rc == 0 and out == "true\n"
    rc, _, err = run(capsys, "normalize", "y1^100000000000000", "--json")
    assert rc == 1 and json.loads(err)["error"] == "ResourceBoundError"
    rc, _, err = run(capsys, "is-identity", "3^100000000000000")
    assert rc == 1 and err.startswith("error: powers of single words build coefficients")
    # a base of two words and one canonical term: both commands charge its
    # power by that term, and refuse before squaring 1.9-million-bit numbers
    for flag in ((), ("--json",)):
        t0 = time.perf_counter()
        outcomes = [run(capsys, cmd, "(3^1200000*y1 + y1)^19", *flag)
                    for cmd in ("normalize", "is-identity")]
        assert time.perf_counter() - t0 < 1.0
        assert outcomes[0] == outcomes[1] and outcomes[0][:2] == (1, "")
        assert "coefficients of more than 4000000 bits" in outcomes[0][2]


@pytest.mark.parametrize("as_json", [False, True])
def test_normalize_reads_a_power_of_y_as_its_exponent(capsys, as_json):
    # y1^10000000 is within the letters cap and is read as an exponent: the
    # traced peak stays far below the 80 MB of a tuple of its letters, and
    # one letter more is refused as before
    flag = ("--json",) if as_json else ()
    tracemalloc.start()
    try:
        done = run(capsys, "normalize", "y1^10000000", *flag)
        refused = run(capsys, "normalize", "y1^10000001", *flag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    message = "powers of single words build more than 10000000 letters"
    if as_json:
        assert done[0] == 0 and json.loads(done[1]) == [
            {"coeff": "1", "m": {"y": [10000000], "c": [], "d": []}}]
        assert refused[0] == 1 and json.loads(refused[2]) == {
            "error": "ResourceBoundError", "message": message}
    else:
        assert done == (0, "+ y1^10000000\n", "")
        assert refused == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("as_json", [False, True])
def test_empty_word_powers_past_maxsize(capsys, as_json):
    # the empty word's power is built without repeating it k times
    huge = "99999999999999999999"
    flag = ("--json",) if as_json else ()
    rc, out, _ = run(capsys, "normalize", f"1^{huge}", *flag)
    assert rc == 0
    assert (json.loads(out) == [{"coeff": "1", "m": {"y": [], "c": [], "d": []}}]
            if as_json else out == "+ 1\n")
    rc, out, _ = run(capsys, "is-identity", f"(-1)^{huge}*y1", *flag)
    assert rc == 0
    assert json.loads(out) == {"identity": False} if as_json else out == "false\n"
    rc, _, err = run(capsys, "is-identity", f"y1^{huge}", *flag)
    message = json.loads(err)["message"] if as_json else err
    assert rc == 1 and "powers of single words build more than 10000000 letters" in message


@pytest.mark.parametrize("as_json", [False, True])
def test_coefficients_too_long_to_print(tmp_path, capsys, as_json):
    # a coefficient past MAX_COEFF_DIGITS is a ResourceBoundError before any
    # output, on every Python: 2^20000 has 6,021 digits
    flag = ("--json",) if as_json else ()
    stream = tmp_path / "stream.txt"
    stream.write_text("y2\n2^20000*y1\n")  # y2 is adjoined, then the huge one
    gens = tmp_path / "gens.txt"
    gens.write_text("y1\n")
    trace = tmp_path / "trace.json"
    for argv in (["normalize", "2^20000"], ["reduce", "2^20000*y1"],
                 ["reduce", "2^20000*y1", str(gens), "--trace", str(trace)],  # q in the trace
                 ["chain-demo", str(stream)]):
        rc, out, err = run(capsys, *argv, *flag)
        assert rc == 1 and out == "", argv
        if as_json:
            assert json.loads(err) == {"error": "ResourceBoundError",
                                       "message": "coefficient longer than 4300 digits"}
        else:
            assert err == "error: coefficient longer than 4300 digits\n"
    assert not trace.exists()
    # without a trace the remainder 0 has nothing to convert
    rc, out, _ = run(capsys, "reduce", "2^20000*y1", str(gens))
    assert rc == 0 and out == "0\n"
    rc, out, _ = run(capsys, "normalize", "2^14000", *flag)  # 4,215 digits
    want = str(2 ** 14000)
    assert rc == 0 and len(want) == 4215
    assert json.loads(out)[0]["coeff"] == want if as_json else out == f"+ {want}*1\n"


def test_is_identity_tree_matches_raw_words_on_caps(capsys, monkeypatch):
    cases = ["1^100000000000000", "0^100000000000000", "(-1)^100000000000001 + 1",
             "y1^100000000000000", "3^100000000000000", "[" * 50 + "y1" + ",z2]" * 50,
             "(y1+z1+z2)^13", "y1^99999999999999999999", "(-1)^99999999999999999999*y1",
             "0*y1^10000001", "(0*(y1+z1) + y1)^10000001", "[0, y1^10000001]",
             "y1^3*(y1+z1)*y1^9999998", "(y1+z1)^2*2^2000001"]

    def outputs():
        return [run(capsys, "is-identity", expr, *flag)
                for expr in cases for flag in ((), ("--json",))]

    def raw_entries(node):
        # all four entries of the oracle's matrix: none is nonzero exactly
        # when the matrix is zero
        m = raw_evaluate_tree(node)
        return m.e11.terms, m.e12.terms, m.e21.terms, m.e22.terms

    tree = outputs()
    monkeypatch.setattr(m2sl2.cli, "parse", oracle_parse)
    monkeypatch.setattr(m2sl2.cli, "_tree_row", raw_entries)
    assert outputs() == tree
    assert sum(rc == 1 for rc, _, _ in tree) == 20


def test_is_identity_power_of_sum_within_budget(capsys):
    # 531,441 raw words; evaluated on the tree it takes milliseconds
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "is-identity", "(y1+z1+z2)^12")
    assert rc == 0 and out == "false\n"
    assert time.perf_counter() - t0 < 1.0


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    # one parser serves every call; no call, good or bad, changes what the
    # next one prints
    gens = tmp_path / "gens.txt"
    gens.write_text("2*y1\n")
    stream = tmp_path / "stream.txt"
    stream.write_text("y1^2\nz1*z2\ny1\n")
    calls = [
        ["chain-demo", "--degree", "2"],
        ["normalize", "(y1+z1)^2"],
        ["is-identity", "[y1,y2]", "--json"],
        ["compare", "y1^2", "y1*y2"],
        ["embed", "y1", "y2^3"],
        ["factor", "z1", "z1*z2", "--json"],
        ["reduce", "3*y1", str(gens), "--json"],
        ["chain-demo", str(stream)],
        ["chain-demo", "--degree", "3", "--indices", "2", "--order", "total", "--json"],
        ["independence", "--degree", "3"],
        ["pwos-min", str(stream)],
        ["normalize", "--help"],
    ]

    def call(argv):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = ("exit", exc.code)
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(m2sl2.cli, "build_parser", refuse)
    first = [call(argv) for argv in calls]
    assert [rc for rc, _, _ in first] == [0] * (len(calls) - 1) + [("exit", 0)]
    usage = call(["compare", "y1"])
    assert usage[0] == ("exit", 2) and usage[2].startswith("usage: m2sl2 compare")
    again = [call(argv) for argv in reversed(calls)]
    assert again == first[::-1]
    assert call(["compare", "y1"]) == usage


def test_missing_file_is_domain_error(capsys):
    rc, _, err = run(capsys, "pwos-min", "/nonexistent/monos.txt")
    assert rc == 1 and "error:" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        main(["compare", "y1"])
    assert ei.value.code == 2
    capsys.readouterr()


# (argv, the subcommand that reports, the argument its error names): each
# subcommand's missing positional, each integer option given a non-integer,
# a bad --order, an unknown subcommand and none at all
USAGE_ERRORS = [
    (["normalize"], "normalize", "expr"),
    (["is-identity"], "is-identity", "expr"),
    (["compare", "y1"], "compare", "right"),
    (["embed"], "embed", "left"),
    (["factor", "y1"], "factor", "right"),
    (["reduce"], "reduce", "expr"),
    (["pwos-min"], "pwos-min", "file"),
    (["chain-demo", "--degree", "x"], "chain-demo", "--degree"),
    (["chain-demo", "--indices", "2.5"], "chain-demo", "--indices"),
    (["chain-demo", "--budget", "ten"], "chain-demo", "--budget"),
    (["chain-demo", "--order", "bad"], "chain-demo", "--order"),
    (["independence", "--degree", "x"], "independence", "--degree"),
    (["independence", "--indices", "x"], "independence", "--indices"),
    (["frobnicate"], None, "command"),
    ([], None, "command"),
]


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("argv, cmd, arg", USAGE_ERRORS, ids=[" ".join(c[0]) or "none" for c in USAGE_ERRORS])
def test_usage_error_names_the_argument(capsys, argv, cmd, arg, json_flag):
    # argparse's own wording and wrapping vary between Python versions, so
    # the error line is checked by its prefix and the argument it names
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--json"] * json_flag)
    assert ei.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    prefix = f"m2sl2 {cmd}: error:" if cmd else "m2sl2: error:"
    line, = [ln for ln in cap.err.splitlines() if ": error:" in ln]
    assert line.startswith(prefix) and arg in line[len(prefix):], line


def test_usage_errors_cover_every_subcommand():
    choices = next(a.choices for a in m2sl2.cli._PARSER._actions if a.dest == "command")
    assert {cmd for _, cmd, _ in USAGE_ERRORS} - {None} == set(choices) and len(choices) == 9


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "normalize", "(y1+z1+y2)^3")
        outs.add(out)
    assert len(outs) == 1


def test_printing_matches_library_order(capsys):
    # descending order: leading term printed first
    _, out, _ = run(capsys, "normalize", "y1 + z1 + y1*y2")
    f = parse_poly("y1 + z1 + y1*y2")
    assert out.strip().startswith("+ z1")
    assert parse_poly(out.strip()) == f
