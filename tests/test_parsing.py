import math
import random
import re
import sys
import time
from itertools import groupby

import pytest

from m2sl2 import (
    ONE,
    CanonicalMonomial,
    LieBracket,
    LieVar,
    ParseError,
    QPoly,
    ResourceBoundError,
    enumerate_basis,
    is_graded_weak_identity,
    lie_to_words,
    normalize,
    parse_poly,
)
from m2sl2.cli import format_qpoly, main
import m2sl2.parsing
from m2sl2.genmat import _matrix, _tree_row, evaluate
from m2sl2.parsing import MAX_WORDS, _Parser, _add_terms, fold_tree, parse, parse_words, to_words
from tests.util import (
    LOOP_KINDS,
    loop_tokenize,
    oracle_parse,
    oracle_word_count,
    oracle_words,
    product_evaluate,
    rand_qpoly,
    raw_evaluate_tree,
    word,
    y,
    z,
)


def tree_matrix(node):
    """The whole generic matrix of a parse tree, from the first row that
    is-identity folds (genmat._tree_row)."""
    return _matrix(_tree_row(node))


def rand_expr(rng: random.Random, depth: int) -> str:
    """A random grammar string: sums, products, powers (^0 included),
    commutators, zero and signed integer coefficients, nested to `depth`."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return str(rng.choice((0, 0, 1, 2, 3)))
        return f"{rng.choice('yz')}{rng.randint(1, 3)}"
    r = rng.random()
    if r < 0.3:
        parts = [rand_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        return " + ".join(parts) if rng.random() < 0.5 else " - ".join(parts)
    if r < 0.55:
        return "*".join(f"({rand_expr(rng, depth - 1)})" for _ in range(rng.randint(2, 3)))
    if r < 0.75:
        return f"({rand_expr(rng, depth - 1)})^{rng.randint(0, 3)}"
    if r < 0.9:
        return f"[{rand_expr(rng, depth - 1)}, {rand_expr(rng, depth - 1)}]"
    return f"-{rng.randint(0, 3)}*({rand_expr(rng, depth - 1)})"


def mk(yexp=(), cseq=(), dseq=()):
    return CanonicalMonomial.make(yexp, cseq, dseq)


def test_words_and_atoms():
    assert parse_poly("y1") == QPoly.letter(y(1))
    assert parse_poly("z12") == QPoly.letter(z(12))
    assert parse_poly("\u0663*z\u0661\u0662") == parse_poly("3*z12")  # Arabic-Indic digits
    assert parse_poly("0").is_zero()
    assert parse_poly("-3") == QPoly.monomial(ONE) * -3
    assert parse_poly("y1*y2 - y2*y1").is_zero()


def test_powers_and_parens():
    assert parse_poly("y1^3") == QPoly.monomial(mk((3,)))
    assert parse_poly("(y1 + y2)^2") == parse_poly("y1^2 + 2*y1*y2 + y2^2")
    assert parse_poly("y1^0") == QPoly.monomial(ONE)
    assert parse_poly("2^3") == QPoly.monomial(ONE) * 8


def test_commutators():
    assert parse_poly("[y1,y2]").is_zero()
    assert parse_poly("[y1,z1]") == QPoly.monomial(mk((1,), (1,)), 2)
    nested = parse_poly("[z1,[y1,z2]]")
    manual = parse_poly("z1*(y1*z2 - z2*y1) - (y1*z2 - z2*y1)*z1")
    assert nested == manual


def test_signs():
    assert parse_poly("-y1 + y1").is_zero()
    assert parse_poly("- 2*y1") == QPoly.monomial(mk((1,)), -2)
    assert parse_poly("+y1") == QPoly.letter(y(1))


def test_parse_words_raw():
    ws = parse_words("z1*y1")
    assert ws == [(1, word(z(1), y(1)))]
    # raw words are not reduced; normalization happens separately
    assert normalize(ws) == QPoly.monomial(mk((1,), (1,)), -1)


@pytest.mark.parametrize(
    "text,offset,expected_any",
    [
        ("y0", 1, "index >= 1"),
        ("z-1", 1, "digits"),
        ("y1 z2", 3, "'*'"),
        ("2**3", 2, "'y'"),
        ("[y1 y2]", 4, "','"),
        ("(y1", 3, "')'"),
        ("y1^", 3, "nonnegative integer exponent"),
        ("w1", 0, None),
        ("", 0, "'y'"),
        ("[y1,y2,z1]", 6, "']'"),
        ("y100000000000", 1, "index <= 10000"),
        ("y" + "9" * 5000, 1, "index <= 10000"),
        ("(" * 3000 + "y1" + ")" * 3000, 100, None),
        ("[" * 60 + "(" * 41 + "y1", 100, None),
        # isdigit() but not decimal: int() cannot read these
        ("y\u00b2", 1, "digits"),
        ("\u00b2", 0, None),
        ("y1^\u00b2", 3, None),
        # int() refuses more than 4,300 digits from Python 3.10.7 on; the cap
        # is the same on every Python, and leading zeros count
        pytest.param("1" * 5000, 0, "at most 4300 digits", id="literal-5000-digits"),
        pytest.param("0" * 4300 + "1", 0, "at most 4300 digits", id="literal-4301-digits"),
        pytest.param("y1^" + "1" * 5000, 3, "at most 4300 digits", id="exponent-5000-digits"),
    ],
)
def test_parse_errors(text, offset, expected_any):
    with pytest.raises(ParseError) as ei:
        parse_poly(text)
    assert ei.value.offset == offset
    if expected_any is not None:
        assert expected_any in ei.value.expected
    assert f"at byte {offset}" in str(ei.value)


def test_caps_admit_their_limits():
    assert parse_poly("y10000") == QPoly.monomial(mk((0,) * 9999 + (1,)))
    assert parse_poly("(" * 100 + "y1" + ")" * 100) == parse_poly("y1")
    assert parse_poly("9" * 4300) == QPoly.monomial(ONE) * int("9" * 4300)
    assert parse_poly("0" * 4299 + "7") == QPoly.monomial(ONE) * 7
    assert parse_poly("0^" + "9" * 4300).is_zero()


@pytest.mark.parametrize("text", [
    "0", "7", "y1", "0*y1", "y1^0", "0^0", "0^3", "1^9", "(y1+z1)^3",
    "(y1 - y1)^2", "2*(y1+z2)*(z1+z2+y3)", "[y1+z1, [z2, y1*y2 + 3]]",
    "[[y1,z1],[z2,0]]", "(0*y1 + y2)^4 - [y1,y2]^2",
])
def test_word_count_matches_expansion(text):
    # the count each node gets as the parser builds it, at the root
    assert parse(text)[1] == oracle_word_count(oracle_parse(text)) == len(parse_words(text))


def test_word_cap():
    # counted as the tree is built: none of these expansions is ever built
    text = "(" + "+".join(["y1"] * 1000) + ")^2"
    assert parse(text)[1] == oracle_word_count(oracle_parse(text)) == MAX_WORDS
    for text in (
        "[" * 50 + "y1" + ",z2]" * 50,      # 2^50 words
        "(" + "+".join(["y1"] * 1001) + ")^2",
        "(y1+z1)^100000000000",            # no huge power is computed either
        "0*(y1+z1+z2)^13",                 # a factor past the cap, product empty
        "[y1,z1]^20",
    ):
        with pytest.raises(ResourceBoundError, match="words"):
            parse_words(text)


def test_parse_poly_matches_raw_expansion_randomized():
    # parse_poly normalizes product operands on the way; the raw expansion
    # normalized once must give the same polynomial
    rng = random.Random(91)
    shapes = {"^0": 0, "0": 0, "[": 0, ")^": 0}
    for _ in range(600):
        text = rand_expr(rng, 4)
        for key in shapes:
            shapes[key] += key in text
        assert parse_poly(text) == normalize(parse_words(text)), text
    assert all(n >= 20 for n in shapes.values()), shapes
    for text in ("((y1+z1)^2)^3", "((z1+z2)^2*(y1-z1))^2", "[(y1+z1)^2, z2]^2",
                 "(y1 - y1 + z1)^3", "(2*y1 + 0*z1)^4", "(z1*z2 - z2*z1 + 3)^3"):
        assert parse_poly(text) == normalize(parse_words(text)), text


def test_basis_theorem_on_random_expressions():
    # the finite basis of graded identities, seen on a finite window: the
    # generic-matrix oracle, on the raw words, finds an identity exactly when
    # the rewriting normalizes the expression to 0
    rng = random.Random(11)
    zeros = 0
    for _ in range(1000):
        text = rand_expr(rng, 4)
        zero = parse_poly(text).is_zero()
        assert is_graded_weak_identity(parse_words(text)) == zero, text
        zeros += zero
    assert 100 <= zeros <= 900, zeros


def _outcome(evaluate_fn, text):
    """The evaluation of the text's tree, or the ResourceBoundError message:
    tree_matrix on the package's tree, raw_evaluate_tree on the
    oracle's."""
    try:
        return evaluate_fn((oracle_parse if evaluate_fn is raw_evaluate_tree else parse)(text))
    except ResourceBoundError as exc:
        return str(exc)


# where a node's expansion crosses between at most one word and more
TREE_EDGE_CASES = (
    "0*(y1+z1)", "(y1+z1)*0*y1", "[0, y1+z1]", "[y1+z1, 0]^2", "(0*(y1+z1) + y1)^3",
    "(y1+z1)^0", "((y1+z1)*0)^0", "y1*y2*(y1+z1)*z1*z2*(z1-y2)*y3", "[y1, z1]",
    "[(y1+z1)^2, y2*z1]", "-2*[y1*z1, z2]^2", "(y1 - y1)^3 + 4", "(2*z1 + 3)^5",
)


def test_tree_evaluation_matches_raw_words():
    # is-identity evaluates the parse tree; the raw words' evaluation is the
    # oracle, entry by entry
    rng = random.Random(23)
    for _ in range(1200):
        text = rand_expr(rng, 4)
        assert _outcome(tree_matrix, text) == _outcome(raw_evaluate_tree, text), text
    for text in TREE_EDGE_CASES:
        assert tree_matrix(parse(text)) == raw_evaluate_tree(oracle_parse(text)), text


def test_tree_evaluation_matches_letter_by_letter_products():
    # tree_matrix and evaluate both build row 2 from row 1, so the general
    # 2x2 product over the ring checks all four entries independently
    rng = random.Random(27)
    checked = 0
    for _ in range(600):
        text = rand_expr(rng, 4)
        try:
            node = oracle_parse(text)
            if oracle_word_count(node) > 300:
                continue
            want = product_evaluate(oracle_words(node))
            got = tree_matrix(parse(text))
        except (ParseError, ResourceBoundError):
            continue
        assert got == want, text
        checked += 1
    assert checked > 300, checked


def test_is_identity_reads_the_first_row_alone(capsys):
    # is-identity tests the fold's first row for zero, with no row 2 built;
    # the whole matrix of tree_matrix is the oracle
    rng = random.Random(29)
    seen = {"true": 0, "false": 0}
    for _ in range(600):
        text = rand_expr(rng, 4)
        want = "true" if tree_matrix(parse(text)).is_zero() else "false"
        assert main(["is-identity", text]) == 0
        assert capsys.readouterr().out == want + "\n", text
        seen[want] += 1
    assert seen == {"true": 129, "false": 471}, seen


def test_tree_evaluation_charges_the_power_caps_like_to_words(monkeypatch):
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_BITS", 100)
    errors = 0
    for text in ("0*y1^101", "[0, y1^101]", "[y1^101, 0]", "(0*(y1+z1) + y1)^101",
                 "((y1+z1)*0)^0 * y1^101", "(y1^101 + z1)^0", "y1^60*(y1+z1)*y1^41",
                 "(y1+z1)^2 * y1^100", "(y1^10)^9 + (y1+z1)^3", "(y1^10 + z1)^9",
                 "2^50 * (y1+z1) * 2^51", "(2*y1^5 + z1)^3 * (3*y1)^30", "[2^60, y1+z1^40]",
                 "(3*y1^2)^60", "([0, y1+z1] + y1)^101", "([y1, 0] - y1)^101",
                 "(y1+z1)^" + "9" * 30, "1^" + "9" * 30 + " * y1^100"):
        want = _outcome(raw_evaluate_tree, text)
        assert _outcome(tree_matrix, text) == want, text
        errors += isinstance(want, str)
    assert errors == 13, errors


def test_parse_poly_charges_one_term_power_bases(monkeypatch):
    # a power whose base has one canonical term charges the caps by that
    # term, in both folds; the raw expansion has two words there and charges
    # nothing
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_BITS", 100)
    for text, cap in (("(y1^10 + y1^10)^9", "letters"),  # 20 + 90 letters
                      ("0*(y1^10+y1^10)^9", "letters"),
                      ("(2^20 + 2^20)^5", "bits"),  # 80 + 110 bits
                      ("(2^20*y1 + 2^20*y1)^5", "bits")):
        with pytest.raises(ResourceBoundError, match=cap) as ei:
            parse_poly(text)
        with pytest.raises(ResourceBoundError) as tree_ei:
            tree_matrix(parse(text))
        assert str(tree_ei.value) == str(ei.value), text
    for text, want in (("(y1 + y1)^19 * y1^80", QPoly.monomial(mk((99,)), 2 ** 19)),
                       ("(y1^10 - y1^10 + z1)^9", QPoly.monomial(mk((), (1,) * 5, (1,) * 4)))):
        assert parse_poly(text) == want, text
        assert tree_matrix(parse(text)) == evaluate(want), text
    # (y1 + y1)^19 * y1^80 answers there too, but its 2^19 raw words are not built here
    for text in ("(y1^10 + y1^10)^9", "(2^20 + 2^20)^5", "(2^20*y1 + 2^20*y1)^5",
                 "(y1^10 - y1^10 + z1)^9"):
        assert parse_words(text), text
    assert parse_words("0*(y1^10+y1^10)^9") == []


def test_parse_poly_folds_product_operands(monkeypatch):
    # (y1+z1+z2)^12 has 531,441 raw words but 140 canonical terms; with every
    # operand folded, no list handed to normalize holds a thousand words
    sizes = []
    real = m2sl2.parsing.normalize

    def counting(ws):
        sizes.append(len(ws))
        return real(ws)

    monkeypatch.setattr(m2sl2.parsing, "normalize", counting)
    f = parse_poly("(y1+z1+z2)^12")
    assert len(f.terms) == 140 and max(sizes) < 1000


def test_long_products_in_linear_time():
    # a product of 160,000 letters, written out or as powers of one letter:
    # its word is built once, not copied per factor as it grows, which took
    # over a minute per walk
    n = 160_000
    want = QPoly.monomial(mk((n,)))
    for text, charge in (("*".join(["y1"] * n), 0), ("*".join(["y1^1"] * n), n)):
        # each y1^1 is absorbed into the one word leaf, billing its letter
        assert parse(text) == ("w", 1, 1, (y(1),) * n, charge)
        t0 = time.perf_counter()
        assert parse_poly(text) == want
        assert tree_matrix(parse(text)) == evaluate(want)
        assert parse_words(text) == [(1, (y(1),) * n)]
        assert time.perf_counter() - t0 < 5.0


def test_bracket_raw_word_order():
    # AB's words, then BA's, each with the left operand outermost
    y1, y2, z1, z2 = y(1), y(2), z(1), z(2)
    assert parse_words("[y1 + 2*z1, z2 - y2]") == [
        (1, (y1, z2)), (-1, (y1, y2)), (2, (z1, z2)), (-2, (z1, y2)),
        (-1, (z2, y1)), (1, (y2, y1)), (-2, (z2, z1)), (2, (y2, z1)),
    ]
    # Lie brackets expand through the same product
    e = LieBracket(LieVar(z1), LieBracket(LieBracket(LieVar(y1), LieVar(y2)), LieVar(z2)))
    assert lie_to_words(e) == parse_words("[z1, [[y1, y2], z2]]")


def test_powers_of_single_words():
    assert parse_words("y1^4") == [(1, (("y", 1),) * 4)]
    assert parse_words("(2*z1*y2)^3") == [(8, (("z", 1), ("y", 2)) * 3)]
    assert len(parse_words("(y1 - y1)^5")) == 32  # two words: expanded, cancelled later
    assert parse_poly("(y1 - y1)^5").is_zero()
    assert parse_words("0^5") == [] and parse_words("0^0") == [(1, ())]
    assert parse_words("(-1)^100000000000001") == [(-1, ())]
    assert parse_poly("1^100000000000000") == QPoly.monomial(ONE)
    assert parse_words("1^99999999999999999999") == [(1, ())]  # past sys.maxsize
    assert parse_poly("(y1 + y1)^3") == QPoly.monomial(mk((3,)), 8)


def test_power_caps(monkeypatch):
    for text in ("y1^100000000000000", "(z1*z2)^5000001"):
        for parse_fn in (parse_words, parse_poly):
            with pytest.raises(ResourceBoundError, match="letters"):
                parse_fn(text)
    for text in ("2^2000001", "(3*y1)^2000001"):
        for parse_fn in (parse_words, parse_poly):
            with pytest.raises(ResourceBoundError, match="bits"):
                parse_fn(text)
    assert parse_words("2^2000000") == [(2 ** 2000000, ())]  # at the cap
    # the caps bound what all powers of single words build together
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_BITS", 100)
    assert parse_poly("y1^50 * y1^50") == parse_poly("y1^100")
    assert parse_poly("(y1^10)^9") == parse_poly("y1^90")  # 10 + 90 letters
    for text in ("y1^50 * y1^51", "(y1^10)^10", "y1^40 + z1^40 + y2^40"):
        with pytest.raises(ResourceBoundError, match="letters"):
            parse_poly(text)
    assert parse_poly("2^25 - 2^25 + 1^1000") == QPoly.monomial(ONE)  # 50 + 50 + 0 bits
    with pytest.raises(ResourceBoundError, match="bits"):
        parse_poly("2^25 * 2^26")


def _fold_outcomes(text):
    """parse_poly, tree_matrix and parse_words on a text, each as its value
    or its ResourceBoundError message."""
    out = []
    for fn in (parse_poly, lambda t: tree_matrix(parse(t)), parse_words):
        try:
            out.append(fn(text))
        except ResourceBoundError as exc:
            out.append(str(exc))
    return out


def _oracle_outcomes(text):
    """What _fold_outcomes must give, from the three-pass oracle."""
    try:
        words = oracle_words(oracle_parse(text))
    except ResourceBoundError as exc:
        return [str(exc)] * 3
    return [normalize(words), raw_evaluate_tree(oracle_parse(text)), words]


Y1 = y(1)
W1 = ("w", 1, 1, (Y1,), 0)
W2 = ("w", 1, 2, (), 0)


@pytest.mark.parametrize("text,node,cap", [
    ("y1^0", ("w", 1, 1, (), 0), None),
    ("0^0", ("w", 1, 1, (), 0), None),
    ("0^3", ("w", 0, 0, (), 0), None),
    ("(-y1)^3", ("w", 1, -1, (Y1,) * 3, 3), None),
    ("-2*y1^3*(-1)^5*y2", ("w", 1, 2, (Y1,) * 3 + (y(2),), 3), None),
    ("1^" + "9" * 30, ("w", 1, 1, (), 0), None),
    ("(1*1)^" + "9" * 30, ("w", 1, 1, (), 0), None),
    ("(y1^10)^9", ("w", 1, 1, (Y1,) * 90, 100), None),
    ("(y1^10)^0", ("w", 1, 1, (), 10), None),
    ("0*y1^60 + y1^40", ("add", 1, [(1, ("w", 0, 0, (Y1,) * 60, 60)),
                                    (1, ("w", 1, 1, (Y1,) * 40, 40))]), None),
    ("(0*y1)^60*y1^41", ("mul", 0, [("w", 0, 0, (Y1,) * 60, 0), ("pow", 1, W1, 41)]), None),
    ("(2*z1*y2)^3", ("pow", 1, ("w", 1, 2, (z(1), y(2)), 0), 3), None),
    ("(y1^10)^10", ("pow", 1, ("w", 1, 1, (Y1,) * 10, 10), 10), "letters"),
    ("y1^50*y1^51", ("mul", 1, [("w", 1, 1, (Y1,) * 50, 50), ("pow", 1, W1, 51)]), "letters"),
    ("2^60*y1^60", ("mul", 1, [("pow", 1, W2, 60), ("w", 1, 1, (Y1,) * 60, 60)]), "bits"),
    ("y1^30*y1^30*2^60", ("mul", 1, [("w", 1, 1, (Y1,) * 60, 60), ("pow", 1, W2, 60)]), "bits"),
    ("y1^60*y1^41*2^51", ("mul", 1, [("w", 1, 1, (Y1,) * 60, 60), ("pow", 1, W1, 41),
                                     ("pow", 1, W2, 51)]), "letters"),
    ("(-y1)^3*y1^60*2^51*y1^38", ("mul", 1, [("w", 1, -1, (Y1,) * 63, 63), ("pow", 1, W2, 51),
                                             ("pow", 1, W1, 38)]), "bits"),
])
def test_powers_of_unit_leaves_are_absorbed(monkeypatch, text, node, cap):
    # a power of a word leaf of coefficient -1, 0 or 1 becomes part of the
    # leaf while the letters so built stay within the letters cap, and the
    # leaf bills what the powers would have: same answers and same cap
    # messages as the oracle's powers
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_BITS", 100)
    assert parse(text) == node
    outcomes = _fold_outcomes(text)
    assert outcomes == _oracle_outcomes(text)
    assert [isinstance(o, str) and cap in o for o in outcomes] == [cap is not None] * 3


def test_run_coefficients_multiply_as_a_product_tree():
    # a run's integer factors, zeros and negative ones (in brackets)
    # included, give the sequential product
    rng = random.Random(25)
    for _ in range(400):
        lits = [rng.choice((0, 1, -1, 2, -3, rng.randint(-10 ** 30, 10 ** 30)))
                for _ in range(rng.randint(1, 40))]
        factors = [f"({v})" if v < 0 else str(v) for v in lits] + ["y1"] * rng.randint(0, 2)
        rng.shuffle(factors)
        node = parse("*".join(factors))
        assert node[0] == "w" and node[2] == math.prod(lits), factors
    # long runs of long literals: one at a time, 4,000 factors took over 12 s
    lit = "7" * 300
    t0 = time.perf_counter()
    f = parse_poly("*".join([lit] * 4000))
    assert time.perf_counter() - t0 < 5.0
    assert f == QPoly.monomial(ONE) * int(lit) ** 4000


def test_error_mentions_offending_lexeme():
    with pytest.raises(ParseError, match="got z2"):
        parse_poly("y1 z2")


def test_print_parse_roundtrip_corpus():
    rng = random.Random(90)
    seen = 0
    while seen < 120:
        f = rand_qpoly(rng, max_terms=5, max_degree=6, max_index=4)
        text = format_qpoly(f)
        assert parse_poly(text) == f
        seen += 1
    # fixed shapes worth pinning
    for text in ("0", "+ 1", "- 1", "+ y1*z1*z2 - 3*z1"):
        assert format_qpoly(parse_poly(text)) == format_qpoly(parse_poly(format_qpoly(parse_poly(text))))


def test_whitespace_insensitive():
    assert parse_poly(" y1 * y2 ") == parse_poly("y1*y2")
    assert parse_poly("[ z1 , z2 ]") == parse_poly("[z1,z2]")


# the scanner's alphabet: Unicode whitespace (U+00A0, U+2003, U+3000, U+001C)
# and the zero-width space U+200B, which is not whitespace; ASCII and
# Arabic-Indic digits; letter tokens at and past the index caps; a
# superscript two, which isdigit() accepts but int() cannot read
_SCAN_PIECES = (
    " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u200b",
    "+", "-", "*", "^", "(", ")", "[", "]", ",", "y", "z", "w", "\u00e9",
    "0", "1", "7", "10", "\u0661", "\u0660", "\u0663\u0662",
    "y0", "y00", "z007", "y10000", "y10001", "y1", "z12", "y\u0661", "z\u0660\u0663",
    "\u00b2",
)


def _scan(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset, exc.expected)


def _scanned(text: str) -> list[tuple]:
    """The (kind, value, pos) tokens the parser pulls from the scanner,
    ending in EOF."""
    p = _Parser(text)
    toks = []
    while p.kind != "EOF":
        toks.append((p.kind, p.value, p.pos))
        p.advance()
    return toks + [("EOF", None, p.pos)]


def test_tokenize_matches_loop_oracle():
    rng = random.Random(97)
    kinds = {v: k for k, v in LOOP_KINDS.items()}
    loop_fails = 0
    for _ in range(100_000):
        text = "".join(rng.choice(_SCAN_PIECES) for _ in range(rng.randint(0, 8)))
        got = _scan(_scanned, text)
        # the regex scanner reads '\u00b2' as any other character, such as
        # '#'; the loop read it with the digit run around it
        want = _scan(loop_tokenize, text.replace("\u00b2", "#"))
        if isinstance(want, list):
            want = [(kinds.get(k, k), v, pos) for k, v, pos in want]
        else:
            want = (want[0], want[1].replace("'#'", "'\u00b2'")) + want[2:]
        assert got == want, text
        try:
            loop_tokenize(text)
        except ValueError:  # int() could not read the run holding '\u00b2'
            loop_fails += 1
        except ParseError:
            pass
    assert loop_fails > 1000


def test_scanner_character_classes():
    # \s is exactly str.isspace() and \d exactly the decimal digits int() reads
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    assert _scanned(spaces) == [("EOF", None, len(spaces))]
    decimals = re.findall(r"\d", every)
    assert decimals == [c for c in every if c.isdecimal()]
    assert all(0 <= int(c) <= 9 for c in decimals)


def test_trailing_whitespace_is_scanned_once():
    # the scan ends where the trailing whitespace starts: a scanner search
    # from each offset inside it took over 10 s on each of these texts
    spaces = " \t\n\u3000" * 4_000
    t0 = time.perf_counter()
    assert _scanned("y1*z2" + spaces)[-2:] == [("VAR", ("z", 2), 3), ("EOF", None, 16_005)]
    assert parse("y1*z2" + spaces) == parse("y1*z2")
    with pytest.raises(ParseError) as ei:
        parse("y1*" + spaces)
    assert ei.value.offset == 16_003 and "input ended" in str(ei.value)
    assert time.perf_counter() - t0 < 5.0


def _whole_outcome(parse_fn, count_fn, words_fn, text):
    """The raw words and word count of a text, or the error's type, message,
    offset and expected tuple."""
    try:
        node = parse_fn(text)
        return ("ok", count_fn(node), words_fn(node))
    except (ParseError, ResourceBoundError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "offset", None),
                getattr(exc, "expected", None))


def _mutated(rng: random.Random) -> str:
    """A grammar string, one in five with an exponent raised to 4-40, with up
    to three edits: a scanner piece inserted or put in place of a character,
    or a character deleted."""
    text = rand_expr(rng, rng.randint(0, 4))
    if rng.random() < 0.2:
        text = re.sub(r"\^\d", lambda _: f"^{rng.randint(4, 40)}", text, count=1)
    for _ in range(rng.randint(0, 3)):
        i, r = rng.randint(0, len(text)), rng.random()
        if r < 0.3:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_SCAN_PIECES) + text[i + (r >= 0.65):]
    return text


def front_end_outcomes(n: int, seed: int) -> tuple[dict, list]:
    """Run n mutated strings through the package's one-pass parser and the
    three-pass oracle, asserting that the whole outcomes agree.  Return how
    many ended in each outcome type, and the successes' texts and words."""
    rng = random.Random(seed)
    seen: dict = {}
    ok = []
    for _ in range(n):
        text = _mutated(rng)
        got = _whole_outcome(parse, lambda node: node[1], to_words, text)
        want = _whole_outcome(oracle_parse, oracle_word_count, oracle_words, text)
        assert got == want, text
        seen[got[0]] = seen.get(got[0], 0) + 1
        if got[0] == "ok":
            ok.append((text, want[2]))
    return seen, ok


def test_parse_matches_three_pass_oracle(monkeypatch):
    # small caps keep every expansion small and bring the word cap and the
    # power caps into reach of the short strings
    with monkeypatch.context() as patch:
        patch.setattr(m2sl2.parsing, "MAX_WORDS", 2000)
        patch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
        patch.setattr(m2sl2.parsing, "MAX_POWER_BITS", 100)
        seen, ok = front_end_outcomes(20_000, 101)
    assert seen["ok"] > 5000 and seen["ParseError"] > 5000, seen
    assert seen["ResourceBoundError"] > 50, seen
    # both folds, back under the real caps: parse_poly also bills a power
    # base that normalizes to one term, which the raw expansion does not
    for i, (text, words) in enumerate(ok):
        assert parse_poly(text) == normalize(words), text
        if i % 4 == 0:
            assert tree_matrix(parse(text)) == raw_evaluate_tree(oracle_parse(text)), text


@pytest.mark.parametrize("text,offset,message", [
    ("y1 y2 $", 6, "unexpected character '$'"),
    ("(" * 150 + "y1\u00a7", 152, "unexpected character '\u00a7'"),
    ("[y1, z1 y0", 9, "letter index must be >= 1"),
    ("y1 y2 " + "9" * 4301, 6, "integer longer than 4300 digits"),
    ("(" * 101 + "y1 + 1*" + "\u00b2", 108, "unexpected character"),
    ("y1)) y", 6, "letter 'y' needs an index"),
])
def test_lexical_error_after_syntax_error_wins(text, offset, message):
    for parse_fn in (parse, oracle_parse):
        with pytest.raises(ParseError, match=re.escape(message)) as ei:
            parse_fn(text)
        assert ei.value.offset == offset


def test_syntax_error_wins_over_the_caps(monkeypatch):
    # a syntax error is reported although the text also passes the word cap,
    # and the word cap before any power cap
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 100)
    with pytest.raises(ParseError, match="got y2"):
        parse_poly("(y1+z1)^100 y2")
    with pytest.raises(ParseError, match="input ended"):
        parse_poly("y1^1000 * (y1+z1)^100 *")
    with pytest.raises(ResourceBoundError, match="words"):
        parse_poly("y1^1000 * (y1+z1)^100")
    with pytest.raises(ResourceBoundError, match="letters"):
        parse_poly("y1^1000 * (y1+z1)^2")


def _factors(m: CanonicalMonomial) -> list[str]:
    """A canonical monomial's factors as written: y powers, then the z block."""
    ys = [f"y{i}" if e == 1 else f"y{i}^{e}" for i, e in enumerate(m.yexp, start=1) if e]
    zs = [f"z{i}" for pair in zip(m.cseq, m.dseq + (None,)) for i in pair if i is not None]
    return ys + zs


def _run_texts(m: CanonicalMonomial, rng: random.Random) -> list[str]:
    """A monomial times 1, -1, 7, -7 and a 300-digit literal, its factors in
    canonical order or shuffled, each with and without spaces around the
    operators."""
    shuffled = _factors(m)
    rng.shuffle(shuffled)
    out = []
    for factors in (_factors(m), shuffled):
        for coeff in ("", "-", "7*", "-7*", "7" * 300 + "*"):
            for star, caret in (("*", "^"), (" * ", " ^ ")):
                body = star.join(factors).replace("^", caret)
                out.append(coeff.replace("*", star) + body if body
                           else (coeff + "1").replace("*1", ""))  # 1, -1, 7, -7, ...
    return out


def test_runs_read_as_the_token_path_and_the_oracle():
    # every monomial of degree <= 6 over 3 indices: a run builds the word
    # leaf, charge included, whose word count and words are the three-pass
    # oracle's, and parse_poly reads it as the oracle's words normalized
    rng = random.Random(26)
    texts = [t for m in enumerate_basis(6, 3) for t in _run_texts(m, rng)]
    texts += ["y01*z1", "y\u0661*z1^\u0662", "y1*y10000*z1", "1*y1*1", "0*y1^5*z2",
              "y1^0*z1", "2*3*(y1+z1)*5*y2", "- y1*z2 - -y2*3", "(y1*y2^2)^3*z1"]
    assert len(texts) > 30_000
    for text in texts:
        node = parse(text)
        tree = oracle_parse(text)
        words = oracle_words(tree)
        assert node[1] == oracle_word_count(tree) and to_words(node) == words, text
        assert parse_poly(text) == normalize(words), text


def test_a_run_is_one_word_leaf():
    y1, y3, z1, z2 = y(1), y(3), z(1), z(2)
    assert parse("-15*y1*y3^3*z1*z2") == ("w", 1, -15, (y1, y3, y3, y3, z1, z2), 3)
    # a reduce-style line of 120 terms, one run each
    rng = random.Random(26)
    terms = [f" {rng.choice('+-')} {rng.randint(1, 99)}*{'*'.join(_factors(m))}"
             for m in rng.sample(list(enumerate_basis(7, 3))[1:], 120)]
    text = "".join(terms).lstrip(" +")
    node = parse(text)
    tree = oracle_parse(text)
    assert node[1] == oracle_word_count(tree) == 120 and to_words(node) == oracle_words(tree)


class _CountingTerm:
    """_TERM, recording the offset of each try and the length it matched."""

    def __init__(self):
        self.real, self.tries = m2sl2.parsing._TERM, []

    def match(self, text, pos):
        found = self.real.match(text, pos)
        self.tries.append((pos, found.end() - pos if found else 0))
        return found


def test_refused_runs_are_read_in_linear_time(monkeypatch):
    # parse_poly tries _TERM once per term it reads, each where the last
    # ended, and parses the text once a run fails to match or its powers
    # would pass the letters cap: here a long run whose last power passes
    # it, one whose powers pass it part way, and one that ends in a
    # juxtaposition.  A run has no bound on its factors, so the matches and
    # the parse stay linear in the text; the parse makes a "pow" node of the
    # first power that does not fit, or raises the ParseError of the token
    # path and the oracle
    counting = _CountingTerm()
    monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", 1000)
    monkeypatch.setattr(m2sl2.parsing, "_TERM", counting)
    texts = ("y1*" * 20_000 + "y1^1001", "*".join(["y1^7"] * 5000), "y1*" * 20_000 + "y1 y2")
    for text in texts:
        counting.tries.clear()
        t0 = time.perf_counter()
        got = _poly_outcome(parse_poly, text)
        assert time.perf_counter() - t0 < 5.0
        offsets = [pos for pos, _ in counting.tries]
        assert offsets == [0]  # one try, refused or failed, then the parse
        assert sum(n for _, n in counting.tries) <= len(text)
        assert got == _poly_outcome(_tree_poly, text)
        if text.endswith("y2"):
            error = _scan(parse, text)
            assert error == _scan(oracle_parse, text) and got == error[:3]
            assert error[2] == len(text) - 2
        else:
            node = parse(text)
            assert node[0] == "mul" and node[2][-1][0] == "pow"
    # a sum of runs, the last of which is refused: one try per term
    counting.tries.clear()
    text = " + ".join(["3*y1*z2"] * 50 + ["y1^1001*y2"])
    assert _poly_outcome(parse_poly, text) == _poly_outcome(_tree_poly, text)
    offsets = [pos for pos, _ in counting.tries]
    assert len(offsets) == 51 and offsets == sorted(set(offsets))
    assert sum(n for _, n in counting.tries) <= len(text)


@pytest.mark.parametrize("text,offset", [
    ("3*y1*y0", 6),
    ("-2*y1*y10001", 7),
    ("y1*z2^", 6),
    ("y1*z2 z3", 6),
    ("y1*z2^3^2", 7),
    ("-y1*z2^3 z3", 9),
    ("7*y1*", 5),
    ("y1*z2*(y3", 9),
    pytest.param("y1*" + "1" * 4301, 3, id="run-then-literal-4301-digits"),
    ("y1*\u00b2", 3),
    ("y1 * z2 ^ 3 $", 12),
])
def test_errors_at_run_boundaries(text, offset):
    # where a run stops or is refused, the error is the token path's and
    # the oracle's: message, offset and expected tuple
    errors = []
    for parse_fn in (parse, oracle_parse):
        with pytest.raises(ParseError) as ei:
            parse_fn(text)
        errors.append((str(ei.value), ei.value.offset, ei.value.expected))
    assert errors[0] == errors[1]
    assert errors[0][1] == offset


def _tree_poly(text: str) -> QPoly:
    """The tree path, the reference for parse_poly: fold_tree over parse."""
    return fold_tree(parse(text), normalize, _add_terms, QPoly.__mul__,
                     lambda f: [(m.degree, c) for m, c in f.terms.items()])


def _poly_outcome(fn, text: str) -> tuple:
    """fn's value on a text as its terms in order, or its error's type,
    message and offset."""
    try:
        return ("ok", list(fn(text).terms.items()))
    except (ParseError, ResourceBoundError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "offset", None))


def _written(m: CanonicalMonomial, rng: random.Random) -> str:
    """A monomial's factors, in canonical order or shuffled, and perhaps
    with each stretch of one letter written as its power."""
    factors = _factors(m)
    if rng.random() < 0.5:
        rng.shuffle(factors)
    if rng.random() < 0.3:
        factors = [f if len(same) == 1 else f"{f}^{len(same)}"
                   for f, same in ((f, list(g)) for f, g in groupby(factors))]
    return "*".join(factors)


def _sum_texts(rng: random.Random) -> list[str]:
    """Sums shaped like the benchmark's job lines: `reduce` polynomials of
    50-150 terms over enumerate_basis(7, 3), and `chain` items, one signed
    run each."""
    basis = list(enumerate_basis(7, 3))
    texts = []
    for _ in range(40):
        terms = []
        for m in rng.sample(basis, rng.randint(50, 150)):
            run = _written(m, rng)
            c = rng.randint(1, 99)
            terms.append(f" {rng.choice('+-')} {f'{c}*{run}' if run else c}")
        texts.append("".join(terms).lstrip(" +"))
    for _ in range(400):
        c = rng.choice((2, 3, 4, 5, 6, 9, 10, 12, 15, 30))
        texts.append(f"{rng.choice(('', '-'))}{c}*{_written(rng.choice(basis[1:]), rng)}")
    return texts


_EDGE_TEXTS = (
    "0", "0*y1", "-0*y1*z2 + 3", "y1 - y1", "7 - 7", "1-1+y1",
    "y1*z1 - y1*z1 + y1*z1", "2*y1 - 2*y1 + 5*z2 + 2*y1", "z1 + y1 - z1 + z1",
    "z1*y1", "z2*z1*y3^2*z1", "z1^3*y1^2", "z1*y1^3 - y1^3*z1", "z2^2*z1*y2*z1^3*y1",
    "y10^00", "y10^00*z1 + y10", "z1^0*y1 - y1", "y1^0", "-y1^1*z1",
    "\u0663*z1 - \u0664", "\u0663\u0660*y1^\u0662 + \u0661", "y1^\u0662*z1",
    "  y1*z2  ", "\t-y1\n", " + y1 - z1 ", "-   3*y1   +   4*z2", "+y1", "- y1",
    "y1 +-z1", "- 3 + - y1", "y1--z1", "--y1", "y1 +", "+", "", "   ", "y1 z1", "y1*2",
    "2*3*y1", "y1 * z1", "3 4", "y1^2^3", "y1 ^2", "y1*(z1)", "y01*z1", "y10000*z1",
    "y10001", "y0*z1", "z1 + $", "7" * 4300 + "*y1", "7" * 4301 + "*y1", "9" * 4301,
    "y1 + " + "9" * 4301, "-" + "9" * 4300, "y1^" + "9" * 4301,
    "y1^50*y1^50", "y1^50 + y1^50", "y1^50 + y1^51", "y1^40*z1^40 - y2^30*y1",
    "z1^101", "y1^100", "-y1^99*y2^2", "0*y1^101", "y1^101 - y1^101",
    "*".join(["y1"] * 64), "*".join(["y1"] * 65), "*".join(["z1^2"] * 70),
    "y1^10000000", "y1^10000001", "y1^5000000 + z2^5000001",
)


def test_sums_of_runs_read_as_the_tree(monkeypatch):
    # parse_poly reads a signed sum of runs and integers alone without a
    # parse tree; on every text, under the real caps and a letters cap of
    # 100, its outcome is the tree path's: the same terms in the same order,
    # or the same error, message and offset
    rng = random.Random(33)
    mutated = [_mutated(rng) for _ in range(5000)]
    sums = _sum_texts(rng)
    parsed = []
    real = m2sl2.parsing.parse
    monkeypatch.setattr(m2sl2.parsing, "parse", lambda text: parsed.append(text) or real(text))
    for cap in (m2sl2.parsing.MAX_POWER_LETTERS, 100):
        monkeypatch.setattr(m2sl2.parsing, "MAX_POWER_LETTERS", cap)
        for texts in (mutated, sums, _EDGE_TEXTS):
            parsed.clear()
            for text in texts:
                if cap < 1000 or "^1000000" not in text:  # the tree would build 10**7 letters
                    assert _poly_outcome(parse_poly, text) == _poly_outcome(_tree_poly, text), text
            if texts is sums and cap > 100:
                assert parsed == []  # not one sum took the tree
            elif texts is sums:
                assert 0 < len(parsed) < len(texts) // 10  # those the small cap refuses did
    # these edge texts take no tree either, the letters cap still at 100; a
    # run has no bound on its factors
    parsed.clear()
    for text in ("0*y1", "7 - 7", "y10^00", "\u0663*z1 - \u0664", "\t-y1\n", "7" * 4300 + "*y1",
                 "y1^50 + y1^50", "*".join(["y1"] * 64), "*".join(["y1"] * 65)):
        parse_poly(text)
    assert parsed == []


def test_sums_of_runs_fall_back_past_the_word_cap(monkeypatch):
    # a sum of more than MAX_WORDS terms is parsed: the parser counts only
    # terms of nonzero coefficient, so the first text answers, the second
    # passes the cap
    monkeypatch.setattr(m2sl2.parsing, "MAX_WORDS", 3)
    for text in ("0 + 0*y2 + 0 + y1 - z1 + 2", "y1 + y2 + y3 + y4"):
        assert _poly_outcome(parse_poly, text) == _poly_outcome(_tree_poly, text), text
    with pytest.raises(ResourceBoundError, match="more than 3 words"):
        parse_poly("y1 + y2 + y3 + y4")
