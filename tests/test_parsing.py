import random
import re
import sys

import pytest

from m2sl2 import (
    ONE,
    CanonicalMonomial,
    LieBracket,
    LieVar,
    ParseError,
    QPoly,
    ResourceBoundError,
    is_graded_weak_identity,
    lie_to_words,
    normalize,
    parse_poly,
)
from m2sl2.cli import format_qpoly
import m2sl2.parsing
from m2sl2.genmat import evaluate_tree
from m2sl2.parsing import MAX_WORDS, parse, parse_words, tokenize, word_count
from tests.util import LOOP_KINDS, loop_tokenize, rand_qpoly, raw_evaluate_tree, word, y, z


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
    assert word_count(parse(text)) == len(parse_words(text))


def test_word_cap():
    # counted from the tree: none of these expansions is ever built
    assert word_count(parse("(" + "+".join(["y1"] * 1000) + ")^2")) == MAX_WORDS
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
    """The evaluation, or the ResourceBoundError message."""
    try:
        return evaluate_fn(parse(text))
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
        assert _outcome(evaluate_tree, text) == _outcome(raw_evaluate_tree, text), text
    for text in TREE_EDGE_CASES:
        assert evaluate_tree(parse(text)) == raw_evaluate_tree(parse(text)), text


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
        assert _outcome(evaluate_tree, text) == want, text
        errors += isinstance(want, str)
    assert errors == 13, errors


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


def test_tokenize_matches_loop_oracle():
    rng = random.Random(97)
    kinds = {v: k for k, v in LOOP_KINDS.items()}
    loop_fails = 0
    for _ in range(100_000):
        text = "".join(rng.choice(_SCAN_PIECES) for _ in range(rng.randint(0, 8)))
        got = _scan(lambda t: [(k.kind, k.value, k.pos) for k in tokenize(t)], text)
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
    assert [t.kind for t in tokenize(spaces)] == ["EOF"]
    decimals = re.findall(r"\d", every)
    assert decimals == [c for c in every if c.isdecimal()]
    assert all(0 <= int(c) <= 9 for c in decimals)
