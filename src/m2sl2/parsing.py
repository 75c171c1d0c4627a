"""Expression syntax for the command line.

    expr   := term (('+' | '-') term)*
    term   := ['+'|'-'] factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := 'y' uint | 'z' uint | uint | '(' expr ')' | '[' expr ',' expr ']'

Multiplication is always explicit; juxtaposition is a syntax error.  Brackets
are commutators.  `to_words` expands a parse tree into its raw weighted word
list over the graded letters, with no canonical reduction; `parse_words` is
that expansion of a text.  `fold_tree` folds a parse tree into a ring instead,
keeping nodes of at most one raw word as words and everything else as ring
values, so that the cost follows the tree, not its raw expansion.
`parse_poly` is that fold over canonical polynomials (QPoly), and
genmat.evaluate_tree the same fold over generic matrices.  The word cap and
the power caps are applied here alone, the same way by every walk.
"""

import re
from typing import NamedTuple

from .errors import ParseError, ResourceBoundError
from .freealg import QPoly, Word, _bracket, _times, normalize
from .intlinalg import _row_axpy

# Input caps that keep hostile input from costing a traceback: letter indices
# size the dense exponent tuples, each '(' or '[' costs parser recursion, and
# every word of the expansion is built in memory.  A power of a single word is
# built in one step, so the letters and the coefficient bits (bounded by
# k * bit_length) that such powers build are capped too, summed over the
# expression.  Integers are capped at the 4,300 digits that int() and str()
# convert by default from Python 3.10.7 on (earlier versions convert more),
# so every Python refuses the same ones: a longer literal is a ParseError, a
# longer coefficient in the output a ResourceBoundError (coeff_str).
MAX_LETTER_INDEX = 10_000
MAX_COEFF_DIGITS = 4_300
MAX_NESTING = 100
MAX_WORDS = 1_000_000
MAX_POWER_LETTERS = 10_000_000
MAX_POWER_BITS = 4_000_000
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS  # the least integer of MAX_COEFF_DIGITS + 1 digits


def coeff_str(c: int) -> str:
    """The decimal text of a coefficient that becomes output; raises
    ResourceBoundError past MAX_COEFF_DIGITS digits, before any output."""
    if abs(c) >= _COEFF_BOUND:
        raise ResourceBoundError(f"coefficient longer than {MAX_COEFF_DIGITS} digits")
    return str(c)


class Token(NamedTuple):
    kind: str  # "VAR", "INT", "EOF", or the operator character itself
    value: object
    pos: int


# one token per match: whitespace | operator | letter and index digits |
# integer | any other character.  \s is exactly str.isspace() and \d exactly
# the decimal digits int() reads.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<op>[-+*^()\[\],])|(?P<var>[yz]\d*)"
                    r"|(?P<int>\d+)|(?P<other>.)", re.S)


def tokenize(text: str) -> list[Token]:
    """The input's tokens, ending in EOF."""
    toks: list[Token] = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        if group == "space":
            continue
        lexeme, i = match[group], match.start()
        if group == "op":
            toks.append(Token(lexeme, lexeme, i))
        elif group == "var":
            ch = lexeme[0]
            if len(lexeme) == 1:
                raise ParseError(f"letter {ch!r} needs an index", i + 1, ("digits",))
            digits = lexeme[1:].lstrip("0") or "0"
            # the length test keeps int() off huge digit strings
            if len(digits) > len(str(MAX_LETTER_INDEX)) or int(digits) > MAX_LETTER_INDEX:
                raise ParseError(f"letter index above {MAX_LETTER_INDEX}", i + 1,
                                 (f"index <= {MAX_LETTER_INDEX}",))
            idx = int(digits)
            if idx < 1:
                raise ParseError("letter index must be >= 1", i + 1, ("index >= 1",))
            toks.append(Token("VAR", (ch, idx), i))
        elif group == "int":
            if len(lexeme) > MAX_COEFF_DIGITS:
                raise ParseError(f"integer longer than {MAX_COEFF_DIGITS} digits", i,
                                 (f"at most {MAX_COEFF_DIGITS} digits",))
            toks.append(Token("INT", int(lexeme), i))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", i, ())
    toks.append(Token("EOF", None, len(text)))
    return toks


# expression nodes: ("int", n) | ("var", letter) | ("pow", node, k)
#                   ("mul", [nodes]) | ("add", [(sign, node), ...]) | ("br", a, b)

_ATOM_STARTS = ("'y'", "'z'", "integer", "'('", "'['")


def _describe(t: Token) -> str:
    if t.kind == "EOF":
        return "input ended"
    if t.kind == "VAR":
        fam, idx = t.value
        return f"got {fam}{idx}"
    return f"got {t.value!r}"


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.k = 0
        self.depth = 0
        self.powered = False  # did the last factor read end in an exponent

    def peek(self) -> Token:
        return self.toks[self.k]

    def take(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(_describe(t), t.pos, (what,))
        return self.take()

    def expr(self):
        items = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
            items.append((sign, self.term()))
        return ("add", items)

    def term(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        node = ("mul", factors) if len(factors) > 1 else factors[0]
        if sign < 0:
            node = ("mul", [("int", -1), node])
        return node

    def factor(self):
        node = self.atom()
        self.powered = self.peek().kind == "^"
        if self.powered:
            self.take()
            t = self.expect("INT", "nonnegative integer exponent")
            node = ("pow", node, t.value)
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "VAR":
            self.take()
            return ("var", t.value)
        if t.kind == "INT":
            self.take()
            return ("int", t.value)
        if t.kind not in ("(", "["):
            raise ParseError(_describe(t), t.pos, _ATOM_STARTS)
        self.take()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t.pos, ())
        if t.kind == "(":
            node = self.expr()
            self.expect(")", "')'")
        else:
            a = self.expr()
            self.expect(",", "','")
            b = self.expr()
            self.expect("]", "']'")
            node = ("br", a, b)
        self.depth -= 1
        return node


def parse(text: str):
    """Parse to an expression tree; raises ParseError with the offending
    token's offset, counted in characters of `text`."""
    p = _Parser(tokenize(text))
    node = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        # a complete expression continues only by an operator; a factor that
        # has its exponent takes no second one
        caret = () if p.powered else ("'^'",)
        raise ParseError(_describe(t), t.pos, ("'*'", "'+'", "'-'", *caret, "end of input"))
    return node


def _power(base: list[tuple[int, Word]], k: int, spent: list[int]) -> list[tuple[int, Word]]:
    """The k-th power of a raw word list, left operand outermost.

    A power of a single word is built in closed form, after charging its
    letters and coefficient bits to `spent`, the budget of the whole
    expression; this is the only place the power caps are charged."""
    if k == 0:
        return [(1, ())]
    if not base:
        return []
    if len(base) == 1:
        ((c, w),) = base
        spent[0] += len(w) * k
        spent[1] += abs(c).bit_length() * k if abs(c) > 1 else 0
        if spent[0] > MAX_POWER_LETTERS:
            raise ResourceBoundError(
                f"powers of single words build more than {MAX_POWER_LETTERS} letters")
        if spent[1] > MAX_POWER_BITS:
            raise ResourceBoundError(
                f"powers of single words build coefficients of more than {MAX_POWER_BITS} bits")
        # the empty word stays empty: w * k cannot repeat it past sys.maxsize times
        return [(c ** k, w * k if w else w)]
    out = base
    for _ in range(k - 1):
        out = _times(out, base)
    return out


def to_words(node) -> list[tuple[int, Word]]:
    """Expand an expression tree to its raw weighted word list, with no
    reduction: the words exactly as written out."""
    spent = [0, 0]  # letters and coefficient bits built by one-word powers

    def expand(node):
        kind = node[0]
        if kind == "int":
            return [(node[1], ())] if node[1] else []
        if kind == "var":
            return [(1, (node[1],))]
        if kind == "pow":
            return _power(expand(node[1]), node[2], spent)
        if kind == "mul":
            out = [(1, ())]
            for sub in node[1]:
                out = _times(out, expand(sub))
            return out
        if kind == "add":
            out = []
            for sign, sub in node[1]:
                out.extend((sign * c, w) for c, w in expand(sub))
            return out
        if kind == "br":
            return _bracket(expand(node[1]), expand(node[2]))
        raise ValueError(f"unknown node kind {kind!r}")

    return expand(node)


def fold_tree(node, lift, add, mul, charge=None):
    """Fold an expression tree into a ring, node by node.

    The word cap is checked first, by word_count.  A node whose raw
    expansion has at most one word is kept as that word list, built by
    _times and _power, so every power of a single word charges the power
    caps as to_words does, in the same order and from one budget for the
    whole expression.  Every other node is a ring value: a sum lifts its
    word operands with lift(words) and adds the rest with add(acc, value,
    sign), products multiply with mul(a, b), a power squares and a bracket
    is add(mul(a, b), mul(b, a), -1).  add may update acc in place; the fold
    only passes an acc that lift or mul has just built.  When given,
    charge(value) returns either the value or a word list to stand for it as
    a power's base; a word list is billed to the caps and powered by _power,
    and its power stays a word list.  The fold returns a ring value.
    """
    word_count(node)
    spent = [0, 0]  # letters and coefficient bits built by one-word powers

    def ring(v):
        return lift(v) if isinstance(v, list) else v

    def walk(node):
        kind = node[0]
        if kind == "int":
            return [(node[1], ())] if node[1] else []
        if kind == "var":
            return [(1, (node[1],))]
        if kind == "pow":
            base, k = walk(node[1]), node[2]
            if charge is not None and not isinstance(base, list):
                base = charge(base)
            if isinstance(base, list) or not k:  # k == 0 is the word 1, whatever the base
                return _power(base, k, spent)
            out = None
            while k:  # repeated squaring, low bits first
                if k & 1:
                    out = base if out is None else mul(out, base)
                k >>= 1
                if k:
                    base = mul(base, base)
            return out
        if kind == "add":
            words, vals = [], []
            for sign, sub in node[1]:
                v = walk(sub)
                if isinstance(v, list):
                    for c, w in v:
                        words.append((sign * c, w))
                else:
                    vals.append((sign, v))
            if not vals and len(words) < 2:
                return words
            acc = lift(words)
            for sign, v in vals:
                acc = add(acc, v, sign)
            return acc
        if kind == "mul":
            vals = [walk(sub) for sub in node[1]]
            if [] in vals:  # no raw words: stays a word list, as in to_words
                return []
            out = vals[0]
            for v in vals[1:]:
                if isinstance(out, list) and isinstance(v, list):
                    out = _times(out, v)
                else:
                    out = mul(ring(out), ring(v))
            return out
        if kind == "br":
            a, b = walk(node[1]), walk(node[2])
            if a == [] or b == []:  # no raw words: stays a word list
                return []
            a, b = ring(a), ring(b)
            return add(mul(a, b), mul(b, a), -1)
        raise ValueError(f"unknown node kind {kind!r}")

    return ring(walk(node))


def word_count(node) -> int:
    """How many words to_words(node) returns, computed from the tree alone.

    Raises ResourceBoundError as soon as any list to_words would build (a
    node's expansion, or a partial product inside a "mul") holds more than
    MAX_WORDS words, so no expansion starts that would blow past the cap.
    """
    kind = node[0]
    if kind == "int":
        n = 1 if node[1] else 0
    elif kind == "var":
        n = 1
    elif kind == "pow":
        b, k = word_count(node[1]), node[2]
        # for b >= 2, b^k > MAX_WORDS once k reaches MAX_WORDS.bit_length()
        n = b ** k if b <= 1 else b ** min(k, MAX_WORDS.bit_length())
    elif kind == "mul":
        n = 1
        for sub in node[1]:
            n *= word_count(sub)
            _check_words(n)
    elif kind == "add":
        n = sum(word_count(sub) for _, sub in node[1])
    elif kind == "br":
        n = 2 * word_count(node[1]) * word_count(node[2])
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    _check_words(n)
    return n


def _check_words(n: int) -> None:
    if n > MAX_WORDS:
        raise ResourceBoundError(f"expression expands to more than {MAX_WORDS} words")


def parse_words(text: str) -> list[tuple[int, Word]]:
    """The raw expansion of an expression: words exactly as written out."""
    node = parse(text)
    word_count(node)
    return to_words(node)


def _add_terms(acc: QPoly, other: QPoly, sign: int) -> QPoly:
    """acc + sign * other, built in acc's own term dict."""
    _row_axpy(acc.terms, other.terms, sign)
    return acc


def _one_term_words(f: QPoly):
    """parse_poly's charge: a power base of at most one canonical term
    stands as that term's word list, so the caps bill it; else f itself."""
    return [(c, m.word()) for m, c in f.terms.items()] if len(f.terms) < 2 else f


def parse_poly(text: str) -> QPoly:
    """The canonical polynomial of an expression.

    Equal to normalize(parse_words(text)): fold_tree over QPoly, so a power
    or a product of sums costs the size of its canonical form, not of its
    raw expansion.  The word cap still applies to the raw expansion, and a
    power whose base normalizes to one term charges the power caps as that
    term's word.
    """
    # normalize is looked up on each call, so a wrapper patched over it sees the lifts
    return fold_tree(parse(text), normalize, _add_terms, QPoly.__mul__, _one_term_words)
