"""Expression syntax for the command line.

    expr   := term (('+' | '-') term)*
    term   := ['+'|'-'] factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := 'y' uint | 'z' uint | uint | '(' expr ')' | '[' expr ',' expr ']'

Multiplication is always explicit; juxtaposition is a syntax error.  Brackets
are commutators.  `parse_words` expands an expression into a plain weighted
word list over the graded letters, with no canonical reduction; `parse_poly`
normalizes the operands of every product on the way to its canonical
polynomial.
"""

import re
from typing import NamedTuple

from .errors import ParseError, ResourceBoundError
from .freealg import QPoly, Word, _bracket, _times, normalize

# Input caps that keep hostile input from costing a traceback: letter indices
# size the dense exponent tuples, each '(' or '[' costs parser recursion, and
# every word of the expansion is built in memory.  A power of a single word is
# built in one step, so the letters and the coefficient bits (bounded by
# k * bit_length) that such powers build are capped too, summed over the
# expression.  Integer literals are capped at the 4,300 digits that int()
# reads by default from Python 3.10.7 on (earlier versions read more), so
# every Python refuses the same literals, with a ParseError.
MAX_LETTER_INDEX = 10_000
MAX_COEFF_DIGITS = 4_300
MAX_NESTING = 100
MAX_WORDS = 1_000_000
MAX_POWER_LETTERS = 10_000_000
MAX_POWER_BITS = 4_000_000


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
        if self.peek().kind == "^":
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
        raise ParseError(_describe(t), t.pos,
                         ("'*'", "'+'", "'-'", "'^'", "')'", "']'", "','", "end of input"))
    return node


def _power(base: list[tuple[int, Word]], k: int, fold, spent: list[int]) -> list[tuple[int, Word]]:
    if k == 0:
        return [(1, ())]
    if not base:
        return []
    if len(base) == 1:
        # one word: the closed form, after charging its size to the caps
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
        out = _times(fold(out), base)
    return out


def _raw(ws: list[tuple[int, Word]]) -> list[tuple[int, Word]]:
    return ws


def to_words(node, fold=_raw) -> list[tuple[int, Word]]:
    """Expand an expression tree to a weighted word list.

    `fold` is applied to every operand of a product ("mul", "pow" and "br"
    nodes) before it is multiplied; the default keeps it as it is, so the
    result is the raw expansion with no reduction.  A fold that replaces a
    word list by another with the same normalize() image leaves the
    normalized result unchanged and keeps the operands small.
    """
    spent = [0, 0]  # letters and coefficient bits built by one-word powers

    def expand(node):
        kind = node[0]
        if kind == "int":
            return [(node[1], ())] if node[1] else []
        if kind == "var":
            return [(1, (node[1],))]
        if kind == "pow":
            return _power(fold(expand(node[1])), node[2], fold, spent)
        if kind == "mul":
            out = [(1, ())]
            for sub in node[1]:
                out = _times(fold(out), fold(expand(sub)))
            return out
        if kind == "add":
            out = []
            for sign, sub in node[1]:
                out.extend((sign * c, w) for c, w in expand(sub))
            return out
        if kind == "br":
            return _bracket(fold(expand(node[1])), fold(expand(node[2])))
        raise ValueError(f"unknown node kind {kind!r}")

    return expand(node)


def _canonical_words(ws: list[tuple[int, Word]]) -> list[tuple[int, Word]]:
    """A list of two or more words replaced by its normalized terms."""
    if len(ws) < 2:
        return ws
    return [(c, m.word()) for m, c in normalize(ws).terms.items()]


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


def parse_poly(text: str) -> QPoly:
    """The canonical polynomial of an expression.

    Equal to normalize(parse_words(text)), but every product operand of two
    or more words is normalized before it is multiplied, so a power or a
    product of sums costs the size of its canonical form, not of its raw
    expansion.  The word cap still applies to the raw expansion.
    """
    node = parse(text)
    word_count(node)
    return normalize(to_words(node, _canonical_words))
