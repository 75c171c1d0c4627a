"""Expression syntax for the command line.

    expr   := term (('+' | '-') term)*
    term   := ['+'|'-'] factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := 'y' uint | 'z' uint | uint | '(' expr ')' | '[' expr ',' expr ']'

Multiplication is always explicit; juxtaposition is a syntax error.  Brackets
are commutators.  `parse` reads a text in one pass of recursive descent,
stepping one iterator over the compiled scanner's matches, one per token.
Each node gets its raw word count as it is built, and a product of letters
and integers (parenthesized ones included, the term's sign too) becomes one
word leaf.
So does a power to the exponent 0 or 1 of such a leaf whose coefficient is
-1, 0 or 1 (`y3^1`, `(-y1)^0`), which repeats no letter: the leaf keeps, as
its charge, the letters that power would have charged to the power caps,
and the folds bill that charge where the power stood.  Every other power
is a power node, so the tree holds only letters the text wrote.
Errors keep a fixed precedence: the first lexical error anywhere in the text
(a bad character, a letter index out of range, a literal too long), then the
first syntax or nesting error, then the word cap, then the power caps.

`to_words` expands a parse tree into its raw weighted word list over the
graded letters, with no canonical reduction; `parse_words` is that expansion
of a text.  `fold_tree` folds a parse tree into a ring instead, lifting
each word leaf and powering in the ring, so that the cost follows the tree,
not its raw expansion, and no word is built to be powered.
`parse_poly` is that fold over canonical polynomials (QPoly), and
genmat._tree_row the same fold over generic matrices.  The word cap and
the power caps are applied here alone; both folds charge a power by its
base's canonical term when it has one, the raw expansion by its base's word,
and all three bill a word leaf's charge when they reach it.

`parse_poly` first tries the text as a signed sum of terms, each a run or an
integer alone, as every `chain` and `reduce` job line is: a run is letters,
perhaps with exponents, and perhaps one integer before them, multiplied with
no whitespace, as in `-15*y1*y3^3*z1*z2`.  It reads one match of _TERM per
term, builds each run's monomial in closed form from its powers of letters
(freealg.reduce_powers), with no tree and no word, and folds it into the sum
as it is read.  _powers charges the letters cap as the parser does, and any
other text, or one the caps would refuse, is parsed, so every value and
error is the parser's.
"""

import re
from functools import cache

from .errors import ParseError, ResourceBoundError
from .freealg import MAX_LETTER_INDEX, QPoly, Word, _bracket, _product, normalize, reduce_powers
from .intlinalg import _row_axpy

# Input caps that keep hostile input from costing a traceback: letter indices
# (MAX_LETTER_INDEX, from freealg) size the dense exponent tuples, each '('
# or '[' costs parser recursion, and every word of the raw expansion is built
# in memory.  A power of a value of one canonical term, or of a single word
# in the raw expansion, is built in one step, so the letters and the
# coefficient bits (bounded by k * bit_length) that such powers build are
# capped too, summed over the expression.
# Integers are capped at the 4,300 digits that int() and str()
# convert by default from Python 3.10.7 on (earlier versions convert more),
# so every Python refuses the same ones: a longer literal is a ParseError, a
# longer coefficient in the output a ResourceBoundError (coeff_str).
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


# one match per token, after any whitespace: operator | letter and index
# digits | integer | any other character; none once only whitespace is left.
# \s is exactly str.isspace() and \d exactly the decimal digits int() reads.
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*^()\[\],])|(?P<var>[yz]\d*)|(?P<int>\d+)|(?P<other>\S))")

# expression nodes, each with its raw word count n (len(to_words(node))):
#   ("w", n, coeff, word, charge)  a word leaf, a product of letters,
#           integers and their powers to the exponent 0 or 1 of
#           coefficient -1, 0 or 1: the word list [(coeff, word)], or [] if
#           coeff is 0; those powers would have charged `charge` letters to
#           the power caps
#   ("pow", n, node, k)    ("mul", n, [nodes])    ("br", n, a, b)
#   ("add", n, [(sign, node), ...])

_ATOM_STARTS = ("'y'", "'z'", "integer", "'('", "'['")
_SIGNS = ("+", "-")
_INDEX_DIGITS = len(str(MAX_LETTER_INDEX))
# a term of a sum of runs: its sign ('+' or '-', optional on the first term),
# then, after any whitespace, a run or an integer alone, then any whitespace,
# before the next sign or the end of the text.  A run is an integer I and a
# '*', or not, then any number of letters L joined by '*', each perhaps with
# an exponent, written with no whitespace.  L has no leading zero and fewer
# digits than MAX_LETTER_INDEX, so its index is in range, and I is no longer
# than the scanner admits.  The pattern is built at import from
# MAX_LETTER_INDEX and MAX_COEFF_DIGITS, as _INDEX_DIGITS and _COEFF_BOUND
# are, so those two caps hold as they stand at import.  The sign takes the
# whitespace before it, so a failed match backtracks in linear time.  Groups:
# the sign, I, the run, the integer alone.
_TERM = re.compile(r"(?:\s*([+-]))?\s*(?:(?:({I})\*)?({L}(?:\*{L})*)|({I}))\s*(?=[+-]|\Z)".format(
    I=rf"\d{{1,{MAX_COEFF_DIGITS}}}",
    L=rf"[yz][1-9][0-9]{{0,{_INDEX_DIGITS - 2}}}(?:\^\d{{1,{MAX_COEFF_DIGITS}}})?"))
# a run's letter by its lexeme, kept: _TERM admits 19,998 lexemes at most
_letter = cache(lambda lex: (lex[0], int(lex[1:])))
# the text before a token ends in an exponent: the last factor read has one
_POWERED = re.compile(r"\^\s*\d+\s*\Z")


def _leaf(coeff: int, word: tuple, charge: int = 0) -> tuple:
    return ("w", 1 if coeff else 0, coeff, word, charge)


def _powers(run: str, charged: int):
    """The factors of a run that _TERM matched, for parse_poly, as
    (letter, exponent) pairs, each letter read through _letter, and the
    letters its powers charge: the exponent of each factor that has one.
    None if that charge, with `charged` letters before it, would pass
    MAX_POWER_LETTERS; each exponent is charged before anything is built."""
    factors, charge = [], 0
    for piece in run.split("*"):
        lex, _, exp = piece.partition("^")
        if exp:
            charge += int(exp)
            if charged + charge > MAX_POWER_LETTERS:
                return None
        factors.append((_letter(lex), int(exp) if exp else 1))
    return factors, charge


def _run_leaf(sign: int, lits: list[int], letters: list, charge: int) -> tuple:
    """The leaf of a run of one-word factors: its sign, its other integer
    coefficients, its letters and its charge.  Two or more coefficients are
    multiplied as a balanced product tree, in time near-linear in their
    digits, where one at a time would be quadratic."""
    while len(lits) > 1:
        lits = [a * b for a, b in zip(lits[::2], lits[1::2])] + lits[len(lits) & ~1:]
    return _leaf(sign * lits[0] if lits else sign, tuple(letters), charge)


class _Parser:
    """Recursive descent in one pass, stepping one iterator over the
    scanner's matches, one per token.

    The current token is kind ("VAR", "INT", "EOF" or the operator
    character), value and pos.  A lexical error raises as soon as it is
    read, being the first one in the text; a syntax error first reads the
    rest of the text, so that a lexical error after it wins.  A node whose
    count passes MAX_WORDS only sets `over`, for parse to raise once the
    text is read."""

    __slots__ = ("text", "tokens", "kind", "value", "pos", "depth", "over")

    def __init__(self, text: str):
        # the scan ends where the trailing whitespace starts, so every match
        # starts where the last one ended and no offset is searched twice
        self.text, self.tokens = text, _TOKEN.finditer(text, 0, len(text.rstrip()))
        self.depth = 0
        self.over = False
        self.advance()

    def advance(self) -> None:
        """Pass the current token: read the next one."""
        match = next(self.tokens, None)
        if match is None:
            self.kind, self.value, self.pos = "EOF", None, len(self.text)
            return
        group = match.lastgroup
        lexeme, i = match[group], match.start(group)
        if group == "op":
            self.kind = self.value = lexeme
        elif group == "var":
            ch = lexeme[0]
            if len(lexeme) == 1:
                raise ParseError(f"letter {ch!r} needs an index", i + 1, ("digits",))
            digits = lexeme[1:].lstrip("0")
            # the length test keeps int() off huge digit strings
            idx = int(digits or "0") if len(digits) <= _INDEX_DIGITS else MAX_LETTER_INDEX + 1
            if idx > MAX_LETTER_INDEX:
                raise ParseError(f"letter index above {MAX_LETTER_INDEX}", i + 1,
                                 (f"index <= {MAX_LETTER_INDEX}",))
            if idx < 1:
                raise ParseError("letter index must be >= 1", i + 1, ("index >= 1",))
            self.kind, self.value = "VAR", (ch, idx)
        elif group == "int":
            if len(lexeme) > MAX_COEFF_DIGITS:
                raise ParseError(f"integer longer than {MAX_COEFF_DIGITS} digits", i,
                                 (f"at most {MAX_COEFF_DIGITS} digits",))
            self.kind, self.value = "INT", int(lexeme)
        else:
            raise ParseError(f"unexpected character {lexeme!r}", i, ())
        self.pos = i

    def fail(self, expected: tuple, message: str = "") -> None:
        """Raise a syntax error at the current token, unless the rest of the
        text holds a lexical error, which is raised instead."""
        kind, value, pos = self.kind, self.value, self.pos
        message = message or ("input ended" if kind == "EOF" else
                              f"got {value[0]}{value[1]}" if kind == "VAR" else f"got {value!r}")
        while self.kind != "EOF":
            self.advance()
        raise ParseError(message, pos, expected)

    def counted(self, n: int) -> int:
        if n > MAX_WORDS:
            self.over = True
            return MAX_WORDS + 1
        return n

    def close(self, kind: str, what: str) -> None:
        """Take the token that ends a complete expression; else the error
        lists what may follow it, `what` last."""
        if self.kind != kind:
            # a complete expression continues only by an operator; a factor
            # that has its exponent (the text before the token ends in '^'
            # and digits) takes no second one
            caret = () if _POWERED.search(self.text, 0, self.pos) else ("'^'",)
            self.fail(("'*'", "'+'", "'-'", *caret, what))
        self.advance()

    def expr(self):
        items = [(1, self.term())]
        while self.kind in _SIGNS:
            sign = 1 if self.kind == "+" else -1
            self.advance()
            items.append((sign, self.term()))
        return items[0][1] if len(items) == 1 else (
            "add", self.counted(sum(sub[1] for _, sub in items)), items)

    def term(self):
        # the run of one-word factors since the last other factor, sign
        # included, is sign * prod(lits) * letters, charging `charge`
        # letters; `run` says whether it holds any
        sign, lits, letters, charge, run = 1, [], [], 0, False
        if self.kind in _SIGNS:
            if self.kind == "-":
                sign, run = -1, True
            self.advance()
        subs = []
        while True:
            kind, value = self.kind, self.value
            if kind == "VAR" or kind == "INT":
                self.advance()
                node = ("w", 1, 1, (value,), 0) if kind == "VAR" else _leaf(value, ())
            elif kind == "(" or kind == "[":
                node = self.group()
            else:
                self.fail(_ATOM_STARTS)
            if self.kind == "^":
                self.advance()
                if self.kind != "INT":
                    self.fail(("nonnegative integer exponent",))
                k = self.value
                self.advance()
                node = self.power(node, k)
            if node[0] == "w":
                if node[2] != 1:
                    lits.append(node[2])
                letters += node[3]
                charge += node[4]
                run = True
            else:
                if run:
                    subs.append(_run_leaf(sign, lits, letters, charge))
                    sign, lits, letters, charge, run = 1, [], [], 0, False
                subs.append(node)
            if self.kind != "*":
                break
            self.advance()
        if run:
            subs.append(_run_leaf(sign, lits, letters, charge))
        if len(subs) == 1:
            return subs[0]
        n = 1
        for sub in subs:  # every partial product counts toward the cap
            n = self.counted(n * sub[1])
        return ("mul", n, subs)

    def power(self, node, k: int):
        """node^k.  A word leaf of coefficient -1, 0 or 1 takes an exponent
        of 0 or 1 into the leaf, which repeats no letter: its charge grows
        by the letters _power would charge, so `y1^1` still bills one.
        Every other power becomes a "pow" node, which the folds charge and
        build in their ring."""
        if k <= 1 and node[0] == "w" and -1 <= node[2] <= 1:
            _, _, c, w, charge = node
            return _leaf(c ** k, w if k else (), charge + len(w) * k if c else charge)
        b = node[1]
        # for b >= 2, b^k passes MAX_WORDS once k reaches its bit length
        n = b ** k if b <= 1 else b ** min(k, MAX_WORDS.bit_length())
        return ("pow", self.counted(n), node, k)

    def group(self):
        opener = self.kind
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail((), f"nesting deeper than {MAX_NESTING} levels")
        self.advance()
        if opener == "(":
            node = self.expr()
            self.close(")", "')'")
        else:
            a = self.expr()
            self.close(",", "','")
            b = self.expr()
            self.close("]", "']'")
            node = ("br", self.counted(2 * a[1] * b[1]), a, b)
        self.depth -= 1
        return node


def parse(text: str):
    """Parse to an expression tree within the word cap.

    Errors come in a fixed order: the first lexical error anywhere in the
    text, then the first syntax or nesting error, then the word cap (a
    ResourceBoundError).  A ParseError carries the offending token's offset,
    counted in characters of `text`."""
    p = _Parser(text)
    node = p.expr()
    p.close("EOF", "end of input")
    if p.over:
        raise ResourceBoundError(f"expression expands to more than {MAX_WORDS} words")
    return node


def _charge_power(degree: int, c: int, k: int, spent: list[int]) -> None:
    """Charge the k-th power of one term, of `degree` letters and coefficient
    c, to `spent`, the budget of the whole expression: degree * k letters and
    k times c's bit length (nothing for c = +-1).  Every power of a value of
    one word or one canonical term is charged here."""
    spent[0] += degree * k
    spent[1] += abs(c).bit_length() * k if abs(c) > 1 else 0
    if spent[0] > MAX_POWER_LETTERS:
        raise ResourceBoundError(
            f"powers of single words build more than {MAX_POWER_LETTERS} letters")
    if spent[1] > MAX_POWER_BITS:
        raise ResourceBoundError(
            f"powers of single words build coefficients of more than {MAX_POWER_BITS} bits")


def _power(base: list[tuple[int, Word]], k: int, spent: list[int]) -> list[tuple[int, Word]]:
    """The k-th power of a raw word list, left operand outermost, for
    to_words alone: the words written out.

    A power of a single word is built in one step, after charging its
    letters and coefficient bits to `spent` (_charge_power)."""
    if k == 0:
        return [(1, ())]
    if not base:
        return []
    if len(base) == 1:
        ((c, w),) = base
        _charge_power(len(w), c, k, spent)
        # the empty word stays empty: w * k cannot repeat it past sys.maxsize times
        return [(c ** k, w * k if w else w)]
    return _product([base] * k)


def _leaf_words(node, spent: list[int]) -> list[tuple[int, Word]]:
    """A word leaf's one-word list (empty for coefficient 0), after billing
    its charge, the letters of the first powers the parser took into it,
    to `spent` (_charge_power)."""
    if node[4]:
        _charge_power(node[4], 1, 1, spent)
    return [(node[2], node[3])] if node[1] else []


def to_words(node) -> list[tuple[int, Word]]:
    """Expand an expression tree to its raw weighted word list, with no
    reduction: the words exactly as written out.  A word leaf bills its
    charge as it is expanded (_leaf_words), and a power node charges as
    _power says."""
    spent = [0, 0]  # letters and coefficient bits built by one-word powers

    def expand(node):
        kind = node[0]
        if kind == "w":
            return _leaf_words(node, spent)
        if kind == "pow":
            return _power(expand(node[2]), node[3], spent)
        if kind == "mul":
            return _product([expand(sub) for sub in node[2]])
        if kind == "add":
            out = []
            for sign, sub in node[2]:
                out.extend((sign * c, w) for c, w in expand(sub))
            return out
        return _bracket(expand(node[2]), expand(node[3]))  # "br", the one kind left

    return expand(node)


def fold_tree(node, lift, add, mul, terms):
    """Fold an expression tree into a ring, node by node; every value is a
    ring value.

    A word leaf is lifted with lift(words) where the walk reaches it, after
    billing its charge (_leaf_words).  A sum starts from lift([]) and adds
    its operands one at a time, in text order, with add(acc, value, sign);
    a product walks all its factors, then multiplies them with mul(a, b); a
    power squares; and a bracket is add(mul(a, b), mul(b, a), -1).  add may
    update acc in place; the fold only passes an acc that lift or mul has
    just built.  terms(value) lists a ring value's canonical terms as
    (degree, coefficient) pairs, and a power of a value of one term charges
    the power caps by that term (_charge_power), in the order of the walk
    and from one budget for the whole expression; a power of a scalar c is
    lift([(c ** k, ())]), with no squaring in the ring.
    """
    spent = [0, 0]  # letters and coefficient bits built by powers of one term

    def walk(node):
        kind = node[0]
        if kind == "w":
            return lift(_leaf_words(node, spent))
        if kind == "pow":
            base, k = walk(node[2]), node[3]
            if not k:  # the word 1, whatever the base
                return lift([(1, ())])
            base_terms = terms(base)
            if len(base_terms) == 1:
                degree, c = base_terms[0]
                _charge_power(degree, c, k, spent)
                if not degree:  # a scalar, whose exponent no cap bounds when c is +-1
                    return lift([(c ** k, ())])
            out = None
            while k:  # repeated squaring, low bits first
                if k & 1:
                    out = base if out is None else mul(out, base)
                k >>= 1
                if k:
                    base = mul(base, base)
            return out
        if kind == "add":
            acc = lift([])
            for sign, sub in node[2]:
                acc = add(acc, walk(sub), sign)
            return acc
        if kind == "mul":
            out, *rest = [walk(sub) for sub in node[2]]
            for v in rest:
                out = mul(out, v)
            return out
        a, b = walk(node[2]), walk(node[3])  # "br", the one kind left
        return add(mul(a, b), mul(b, a), -1)

    return walk(node)


def parse_words(text: str) -> list[tuple[int, Word]]:
    """The raw expansion of an expression: words exactly as written out."""
    return to_words(parse(text))


def _add_terms(acc: QPoly, other: QPoly, sign: int) -> QPoly:
    """acc + sign * other, built in acc's own term dict."""
    _row_axpy(acc.terms, other.terms, sign)
    return acc


def parse_poly(text: str) -> QPoly:
    """The canonical polynomial of an expression.

    Equal to normalize(parse_words(text)).  A text that is a signed sum of
    runs and integers alone, such as `-15*y1*y3^3*z1*z2 + 4`, is read in
    one loop, one term per match of _TERM: each run's monomial is built in
    closed form from its powers of letters (freealg.reduce_powers), with no
    parse tree, no letters and no reduce_word, and the term is added to the
    sum at once, a monomial keeping its place from when it last became
    nonzero.  The caps are charged as the parser charges them (_powers),
    each run's before its monomial is built, and any other text, or one
    they would refuse, is parsed, so its value and errors are the
    parser's.  The tree is folded over QPoly (fold_tree), so a power or a
    product of sums costs the size of its canonical form, not of its raw
    expansion.  The word cap still applies to the raw expansion, and a
    power whose base normalizes to one term charges the power caps by that
    term, as genmat._tree_row does.
    """
    acc, charged, pos, n = {}, 0, 0, 0  # the sum so far, letters charged, offset, terms read
    while pos < len(text) or not n:
        match = _TERM.match(text, pos)
        read = match and n < MAX_WORDS and (_powers(match[3], charged) if match[3] else ((), 0))
        if not read:
            # normalize is looked up on each call, so a wrapper patched over it sees the lifts
            return fold_tree(parse(text), normalize, _add_terms, QPoly.__mul__,
                             lambda f: [(m.degree, c) for m, c in f.terms.items()])
        # the written sign, then the run's integer or the integer alone
        sgn, lit, _, num = match.groups()
        sign, m = reduce_powers(read[0])
        c = int(lit or num or 1)
        # negated when one of the written sign and the monomial's is minus;
        # a zero coefficient adds nothing
        c = acc.get(m, 0) + (-c if (sgn == "-") != (sign < 0) else c)
        if c:
            acc[m] = c
        else:
            acc.pop(m, None)
        charged, pos, n = charged + read[1], match.end(), n + 1
    return QPoly._trusted(acc)
