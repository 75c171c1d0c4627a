"""The free 2-graded algebra on even letters y_i and odd letters z_i, taken
modulo the rewriting rules

    y_i y_j -> y_j y_i            (even letters commute)
    z_i y_j -> - y_j z_i          (odd past even flips the sign)
    z_a z_b z_c -> z_c z_b z_a    (outer letters of any length-3 window of
                                   odd letters swap freely)

Every word is congruent to +/- one canonical monomial

    y_1^e1 y_2^e2 ... z_{c_1} z_{d_1} z_{c_2} z_{d_2} ...

where the odd letters in odd positions of the z-block (the c-slots) are sorted
ascending, and so are the ones in even positions (the d-slots).  The length-3
rule permutes letters two apart, so each slot class can be sorted without any
sign; only moving z past y costs a sign.

The canonical monomial pins down a basis of the quotient: polynomials
(QPoly) are integer combinations of canonical monomials, whose sum,
difference and scaling come from ring.Combination, and arithmetic always
returns canonical representations.  The one rule of their own is the
product (_mono_mul_into), where two monomials multiply in closed form:
a.b carries the sign (-1)^(zlen(a) * ydeg(b)), from moving b's y-letters past
a's z-block; the y-exponents add; and b's c- and d-slot letters join a's
slot classes, swapping class when zlen(a) is odd, because b's z-block then
starts on a d-slot.  A CanonicalMonomial is itself the tuple
(yexp, cseq, dseq), so the product sums plain tuples and wraps each that
survives, at C level.
No product goes through words; reduce_word reads a word
in, reduce_powers a word written as powers of letters, without building it,
and CanonicalMonomial.word writes one out.
"""

from collections import namedtuple
from functools import partial
from itertools import combinations_with_replacement, product, repeat, zip_longest
from math import comb
from operator import itemgetter

from .errors import GradeMismatchError, ResourceBoundError
from .ring import Combination

Letter = tuple[str, int]  # ("y" | "z", 1 <= index <= MAX_LETTER_INDEX)
Word = tuple[Letter, ...]

# the largest letter index: a y index sizes a dense exponent tuple, so the
# parser and every reader of raw words (reduce_word, genmat._word_entries)
# refuse a larger one
MAX_LETTER_INDEX = 10_000


def _trim(seq) -> tuple[int, ...]:
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def _interleave(first, second) -> list[int]:
    """first[0] second[0] first[1] second[1] ...: the z-block layout
    c1 d1 c2 d2 ...; len(second) must be len(first) or one less."""
    out = [0] * (len(first) + len(second))
    out[0::2] = first
    out[1::2] = second
    return out


def _rebuild(record) -> tuple:
    """The __reduce__ of a validating tuple record: copy, deepcopy and
    pickle, on every protocol, rebuild it by calling its class on its
    fields, so a bad record is refused.  (A namedtuple's own
    __getnewargs__ serves copy and pickle protocols 2 and up only.)"""
    return (record.__class__, tuple(record))


class CanonicalMonomial(tuple):
    """A basis monomial: the tuple (yexp, cseq, dseq) of its y-exponents
    and sorted c- and d-slot indices.

    yexp[i-1] is the exponent of y_i (trailing zeros trimmed).  cseq and dseq
    list the odd-letter indices sitting in the odd resp. even positions of the
    z-block, each sorted ascending.  The z-block interleaves them
    c1 d1 c2 d2 ..., so len(dseq) is len(cseq) or len(cseq) - 1, and both are
    empty together.

    Being a slotless tuple, a monomial is immutable, and hashes, compares
    and sorts as the plain tuple of its fields, at C level; it equals that
    tuple too.  The constructor validates, keeping each field as a tuple
    (a list is read as the tuple of its items); copy, deepcopy and pickle
    rebuild through it.  Engine code whose tuples are canonical by
    construction builds through _monomial, tuple.__new__ on a ready
    (yexp, cseq, dseq) tuple, with no check and no Python frame, and
    unpacks a monomial once (y, c, d = m) where it reads more than one
    field.
    """

    __slots__ = ()

    def __new__(cls, yexp: tuple = (), cseq: tuple = (), dseq: tuple = ()):
        yexp, cseq, dseq = tuple(yexp), tuple(cseq), tuple(dseq)
        if yexp and yexp[-1] == 0:
            raise ValueError("yexp must have trailing zeros trimmed")
        if any(e < 0 for e in yexp):
            raise ValueError("negative exponent")
        for seq in (cseq, dseq):
            if any(i < 1 for i in seq):
                raise ValueError("z index must be >= 1")
            if any(seq[k] > seq[k + 1] for k in range(len(seq) - 1)):
                raise ValueError("slot indices must be sorted ascending")
        if cseq:
            if len(dseq) not in (len(cseq), len(cseq) - 1):
                raise ValueError("d-slot count must be c-slot count or one less")
        elif dseq:
            raise ValueError("d-slots cannot exist without c-slots")
        return tuple.__new__(cls, (yexp, cseq, dseq))

    yexp = property(itemgetter(0))
    cseq = property(itemgetter(1))
    dseq = property(itemgetter(2))

    @classmethod
    def make(cls, yexp=(), cseq=(), dseq=()) -> "CanonicalMonomial":
        return cls(_trim(yexp), cseq, dseq)

    __reduce__ = _rebuild

    def _embedding(self) -> tuple:
        """(has odd letters, c-slot count, d-slot count, y-degree, rows),
        built on each call: a caller that reads it more than once keeps it.

        rows holds the (y-exponent, c-slot count, d-slot count) triple of
        each index 1..max_index, built in one pass over the indices: the
        y-exponent is 0 past the end of yexp, each slot count is the run of
        i in the sorted slots, walked by one pointer per slot tuple, so the
        pass is linear in max_index plus the letters, and a pure-y
        monomial's rows are (e, 0, 0).  orders.embedders, the one kernel of
        the embedding order (pwo_leq is its one-key case), compares the
        counts and the row count in its bucket headers and scans the rows;
        the reduction loop files a generator's leading monomial's data in
        its index as the generator's key."""
        yexp, cseq, dseq = self
        if not cseq:
            return (False, 0, 0, sum(yexp), tuple([(e, 0, 0) for e in yexp]))
        # one pass over 1..max_index, yexp padded with zeros to it
        rows = []
        i = j = k = 0
        nc, nd = len(cseq), len(dseq)
        for e in yexp + (0,) * (max(cseq[-1], dseq[-1] if dseq else 0) - len(yexp)):
            i += 1
            j0, k0 = j, k
            while j < nc and cseq[j] == i:
                j += 1
            while k < nd and dseq[k] == i:
                k += 1
            rows.append((e, j - j0, k - k0))
        return (True, nc, nd, sum(yexp), tuple(rows))

    @property
    def degree(self) -> int:
        yexp, cseq, dseq = self
        return sum(yexp) + len(cseq) + len(dseq)

    @property
    def grade(self) -> int:
        return (len(self.cseq) + len(self.dseq)) % 2

    @property
    def max_index(self) -> int:
        yexp, cseq, dseq = self
        m = len(yexp)
        if cseq:
            m = max(m, cseq[-1])
        if dseq:
            m = max(m, dseq[-1])
        return m

    def word(self) -> Word:
        yexp, cseq, dseq = self
        letters: list[Letter] = []
        for i, e in enumerate(yexp, start=1):
            letters.extend([("y", i)] * e)
        letters.extend([("z", i) for i in _interleave(cseq, dseq)])
        return tuple(letters)

    def __repr__(self):
        return "CanonicalMonomial({}, {}, {})".format(*self)


# the unchecked constructor, called on a ready (yexp, cseq, dseq) tuple
_monomial = partial(tuple.__new__, CanonicalMonomial)
ONE = CanonicalMonomial()


def reduce_word(w: Word) -> tuple[int, CanonicalMonomial]:
    """Canonical image of a word: (sign, monomial).  Its letters are
    checked (an unknown family first, then an index below 1, then one above
    MAX_LETTER_INDEX), then read as factors, each to the first power
    (reduce_powers)."""
    for fam, _ in w:
        if fam != "y" and fam != "z":
            raise ValueError(f"unknown letter family {fam!r}")
    if any(idx < 1 for _, idx in w):
        raise ValueError("letter index must be >= 1")
    if any(idx > MAX_LETTER_INDEX for _, idx in w):
        raise ValueError(f"letter index above {MAX_LETTER_INDEX}")
    return reduce_powers(zip(w, repeat(1)))


def reduce_powers(factors) -> tuple[int, CanonicalMonomial]:
    """Canonical image of a word written as (letter, exponent) factors:
    (sign, monomial), in closed form, with no letter built.  The letters
    are not checked: each must be y or z, with an index >= 1.

    The sign is (-1)^t where t counts pairs (i, j), i < j, of letters with
    an odd one at i and an even one at j: commuting the even letters to the
    front crosses exactly those pairs.  So y_i^k adds k to the exponent of
    y_i, and k times the odd letters before it to t.  z_i^k appends k odd
    letters, which keep their slot parity, and each slot class sorts freely.
    A zero exponent adds nothing, so the exponents stay trimmed.
    """
    t, yexp, zs = 0, [], []
    for (fam, idx), k in factors:
        if fam == "z":
            if k == 1:
                zs.append(idx)
            else:
                zs += [idx] * k
        elif k:
            t += len(zs) * k
            if idx > len(yexp):
                yexp += [0] * (idx - len(yexp))
            yexp[idx - 1] += k
    return (-1 if t & 1 else 1), _monomial(
        (tuple(yexp), tuple(sorted(zs[0::2])), tuple(sorted(zs[1::2]))))


def _mono_mul_into(acc: dict, left: dict, right: dict) -> None:
    """acc, which comes in empty, gets left * right for two CanonicalMonomial
    -> int dicts, dropping terms that cancel: QPoly's product, the twin of
    ring._mul_into.

    Each pair multiplies in closed form, by the rule in the module
    docstring, and its product is summed under its plain (yexp, cseq, dseq)
    tuple; each sum key that survives is wrapped as a CanonicalMonomial.
    A term keeps its place from when it last became nonzero, so one that
    cancels and comes back moves to the end.  The sum of two trimmed
    exponent rows is trimmed, and slot tuples of canonical monomials come
    sorted, so a class that gains letters from both sides is the one sorted."""
    # b's parts as a meets them: with zlen(a) odd, b's classes swap and
    # its y-letters each cost a sign
    even = [(by, bc, bd, c) for (by, bc, bd), c in right.items()]
    odd = [(by, bd, bc, -c if sum(by) & 1 else c) for by, bc, bd, c in even]
    sums: dict[tuple, int] = {}
    for (ay, ac, ad), c1 in left.items():
        for by, bc, bd, c2 in (odd if len(ac) != len(ad) else even):
            y = tuple([e + f for e, f in zip_longest(ay, by, fillvalue=0)]) if ay and by else ay or by
            key = (y, tuple(sorted(ac + bc)) if ac and bc else ac or bc,
                   tuple(sorted(ad + bd)) if ad and bd else ad or bd)
            n = sums.get(key, 0) + c1 * c2
            if n:
                sums[key] = n
            else:
                sums.pop(key, None)
    acc.update(zip(map(_monomial, sums), sums.values()))


class QPoly(Combination):
    """An integer combination of canonical monomials (ring.Combination), with
    ONE as the unit and the canonical product _mono_mul_into."""

    __slots__ = ()
    _unit = ONE
    _product = staticmethod(_mono_mul_into)

    def _index_support(self) -> tuple[int, ...]:
        """Every letter index some term uses (a nonzero y-exponent or a slot
        letter), sorted, built on each call: a term's indices are those of
        the nonzero rows of its embedding data (see
        CanonicalMonomial._embedding).

        apply_reducer extends its injection over this once per lift, and
        reduction._record keeps it in a generator's record, so the
        reduction step does not compute it per step."""
        return tuple(sorted({i for m in self.terms
                             for i, row in enumerate(m._embedding()[4], start=1) if any(row)}))

    @classmethod
    def monomial(cls, m: CanonicalMonomial, coeff: int = 1) -> "QPoly":
        return cls({m: coeff})

    @classmethod
    def letter(cls, letter: Letter) -> "QPoly":
        sign, m = reduce_word((letter,))
        return cls({m: sign})

    @property
    def degree(self) -> int:
        """Max degree over the support; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    @property
    def max_index(self) -> int:
        return max((m.max_index for m in self.terms), default=0)


def normalize(weighted_words) -> QPoly:
    """Fold a list of (coeff, word) pairs into a canonical polynomial."""
    return _sum_signed((coeff, reduce_word(tuple(w))) for coeff, w in weighted_words if coeff)


def _sum_signed(items) -> QPoly:
    """The canonical polynomial of (coeff, (sign, monomial)) items: the sum
    of sign * coeff * monomial, dropping terms that cancel; each monomial
    keeps its place from when it last became nonzero."""
    acc: dict[CanonicalMonomial, int] = {}
    for coeff, (sign, m) in items:
        n = acc.get(m, 0) + sign * coeff
        if n:
            acc[m] = n
        else:
            acc.pop(m, None)
    return QPoly._trusted(acc)


# --- Lie expressions over the letters -------------------------------------

class LieVar(namedtuple("LieVar", "letter")):
    __slots__ = ()

    @property
    def grade(self) -> int:
        return 1 if self.letter[0] == "z" else 0


class LieBracket(namedtuple("LieBracket", "left right")):
    __slots__ = ()

    @property
    def grade(self) -> int:
        return (self.left.grade + self.right.grade) % 2


LieExpr = LieVar | LieBracket


def _product(lists) -> list[tuple[int, Word]]:
    """The product of weighted word lists, left operand outermost, with no
    canonical reduction: each word of it is built in one pass over its
    factors' words, not copied per factor."""
    out = []
    for combo in product(*lists):
        coeff, letters = 1, []
        for c, w in combo:
            coeff *= c
            letters += w
        out.append((coeff, tuple(letters)))
    return out


def _bracket(left, right) -> list[tuple[int, Word]]:
    """The commutator AB - BA of two weighted word lists: AB's words, then
    BA's, each product with the left operand outermost."""
    return _product([left, right]) + [(-c0 * c1, w1 + w0) for c0, w0 in left for c1, w1 in right]


def lie_to_words(e: LieExpr) -> list[tuple[int, Word]]:
    """Expand brackets in the free algebra, with no canonical reduction."""
    if isinstance(e, LieVar):
        return [(1, (e.letter,))]
    return _bracket(lie_to_words(e.left), lie_to_words(e.right))


def subst_words(weighted_words, sigma: dict[Letter, LieExpr]) -> list[tuple[int, Word]]:
    """Substitute letters by Lie expressions, expanding in the free algebra.

    Every image must match the grade of the letter it replaces; letters
    outside sigma stay themselves.  The result is a raw weighted word list
    (no canonical reduction), suitable for direct matrix evaluation.
    """
    for letter, image in sigma.items():
        want = 1 if letter[0] == "z" else 0
        if image.grade != want:
            raise GradeMismatchError(
                f"{letter[0]}{letter[1]} needs a grade-{want} image, got grade {image.grade}"
            )
    out: list[tuple[int, Word]] = []
    for coeff, w in weighted_words:
        parts: list[tuple[int, Word]] = [(coeff, ())]
        for letter in w:
            image = sigma.get(letter)
            expansion = [(1, (letter,))] if image is None else lie_to_words(image)
            parts = _product([parts, expansion])
        out.extend(parts)
    return out


def identity_generators() -> list[list[tuple[int, Word]]]:
    """The three defining relations as raw weighted word lists:
    [y1, y2],  z1 z2 z3 - z3 z2 z1,  y1 z1 + z1 y1.
    """
    y1, y2 = ("y", 1), ("y", 2)
    z1, z2, z3 = ("z", 1), ("z", 2), ("z", 3)
    return [
        [(1, (y1, y2)), (-1, (y2, y1))],
        [(1, (z1, z2, z3)), (-1, (z3, z2, z1))],
        [(1, (y1, z1)), (1, (z1, y1))],
    ]


def monomial_to_obj(m: CanonicalMonomial) -> dict:
    return {"y": list(m.yexp), "c": list(m.cseq), "d": list(m.dseq)}


# --- enumeration ------------------------------------------------------------

def _exponent_vectors(slots: int, total: int):
    """All tuples of `slots` nonnegative ints summing to `total`, in ascending
    lexicographic order.

    Iterative, so any slot count works: the successor of v moves one unit
    from its rightmost nonzero entry k to entry k-1 and sends the rest of
    v[k] to the last slot.  k is tracked, so each step costs O(1) before the
    tuple is built."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    v = [0] * slots
    v[-1] = total
    k = slots - 1 if total else 0  # rightmost nonzero entry (0 when none is)
    while True:
        yield tuple(v)
        if k == 0:
            return
        rest = v[k] - 1
        v[k - 1] += 1
        v[k] = 0
        v[-1] = rest
        k = slots - 1 if rest else k - 1


# the most monomials a command may hold at once (independence, and chain-demo
# in lex or total order, which sort the whole basis)
MAX_BASIS = 200_000


def enumerate_basis(max_degree: int, max_index: int):
    """All canonical monomials with degree <= max_degree and every letter
    index <= max_index, in a fixed degree-graded order (see _basis).

    The caps are checked on the call; the monomials are generated lazily."""
    _check_caps(max_degree, max_index)
    return _basis(max_degree, range(1, max_index + 1))


def _check_caps(max_degree: int, max_index: int) -> None:
    """The caps that enumerate_basis and _basis_size accept."""
    if max_degree < 0 or max_index < 1:
        raise ValueError("need max_degree >= 0 and max_index >= 1")


def _basis_size(max_degree: int, max_index: int, cap: int) -> int:
    """How many monomials enumerate_basis yields, in closed form, or a count
    past `cap` once the running sum exceeds it.

    At degree d and y-degree e there are C(e+n-1, n-1) y-exponent vectors
    and multisets of c = ceil((d-e)/2) c-slots and h = floor((d-e)/2)
    d-slots over n indices.  Every summand is at least 1, so the loop stops
    within cap + 1 summands whatever the caps are.  The caps are checked
    first, as enumerate_basis checks them."""
    _check_caps(max_degree, max_index)
    n, total = max_index, 0
    for d in range(max_degree + 1):
        for e in range(d + 1):
            h = (d - e) // 2
            total += comb(e + n - 1, e) * comb(d - e - h + n - 1, d - e - h) * comb(h + n - 1, h)
            if total > cap:
                return total
    return total


def _capped_basis_size(max_degree: int, max_index: int, cap: int = MAX_BASIS) -> int:
    """_basis_size, or ResourceBoundError when it is past `cap`: commands
    that hold the whole basis at once check this before they enumerate."""
    count = _basis_size(max_degree, max_index, cap)
    if count > cap:
        raise ResourceBoundError(f"enumeration exceeded {cap} monomials; tighten the caps")
    return count


def _basis(max_degree: int, idx: range):
    """enumerate_basis's monomials, in its order: by degree d, then y-degree
    e from d down to 0; within that class, every y-exponent vector over idx
    (_exponent_vectors, trimmed), joined to every multiset of
    ceil((d-e)/2) c-slots, then of floor((d-e)/2) d-slots, over idx.

    Nothing is built ahead of its turn, so a caller that stops early draws
    only the exponent vectors it read."""
    for d in range(max_degree + 1):
        for e in range(d, -1, -1):
            clen, dlen = (d - e + 1) // 2, (d - e) // 2
            for yv in _exponent_vectors(len(idx), e):
                yexp = _trim(yv)
                for cs in combinations_with_replacement(idx, clen):
                    for ds in combinations_with_replacement(idx, dlen):
                        yield _monomial((yexp, cs, ds))
