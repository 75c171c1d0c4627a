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
product (_mono_mul_into), where two monomials multiply in closed form
(_mono_mul):
a.b carries the sign (-1)^(zlen(a) * ydeg(b)), from moving b's y-letters past
a's z-block; the y-exponents add; and b's c- and d-slot letters join a's
slot classes, swapping class when zlen(a) is odd, because b's z-block then
starts on a d-slot.  No product goes through words; reduce_word reads a word
in, and CanonicalMonomial.word writes one out.
"""

from dataclasses import FrozenInstanceError, dataclass
from itertools import combinations_with_replacement, product, zip_longest
from math import comb

from .errors import GradeMismatchError, ResourceBoundError
from .ring import Combination

Letter = tuple[str, int]  # ("y" | "z", index >= 1)
Word = tuple[Letter, ...]


_new = object.__new__
_set = object.__setattr__  # bypasses CanonicalMonomial's blocking __setattr__


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


class CanonicalMonomial:
    """A basis monomial: y-exponents plus the sorted c- and d-slot indices.

    yexp[i-1] is the exponent of y_i (trailing zeros trimmed).  cseq and dseq
    list the odd-letter indices sitting in the odd resp. even positions of the
    z-block, each sorted ascending.  The z-block interleaves them
    c1 d1 c2 d2 ..., so len(dseq) is len(cseq) or len(cseq) - 1, and both are
    empty together.

    Instances are immutable and slotted.  The hash is computed once, at
    construction.  The embedding data that the embedding-order kernel
    orders.embedders reads is built on first use and kept (see _embedding).
    """

    __slots__ = ("yexp", "cseq", "dseq", "_hash", "_emb")

    def __init__(self, yexp: tuple = (), cseq: tuple = (), dseq: tuple = ()):
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
        _set(self, "yexp", yexp)
        _set(self, "cseq", cseq)
        _set(self, "dseq", dseq)
        _set(self, "_hash", hash((yexp, cseq, dseq)))
        _set(self, "_emb", None)

    @classmethod
    def make(cls, yexp=(), cseq=(), dseq=()) -> "CanonicalMonomial":
        return cls(_trim(yexp), tuple(cseq), tuple(dseq))

    @classmethod
    def _trusted(cls, yexp: tuple, cseq: tuple, dseq: tuple) -> "CanonicalMonomial":
        """Build without re-validation, for engine code whose tuples are
        canonical by construction: trimmed yexp, sorted slot sequences of
        admissible lengths, indices >= 1."""
        m = _new(cls)
        _set(m, "yexp", yexp)
        _set(m, "cseq", cseq)
        _set(m, "dseq", dseq)
        _set(m, "_hash", hash((yexp, cseq, dseq)))
        _set(m, "_emb", None)
        return m

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating constructor
        return (self.__class__, (self.yexp, self.cseq, self.dseq))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.yexp == other.yexp
                and self.cseq == other.cseq and self.dseq == other.dseq)

    def __hash__(self):
        return self._hash

    def _embedding(self) -> tuple:
        """(has odd letters, c-slot count, d-slot count, y-degree, rows),
        built on the first call and kept.

        rows holds the (y-exponent, c-slot count, d-slot count) triple of
        each index 1..max_index.  orders.embedders, the one kernel of the
        embedding order (pwo_leq is its one-key case), compares the counts
        in its column-sum reject and scans the rows; the reduction loop
        keeps a generator's leading monomial's data as its key."""
        emb = self._emb
        if emb is None:
            n = self.max_index
            cs, ds = [0] * n, [0] * n
            for i in self.cseq:
                cs[i - 1] += 1
            for i in self.dseq:
                ds[i - 1] += 1
            ys = self.yexp + (0,) * (n - len(self.yexp))
            emb = (bool(self.cseq), len(self.cseq), len(self.dseq), sum(self.yexp),
                   tuple(zip(ys, cs, ds)))
            _set(self, "_emb", emb)
        return emb

    @property
    def degree(self) -> int:
        return sum(self.yexp) + len(self.cseq) + len(self.dseq)

    @property
    def grade(self) -> int:
        return (len(self.cseq) + len(self.dseq)) % 2

    @property
    def max_index(self) -> int:
        m = len(self.yexp)
        if self.cseq:
            m = max(m, self.cseq[-1])
        if self.dseq:
            m = max(m, self.dseq[-1])
        return m

    def word(self) -> Word:
        letters: list[Letter] = []
        for i, e in enumerate(self.yexp, start=1):
            letters.extend([("y", i)] * e)
        letters.extend([("z", i) for i in _interleave(self.cseq, self.dseq)])
        return tuple(letters)

    def __repr__(self):
        return f"CanonicalMonomial({self.yexp}, {self.cseq}, {self.dseq})"


ONE = CanonicalMonomial()


def reduce_word(w: Word) -> tuple[int, CanonicalMonomial]:
    """Canonical image of a word: (sign, monomial).

    The sign is (-1)^t where t counts pairs (i, j), i < j, with w[i] odd and
    w[j] even: commuting the even letters to the front crosses exactly those
    pairs.  The surviving odd letters keep their slot parity and each slot
    class sorts freely.
    """
    t = 0
    seen_z = 0
    ycount: dict[int, int] = {}
    zs: list[int] = []
    for fam, idx in w:
        if fam == "z":
            seen_z += 1
            zs.append(idx)
        elif fam == "y":
            t += seen_z
            ycount[idx] = ycount.get(idx, 0) + 1
        else:
            raise ValueError(f"unknown letter family {fam!r}")
    if (ycount and min(ycount) < 1) or (zs and min(zs) < 1):
        raise ValueError("letter index must be >= 1")
    yexp = [0] * (max(ycount) if ycount else 0)
    for idx, e in ycount.items():
        yexp[idx - 1] = e
    sign = -1 if t % 2 else 1
    return sign, CanonicalMonomial._trusted(tuple(yexp), tuple(sorted(zs[0::2])),
                                            tuple(sorted(zs[1::2])))


def _mono_mul(ay: tuple, ac: tuple, ad: tuple,
              by: tuple, bc: tuple, bd: tuple) -> tuple[int, CanonicalMonomial]:
    """The product of the canonical monomials with parts (ay, ac, ad) and
    (by, bc, bd), as (sign, monomial), by the rule in the module docstring.

    a's parts must be canonical; b's slot tuples may come in any order, as
    each slot class that gains letters is sorted here.  The sum of two
    trimmed exponent rows is trimmed."""
    if len(ac) == len(ad):  # zlen(a) is even
        sign = 1
    else:
        bc, bd, sign = bd, bc, (-1 if sum(by) & 1 else 1)
    return sign, CanonicalMonomial._trusted(
        tuple([e + f for e, f in zip_longest(ay, by, fillvalue=0)]) if by else ay,
        tuple(sorted(ac + bc)) if bc else ac, tuple(sorted(ad + bd)) if bd else ad)


def _mono_mul_into(acc: dict, left: dict, right: dict) -> None:
    """acc += left * right for two CanonicalMonomial -> int dicts, in place,
    dropping terms that cancel: QPoly's product, the twin of ring._mul_into."""
    right = [(m2.yexp, m2.cseq, m2.dseq, c2) for m2, c2 in right.items()]
    for m1, c1 in left.items():
        ay, ac, ad = m1.yexp, m1.cseq, m1.dseq
        for by, bc, bd, c2 in right:
            sign, m = _mono_mul(ay, ac, ad, by, bc, bd)
            n = acc.get(m, 0) + sign * c1 * c2
            if n:
                acc[m] = n
            else:
                acc.pop(m, None)


class QPoly(Combination):
    """An integer combination of canonical monomials (ring.Combination), with
    ONE as the unit and the canonical product _mono_mul_into.

    The index support that a renaming of the polynomial has to cover is
    built on first use and kept (see _index_support).
    """

    __slots__ = ("_support",)
    _unit = ONE
    _product = staticmethod(_mono_mul_into)

    def __init__(self, terms: dict[CanonicalMonomial, int] | None = None):
        super().__init__(terms)
        self._support = None

    @classmethod
    def _trusted(cls, terms: dict[CanonicalMonomial, int]) -> "QPoly":
        """Combination._trusted, with the kept index support reset."""
        f = _new(cls)
        f.terms, f._support = terms, None
        return f

    def _index_support(self) -> tuple[int, ...]:
        """Every letter index some term uses (a nonzero y-exponent or a slot
        letter), sorted; built on the first call and kept.  A term's indices
        are those of the nonzero rows of its embedding data (see
        CanonicalMonomial._embedding).

        reduction's lift (reduction._lift, traced or not, and apply_reducer)
        extends its witness over this once per lift, so a generator's
        support is computed once, not once per step.  The lifted polynomial
        is the generator's tail, to which reduction._record hands the whole
        generator's support."""
        support = self._support
        if support is None:
            idx = {i for m in self.terms
                   for i, row in enumerate((m._emb or m._embedding())[4], start=1) if any(row)}
            support = self._support = tuple(sorted(idx))
        return support

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
    acc: dict[CanonicalMonomial, int] = {}
    for coeff, w in weighted_words:
        if not coeff:
            continue
        sign, m = reduce_word(tuple(w))
        n = acc.get(m, 0) + sign * coeff
        if n:
            acc[m] = n
        else:
            acc.pop(m, None)
    return QPoly._trusted(acc)


# --- Lie expressions over the letters -------------------------------------

@dataclass(frozen=True)
class LieVar:
    letter: Letter

    @property
    def grade(self) -> int:
        return 1 if self.letter[0] == "z" else 0


@dataclass(frozen=True)
class LieBracket:
    left: "LieVar | LieBracket"
    right: "LieVar | LieBracket"

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
    index <= max_index, in a fixed degree-graded order.

    The caps are checked on the call; the monomials are generated lazily."""
    if max_degree < 0 or max_index < 1:
        raise ValueError("need max_degree >= 0 and max_index >= 1")
    return _basis(max_degree, max_index)


def _basis_size(max_degree: int, max_index: int, cap: int) -> int:
    """How many monomials enumerate_basis yields, in closed form, or a count
    past `cap` once the running sum exceeds it.

    At degree d and y-degree e there are C(e+n-1, n-1) y-exponent vectors
    and multisets of c = ceil((d-e)/2) c-slots and h = floor((d-e)/2)
    d-slots over n indices.  Every summand is at least 1, so the loop stops
    within cap + 1 summands whatever the caps are."""
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


def _basis(max_degree: int, max_index: int):
    idx = range(1, max_index + 1)
    for d in range(max_degree + 1):
        for ydeg in range(d, -1, -1):
            zlen = d - ydeg
            clen = (zlen + 1) // 2
            dlen = zlen // 2
            for yv in _exponent_vectors(max_index, ydeg):
                yexp = _trim(yv)
                for cs in combinations_with_replacement(idx, clen):
                    for ds in combinations_with_replacement(idx, dlen):
                        yield CanonicalMonomial._trusted(yexp, cs, ds)
