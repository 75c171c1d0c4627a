"""Generic 2x2 matrices and the exact identity oracle.

Even letters evaluate to generic diagonal trace-zero matrices, odd letters to
generic off-diagonal ones:

    Y_i = [[alpha_i, 0], [0, -alpha_i]]      Z_i = [[0, beta_i], [gamma_i, 0]]

over the integer polynomial ring in the alpha/beta/gamma families.  The pair
(diagonal subalgebra, off-diagonal part) is relatively free for the graded
weak identities in play, so a polynomial vanishes under every graded
substitution by (M2, sl2) pairs exactly when its generic evaluation is the
zero matrix.  Everything is exact integer polynomial arithmetic; there is no
tolerance anywhere.

Every generic evaluation has the form [[a, b], [sigma b, sigma a]], where
sigma (_conj) negates each alpha and swaps beta with gamma, so it is carried
as its first row (e11, e12) alone.  A product is four block products of
rows, in closed form; row 2 is built by _conj only where a GMatrix2 is
handed out.  A ring term alpha^a * beta^b * gamma^g is the tuple (a, b, g)
in the layout of a canonical monomial's (yexp, cseq, dseq) (see ring), so a
basis monomial's one +-1 term in row 1 is the monomial's own tuple, and the
rank of the independence matrix is the count of distinct row-1 entries.
That count is read per (degree, y-degree) class of the basis
(freealg._basis_classes): each class's slot pairs are built once and joined
to each trimmed y-exponent vector, with no monomial built.
"""

from collections import namedtuple
from itertools import combinations_with_replacement

from .freealg import MAX_BASIS, CanonicalMonomial, QPoly, _basis_classes, _capped_basis_size, _trim
from .intlinalg import _row_axpy
from .parsing import fold_tree
from .ring import MultiPoly, Term, _mul_into


class GMatrix2(namedtuple("GMatrix2", "e11 e12 e21 e22")):
    __slots__ = ()

    def __add__(self, other: "GMatrix2") -> "GMatrix2":
        return GMatrix2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return GMatrix2(self.e11 * other, self.e12 * other, self.e21 * other, self.e22 * other)
        if not isinstance(other, GMatrix2):
            return NotImplemented
        return GMatrix2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return (
            self.e11.is_zero()
            and self.e12.is_zero()
            and self.e21.is_zero()
            and self.e22.is_zero()
        )


def _conj(entry: dict) -> dict:
    """sigma(entry), for sigma the ring automorphism alpha_i -> -alpha_i,
    beta_i <-> gamma_i: each term (a, b, g) becomes (a, g, b), its
    coefficient negated when the alpha degree sum(a) is odd.

    Why row 1 determines a generic evaluation: Y_i = [[alpha_i, 0], [0,
    sigma alpha_i]] and Z_i = [[0, beta_i], [sigma beta_i, 0]].  For X =
    [[a, b], [sigma b, sigma a]] and X' = [[c, d], [sigma d, sigma c]],
    XX' = [[ac + b sigma d, ad + b sigma c], [sigma(ad + b sigma c),
    sigma(ac + b sigma d)]].  Sums and integer multiples keep the form, and
    sigma is an involutive ring automorphism of Z[alpha, beta, gamma].
    """
    return {(a, g, b): -c if sum(a) & 1 else c for (a, b, g), c in entry.items()}


def _word_entries(w) -> tuple[int, Term, int]:
    """The one nonzero row-1 entry of a word's generic evaluation, in closed
    form, as a (position, term, sign) triple: position 0 (e11) for an even
    number of odd letters, else 1 (e12).

    Follow row 1 of the product through the word.  Y_i keeps the row's
    column and multiplies it by alpha_i, negated in column 2; Z_i moves
    column 1 to 2 through beta_i and column 2 to 1 through gamma_i.  So the
    k-th odd letter (k = 0, 1, ...) gives a beta when k is even and a gamma
    when k is odd, and each even letter that comes after an odd number of
    odd ones negates the sign.  No canonical reduction is involved.

    The y-letters are counted into a list of exponents by index, grown as
    an index past its end is read, and the z indices are collected into
    one list per slot class, sorted after the loop: the term in ring's
    layout.  An unknown family raises as it is read; indices below 1 are
    checked after the loop.
    """
    a: list[int] = []
    slots: tuple[list[int], list[int]] = ([], [])
    nz = flips = low = 0  # low: a y index below 1 was read
    for fam, idx in w:
        if fam == "y":
            if idx > len(a):
                a += [0] * (idx - len(a))
            elif idx < 1:
                low = 1
                continue
            a[idx - 1] += 1
            flips += nz & 1
        elif fam == "z":
            slots[nz & 1].append(idx)
            nz += 1
        else:
            raise ValueError(f"unknown letter family {fam!r}")
    b, g = sorted(slots[0]), sorted(slots[1])
    if low or b and b[0] < 1 or g and g[0] < 1:
        raise ValueError("letter index must be >= 1")
    return nz & 1, (tuple(a), tuple(b), tuple(g)), -1 if flips & 1 else 1


def _slot_entries(monos):
    """The row-1 entry of each canonical monomial's generic evaluation, read
    off its slots, as _word_entries gives it for its word.

    The canonical word puts every y-letter first, then the z-block
    c1 d1 c2 d2 ...  So the term is alpha^yexp * beta^cseq * gamma^dseq with
    sign +1, in e11 for an even z-block length and in e12 for an odd one:
    the monomial's own fields are the term, handed out as a plain tuple.
    """
    for yexp, c, d in monos:
        yield int(len(c) != len(d)), (yexp, c, d), 1


def eval_word(w) -> GMatrix2:
    """The product of the generic matrices along the word w."""
    return evaluate([(1, w)])


def evaluate(f) -> GMatrix2:
    """Evaluate a polynomial at the generic matrices.

    Accepts a QPoly, a single CanonicalMonomial, or an iterable of
    (coeff, word) pairs.  A canonical monomial adds its row-1 slot entry
    (_slot_entries: alpha^yexp * beta^cseq * gamma^dseq with sign +1),
    scaled by its coefficient; no word is built.  The pairs evaluate raw
    words with no canonical reduction, which is what makes cross-checks
    against the rewriting honest: each word adds its signed row-1 term,
    followed through the word (_word_entries).  Row 2 is sigma of row 1
    (_conj).  No matrix or polynomial product is formed.
    """
    if isinstance(f, CanonicalMonomial):
        f = QPoly({f: 1})
    if isinstance(f, QPoly):
        row = _entries_matrix(zip(f.terms.values(), _slot_entries(f.terms)))
    else:
        row = _words_matrix(f)
    return _matrix(row)


# --- the parse tree in the generic-matrix ring --------------------------------
# A matrix is its first row, a pair of Term -> int dicts (e11, e12) with no
# zero coefficient; an empty dict is a zero block, which products skip.

def _matrix(row: tuple[dict, dict]) -> GMatrix2:
    """The whole matrix [[a, b], [sigma b, sigma a]] of the row (a, b)."""
    a, b = row
    return GMatrix2(MultiPoly(a), MultiPoly(b), MultiPoly(_conj(b)), MultiPoly(_conj(a)))


def _entries_matrix(pairs) -> tuple[dict, dict]:
    """The row summed over (coeff, (position, term, sign)) pairs, one per
    monomial or word."""
    acc: tuple[dict, dict] = ({}, {})
    for coeff, (pos, term, sign) in pairs:
        entry = acc[pos]
        n = entry.get(term, 0) + sign * coeff
        if n:
            entry[term] = n
        else:
            del entry[term]
    return acc


def _words_matrix(pairs) -> tuple[dict, dict]:
    """The generic evaluation of (coeff, word) pairs: each word adds its
    signed term straight into the row."""
    return _entries_matrix((coeff, _word_entries(w)) for coeff, w in pairs if coeff)


def _add_into(acc: tuple[dict, dict], m: tuple[dict, dict], sign: int) -> tuple[dict, dict]:
    for entry, other in zip(acc, m):
        _row_axpy(entry, other, sign)
    return acc


def _mat_mul(x: tuple[dict, dict], y: tuple[dict, dict]) -> tuple[dict, dict]:
    """(a, b)(c, d) = (ac + b sigma d, ad + b sigma c), by _conj's identity.
    A block product with an empty operand adds nothing, so it is skipped,
    and sigma is taken of a nonempty block only."""
    (a, b), (c, d) = x, y
    e11, e12 = {}, {}
    if a and c:
        _mul_into(e11, a, c)
    if a and d:
        _mul_into(e12, a, d)
    if b and d:
        _mul_into(e11, b, _conj(d))
    if b and c:
        _mul_into(e12, b, _conj(c))
    return e11, e12


def _row1_terms(m: tuple[dict, dict]) -> list[tuple[int, int]]:
    """A matrix's canonical terms as (degree, coefficient) pairs, read off
    its row: each canonical monomial puts one term there, with sign +-1, and
    distinct monomials put distinct terms, so no two cancel.  A term
    (a, b, g) has the degree of its monomial, sum(a) + len(b) + len(g)."""
    return [(sum(a) + len(b) + len(g), c) for entry in m for (a, b, g), c in entry.items()]


def _tree_row(node) -> tuple[dict, dict]:
    """The first row of the generic evaluation of a parse tree
    (parsing.parse), node by node, with no row 2 built: the matrix is zero
    exactly when this row is, so cli's is-identity tests it alone.

    Equal to the first row of evaluate(parsing.to_words(node)):
    parsing.fold_tree over the first rows (parse has checked the word cap).
    Sums, brackets and the nodes built on them are matrices: sums add,
    products multiply, a power squares and a bracket is AB - BA, so the cost
    follows the tree, not its raw expansion.  A power whose base has one
    canonical term charges the power caps by that term, read off row 1, as
    parse_poly does; to_words charges only powers of single raw words, so
    such an input may fail here and expand there.  No canonical reduction is
    involved.
    """
    return fold_tree(node, _words_matrix, _add_into, _mat_mul, _row1_terms)


def is_graded_weak_identity(f) -> bool:
    """True iff f vanishes identically on the graded pair; exact."""
    return evaluate(f).is_zero()


class IndependenceReport(namedtuple("IndependenceReport", "degree indices monomials rank")):
    __slots__ = ()

    @property
    def full_rank(self) -> bool:
        return self.rank == self.monomials

    def to_obj(self) -> dict:
        return self._asdict()


def independence_report(max_degree: int = 6, max_index: int = 3) -> IndependenceReport:
    """Rank of the evaluation matrix of all basis monomials within the caps.

    Full rank certifies that the enumerated monomials evaluate to Z-linearly
    independent matrices, i.e. that no nonzero integer combination of them is
    a graded weak identity.  The rank is a count, exact for any family of
    rows: row 2 is a signed permutation of row 1's columns onto disjoint
    positions, so the full rows have the rank of their row-1 parts, and each
    row-1 part is a single +-1 entry, so that rank is the number of distinct
    entries.

    The entries are read per (degree, y-degree) class of the basis, after
    the cap has passed: a class's c- and d-slot multisets are paired once,
    with the class's position, and each trimmed y-exponent vector joins
    every pair, so an entry is counted as the flat tuple (position, yexp,
    cseq, dseq): the (position, term) of _slot_entries, in e12 when the
    class has an odd z-block, with one tuple built per monomial.
    """
    classes = _basis_classes(max_degree, max_index)  # validates the caps at once
    count = _capped_basis_size(max_degree, max_index, MAX_BASIS)
    idx = range(1, max_index + 1)
    seen: set = set()
    for yvecs, clen, dlen in classes:
        pos = int(clen != dlen)
        slots = [(pos, cs, ds) for cs in combinations_with_replacement(idx, clen)
                 for ds in combinations_with_replacement(idx, dlen)]
        for yv in yvecs:
            a = (_trim(yv),)
            seen.update([a + s for s in slots])
    return IndependenceReport(max_degree, max_index, count, len(seen))
