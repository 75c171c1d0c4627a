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
"""

from dataclasses import dataclass

from .freealg import MAX_BASIS, CanonicalMonomial, QPoly, _capped_basis_size, enumerate_basis
from .intlinalg import IntRowLattice, _row_axpy
from .parsing import fold_tree
from .ring import MultiPoly, Term, _mul_into


@dataclass(frozen=True)
class GMatrix2:
    e11: MultiPoly
    e12: MultiPoly
    e21: MultiPoly
    e22: MultiPoly

    def __add__(self, other: "GMatrix2") -> "GMatrix2":
        return GMatrix2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def __sub__(self, other: "GMatrix2") -> "GMatrix2":
        return GMatrix2(
            self.e11 - other.e11,
            self.e12 - other.e12,
            self.e21 - other.e21,
            self.e22 - other.e22,
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


def _family_term(family: str, items: list[tuple[int, int]]) -> Term:
    """Sorted (index, exponent) pairs of one family as a ring term."""
    return tuple([((family, i), e) for i, e in items])


def _word_entries(w) -> tuple[tuple[int, Term, int], tuple[int, Term, int]]:
    """The two nonzero entries of a word's generic evaluation, in closed form.

    Follow rows 1 and 2 of the product through the word.  The rows always sit
    in opposite columns: Y_i keeps a row's column and multiplies it by
    alpha_i, negated in column 2; Z_i moves column 1 to 2 through beta_i and
    column 2 to 1 through gamma_i.  So the k-th odd letter (k = 0, 1, ...)
    gives row 1 a beta when k is even and a gamma when k is odd, and row 2
    the other one; an even letter negates row 1 after an odd number of odd
    letters and row 2 after an even number.  Returns two
    (entry position, term, sign) triples, positions running e11, e12, e21,
    e22: the diagonal pair for an even number of odd letters, else the
    off-diagonal pair.
    """
    ys: dict[int, int] = {}
    cs: dict[int, int] = {}
    ds: dict[int, int] = {}
    nz = 0
    flips = [0, 0]  # even letters seen after an even / odd number of odd ones
    for fam, idx in w:
        if fam == "y":
            ys[idx] = ys.get(idx, 0) + 1
            flips[nz & 1] += 1
        elif fam == "z":
            slot = ds if nz & 1 else cs
            slot[idx] = slot.get(idx, 0) + 1
            nz += 1
        else:
            raise ValueError(f"unknown letter family {fam!r}")
    y_items, c_items, d_items = sorted(ys.items()), sorted(cs.items()), sorted(ds.items())
    for items in (y_items, c_items, d_items):
        if items and items[0][0] < 1:
            raise ValueError("letter index must be >= 1")
    a = _family_term("alpha", y_items)
    row1 = a + _family_term("beta", c_items) + _family_term("gamma", d_items)
    row2 = a + _family_term("beta", d_items) + _family_term("gamma", c_items)
    sign1 = -1 if flips[1] & 1 else 1
    sign2 = -1 if flips[0] & 1 else 1
    if nz & 1:
        return (1, row1, sign1), (2, row2, sign2)
    return (0, row1, sign1), (3, row2, sign2)


def eval_word(w) -> GMatrix2:
    """The product of the generic matrices along the word w."""
    return evaluate([(1, w)])


def evaluate(f) -> GMatrix2:
    """Evaluate a polynomial at the generic matrices.

    Accepts a QPoly, a single CanonicalMonomial, or an iterable of
    (coeff, word) pairs; the last form evaluates raw words with no canonical
    reduction, which is what makes cross-checks against the rewriting honest.
    Each word adds its two signed terms straight into the four entries; no
    matrix or polynomial product is formed.
    """
    if isinstance(f, CanonicalMonomial):
        return eval_word(f.word())
    if isinstance(f, QPoly):
        pairs = ((c, m.word()) for m, c in f.terms.items())
    else:
        pairs = f
    return GMatrix2(*(MultiPoly(entry) for entry in _words_matrix(pairs)))


# --- the parse tree in the generic-matrix ring --------------------------------
# A matrix is a tuple of four Term -> int dicts (e11, e12, e21, e22) with no
# zero coefficient; an empty dict is a zero block, which products skip.

# (product entry, left entry, right entry) for the eight block products
_PRODUCT_BLOCKS = ((0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 1, 3),
                   (2, 2, 0), (2, 3, 2), (3, 2, 1), (3, 3, 3))


def _words_matrix(pairs) -> tuple[dict, ...]:
    """The generic evaluation of (coeff, word) pairs: each word adds its two
    signed terms straight into the four entries."""
    acc: tuple[dict, ...] = ({}, {}, {}, {})
    for coeff, w in pairs:
        if not coeff:
            continue
        for pos, term, sign in _word_entries(w):
            entry = acc[pos]
            n = entry.get(term, 0) + sign * coeff
            if n:
                entry[term] = n
            else:
                del entry[term]
    return acc


def _add_into(acc: tuple[dict, ...], m: tuple[dict, ...], sign: int) -> tuple[dict, ...]:
    for entry, other in zip(acc, m):
        _row_axpy(entry, other, sign)
    return acc


def _mat_mul(a: tuple[dict, ...], b: tuple[dict, ...]) -> tuple[dict, ...]:
    out: tuple[dict, ...] = ({}, {}, {}, {})
    for o, i, j in _PRODUCT_BLOCKS:
        _mul_into(out[o], a[i], b[j])
    return out


def evaluate_tree(node) -> GMatrix2:
    """The generic evaluation of a parse tree (parsing.parse), node by node.

    Equal to evaluate(parsing.to_words(node)), with the same errors:
    parsing.fold_tree over the four-entry matrices, so the word cap is
    checked first and every power of a single word charges the power caps as
    to_words does.  A node of two or more raw words is a matrix: sums add,
    products multiply, a power squares and a bracket is AB - BA, so the cost
    follows the tree, not its raw expansion.  No canonical reduction is
    involved.
    """
    entries = fold_tree(node, _words_matrix, _add_into, _mat_mul)
    return GMatrix2(*(MultiPoly(entry) for entry in entries))


def is_graded_weak_identity(f) -> bool:
    """True iff f vanishes identically on the graded pair; exact."""
    return evaluate(f).is_zero()


def monomial_row(m: CanonicalMonomial) -> dict:
    """The evaluation of m flattened to a sparse integer row.

    Columns are (entry position, commutative-term key) pairs; entry positions
    run e11, e12, e21, e22.  Each basis monomial hits exactly two entries with
    a single +/-1 term each, which is what makes the independence matrix easy
    to rank exactly.
    """
    return {(pos, term): sign for pos, term, sign in _word_entries(m.word())}


@dataclass(frozen=True)
class IndependenceReport:
    degree: int
    indices: int
    monomials: int
    rank: int

    @property
    def full_rank(self) -> bool:
        return self.rank == self.monomials

    def to_obj(self) -> dict:
        return {
            "degree": self.degree,
            "indices": self.indices,
            "monomials": self.monomials,
            "rank": self.rank,
        }


def independence_report(max_degree: int = 6, max_index: int = 3) -> IndependenceReport:
    """Rank of the evaluation matrix of all basis monomials within the caps.

    Full rank certifies that the enumerated monomials evaluate to Z-linearly
    independent matrices, i.e. that no nonzero integer combination of them is
    a graded weak identity.
    """
    monos = enumerate_basis(max_degree, max_index)  # validates the caps at once
    count = _capped_basis_size(max_degree, max_index, MAX_BASIS)
    lattice = IntRowLattice()
    for m in monos:
        lattice.add(monomial_row(m))
    return IndependenceReport(max_degree, max_index, count, lattice.rank)
