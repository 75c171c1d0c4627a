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

from dataclasses import asdict, dataclass
from itertools import groupby

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


def _slot_entries(monos):
    """The two nonzero entries of each canonical monomial's generic
    evaluation, read off its slots, as _word_entries gives them for its word.

    The canonical word puts every y-letter first, then the z-block
    c1 d1 c2 d2 ...  So row 1's term is alpha^yexp * beta^cseq * gamma^dseq
    with sign +1, and row 2's swaps beta and gamma, with sign (-1)^ydeg.  An
    even z-block length gives the diagonal pair (e11, e22), an odd one the
    off-diagonal pair (e12, e21).  The families sort alpha < beta < gamma, so
    joining the three parts gives the term already sorted.  Each part is
    built once per distinct y-exponent tuple or slot tuple in this call.
    """
    alphas: dict = {}
    betas: dict = {}
    gammas: dict = {}
    for m in monos:
        yexp, c, d = m.yexp, m.cseq, m.dseq
        ys = alphas.get(yexp)
        if ys is None:
            a = _family_term("alpha", [(i, e) for i, e in enumerate(yexp, 1) if e])
            ys = alphas[yexp] = (a, -1 if sum(yexp) & 1 else 1)
        a, sign2 = ys
        row1 = a + _slot_part(betas, "beta", c) + _slot_part(gammas, "gamma", d)
        row2 = a + _slot_part(betas, "beta", d) + _slot_part(gammas, "gamma", c)
        if len(c) != len(d):
            yield (1, row1, 1), (2, row2, sign2)
        else:
            yield (0, row1, 1), (3, row2, sign2)


def _slot_part(memo: dict, family: str, seq: tuple) -> Term:
    """The family's term for a sorted slot tuple, built on its first call
    with that tuple and kept in memo."""
    part = memo.get(seq)
    if part is None:
        part = memo[seq] = _family_term(family, [(i, len(list(run))) for i, run in groupby(seq)])
    return part


def eval_word(w) -> GMatrix2:
    """The product of the generic matrices along the word w."""
    return evaluate([(1, w)])


def evaluate(f) -> GMatrix2:
    """Evaluate a polynomial at the generic matrices.

    Accepts a QPoly, a single CanonicalMonomial, or an iterable of
    (coeff, word) pairs.  A canonical monomial adds its two signed slot
    entries (_slot_entries: row 1 alpha^yexp * beta^cseq * gamma^dseq with
    sign +1, row 2 with beta and gamma swapped and sign (-1)^ydeg), scaled
    by its coefficient; no word is built.  The pairs evaluate raw words with
    no canonical reduction, which is what makes cross-checks against the
    rewriting honest: each word adds its two signed terms, followed through
    the word (_word_entries).  No matrix or polynomial product is formed.
    """
    if isinstance(f, CanonicalMonomial):
        f = QPoly({f: 1})
    if isinstance(f, QPoly):
        entries = _entries_matrix(zip(f.terms.values(), _slot_entries(f.terms)))
    else:
        entries = _words_matrix(f)
    return GMatrix2(*(MultiPoly(entry) for entry in entries))


# --- the parse tree in the generic-matrix ring --------------------------------
# A matrix is a tuple of four Term -> int dicts (e11, e12, e21, e22) with no
# zero coefficient; an empty dict is a zero block, which products skip.

# (product entry, left entry, right entry) for the eight block products
_PRODUCT_BLOCKS = ((0, 0, 0), (0, 1, 2), (1, 0, 1), (1, 1, 3),
                   (2, 2, 0), (2, 3, 2), (3, 2, 1), (3, 3, 3))


def _entries_matrix(pairs) -> tuple[dict, ...]:
    """The four entries summed over (coeff, two) pairs, where two holds the
    (position, term, sign) triples of one monomial or one word."""
    acc: tuple[dict, ...] = ({}, {}, {}, {})
    for coeff, two in pairs:
        for pos, term, sign in two:
            entry = acc[pos]
            n = entry.get(term, 0) + sign * coeff
            if n:
                entry[term] = n
            else:
                del entry[term]
    return acc


def _words_matrix(pairs) -> tuple[dict, ...]:
    """The generic evaluation of (coeff, word) pairs: each word adds its two
    signed terms straight into the four entries."""
    return _entries_matrix((coeff, _word_entries(w)) for coeff, w in pairs if coeff)


def _add_into(acc: tuple[dict, ...], m: tuple[dict, ...], sign: int) -> tuple[dict, ...]:
    for entry, other in zip(acc, m):
        _row_axpy(entry, other, sign)
    return acc


def _mat_mul(a: tuple[dict, ...], b: tuple[dict, ...]) -> tuple[dict, ...]:
    out: tuple[dict, ...] = ({}, {}, {}, {})
    for o, i, j in _PRODUCT_BLOCKS:
        _mul_into(out[o], a[i], b[j])
    return out


def _row1_terms(m: tuple[dict, ...]) -> list[tuple[int, int]]:
    """A matrix's canonical terms as (degree, coefficient) pairs, read off
    row 1 (e11, e12): each canonical monomial puts one term there, with sign
    +-1, and distinct monomials put distinct terms, so no two cancel."""
    return [(sum(e for _, e in term), c) for entry in m[:2] for term, c in entry.items()]


def evaluate_tree(node) -> GMatrix2:
    """The generic evaluation of a parse tree (parsing.parse), node by node.

    Equal to evaluate(parsing.to_words(node)): parsing.fold_tree over the
    four-entry matrices (parse has checked the word cap).  Sums, brackets
    and the nodes built on them are matrices: sums add, products multiply, a
    power squares and a bracket is AB - BA, so the cost follows the tree, not
    its raw expansion.  A power whose base has one canonical term charges the power
    caps by that term, read off row 1, as parse_poly does; to_words charges
    only powers of single raw words, so such an input may fail here and
    expand there.  No canonical reduction is involved.
    """
    entries = fold_tree(node, _words_matrix, _add_into, _mat_mul, _row1_terms)
    return GMatrix2(*(MultiPoly(entry) for entry in entries))


def is_graded_weak_identity(f) -> bool:
    """True iff f vanishes identically on the graded pair; exact."""
    return evaluate(f).is_zero()


def monomial_row(m: CanonicalMonomial) -> dict:
    """The evaluation of m flattened to a sparse integer row, read off its
    slots (_slot_entries).

    Columns are (entry position, commutative-term key) pairs; entry positions
    run e11, e12, e21, e22.  Each basis monomial hits exactly two entries with
    a single +/-1 term each: alpha^yexp * beta^cseq * gamma^dseq with +1 and
    the beta/gamma swap with (-1)^ydeg, in e11 and e22 for an even z-block,
    else in e12 and e21.  That is what makes the independence matrix easy to
    rank exactly.
    """
    return {(pos, term): sign for pos, term, sign in next(_slot_entries((m,)))}


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
        return asdict(self)


def independence_report(max_degree: int = 6, max_index: int = 3) -> IndependenceReport:
    """Rank of the evaluation matrix of all basis monomials within the caps.

    Full rank certifies that the enumerated monomials evaluate to Z-linearly
    independent matrices, i.e. that no nonzero integer combination of them is
    a graded weak identity.
    """
    monos = enumerate_basis(max_degree, max_index)  # validates the caps at once
    count = _capped_basis_size(max_degree, max_index, MAX_BASIS)
    lattice = IntRowLattice()
    for (p1, t1, s1), (p2, t2, s2) in _slot_entries(monos):
        lattice.add({(p1, t1): s1, (p2, t2): s2})
    return IndependenceReport(max_degree, max_index, count, lattice.rank)
