"""Incremental integer row spaces in echelon form.

Rows are sparse dicts mapping a sortable column key to a nonzero int.  The
lattice keeps one pivot row per leading column, combined by extended gcd, so
rank and exact Z-linear membership queries stay integral throughout.
"""


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def bezout(values: list[int]) -> tuple[int, list[int]]:
    """gcd of a nonempty list plus one choice of Bezout coefficients.

    Returns (d, coeffs) with d = gcd(values) > 0 and sum(c*v) = d.  A fold
    of ext_gcd from d = 0, with no zero special-cased: ext_gcd(0, v) is
    (|v|, 0, sign v) and ext_gcd(0, 0) is (0, 1, 0), so every zero gets the
    coefficient 0 and the first nonzero value starts from its sign.
    """
    if not values:
        raise ValueError("bezout of an empty list")
    d, coeffs = 0, []
    for v in values:
        d, x, y = ext_gcd(d, v)
        coeffs = [c * x for c in coeffs] + [y]
    if d == 0:
        raise ValueError("bezout of all zeros")
    return d, coeffs


def _row_axpy(dst: dict, src: dict, factor: int) -> None:
    """dst += factor * src in place, dropping entries that cancel: the one
    sparse sum behind rows, polynomials and matrix entries."""
    if not factor:
        return
    for col, val in src.items():
        n = dst.get(col, 0) + factor * val
        if n:
            dst[col] = n
        else:
            dst.pop(col, None)


class IntRowLattice:
    """The Z-span of the rows added so far."""

    def __init__(self):
        self.pivots: dict = {}  # leading column -> pivot row (dict)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Adjoin a row; True when the rank grew."""
        work = {c: v for c, v in row.items() if v}
        while work:
            col = min(work)
            piv = self.pivots.get(col)
            if piv is None:
                if work[col] < 0:
                    work = {c: -v for c, v in work.items()}
                self.pivots[col] = work
                return True
            a, b = piv[col], work[col]
            if b % a == 0:
                _row_axpy(work, piv, -(b // a))
                continue
            # replace the pivot by the gcd combination; the complementary
            # combination kills the column and the 2x2 change of basis is
            # unimodular, so the span is preserved exactly
            g, x, y = ext_gcd(a, b)
            new_piv: dict = {}
            _row_axpy(new_piv, piv, x)
            _row_axpy(new_piv, work, y)
            rest: dict = {}
            _row_axpy(rest, work, a // g)
            _row_axpy(rest, piv, -(b // g))
            self.pivots[col] = new_piv
            work = rest
        return False

    def contains(self, row: dict) -> bool:
        """Whether row is in the span: reduced by the pivot rows, it leaves
        nothing."""
        work = {c: v for c, v in row.items() if v}
        while work:
            col = min(work)
            piv = self.pivots.get(col)
            if piv is None or work[col] % piv[col]:
                return False
            _row_axpy(work, piv, -(work[col] // piv[col]))
        return True
