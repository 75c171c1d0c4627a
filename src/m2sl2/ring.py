"""Exact sparse arithmetic in Z[alpha_i, beta_i, gamma_i].

Three families of commuting indexed variables over the integers.  A term is
stored as a sorted tuple of ((family, index), exponent) pairs with positive
exponents, so equal polynomials always have equal term dictionaries and
comparing dicts decides equality without any normalization pass.

Coefficients are plain Python ints: no precision ceiling, no floats anywhere.
"""

from .intlinalg import _row_axpy

# ((family, index), exponent), sorted by (family, index), exponents >= 1
Var = tuple[str, int]
Term = tuple[tuple[Var, int], ...]

_ONE_TERM: Term = ()


def _mul_terms(s: Term, t: Term) -> Term:
    """Merge two sorted exponent lists, adding exponents of shared variables."""
    if not s:
        return t
    if not t:
        return s
    out = []
    i = j = 0
    while i < len(s) and j < len(t):
        (vs, es), (vt, et) = s[i], t[j]
        if vs == vt:
            out.append((vs, es + et))
            i += 1
            j += 1
        elif vs < vt:
            out.append(s[i])
            i += 1
        else:
            out.append(t[j])
            j += 1
    out.extend(s[i:])
    out.extend(t[j:])
    return tuple(out)


def _mul_into(acc: dict, left: dict, right: dict) -> None:
    """acc += left * right for two Term -> int dicts, in place, dropping terms
    that cancel: the one product behind MultiPoly and genmat's matrices."""
    for s, cs in left.items():
        for t, ct in right.items():
            key = _mul_terms(s, t)
            n = acc.get(key, 0) + cs * ct
            if n:
                acc[key] = n
            else:
                acc.pop(key, None)


class MultiPoly:
    """A sparse integer polynomial in the alpha/beta/gamma variables.

    Treat instances as immutable: every operation returns a fresh value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Term, int] | None = None):
        self.terms = {t: c for t, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, n: int) -> "MultiPoly":
        return cls({_ONE_TERM: n}) if n else cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; never used as a key

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({t: -c for t, c in self.terms.items()})

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        acc = dict(self.terms)
        _row_axpy(acc, other.terms, 1)
        return MultiPoly(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly()
            return MultiPoly({t: c * other for t, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        acc: dict[Term, int] = {}
        _mul_into(acc, self.terms, other.terms)
        return MultiPoly(acc)

    __rmul__ = __mul__

    def __repr__(self):
        return f"MultiPoly({self.terms!r})"
