"""Exact sparse integer combinations, and Z[alpha_i, beta_i, gamma_i].

Combination is the algebra shared by the package's two free Z-modules: a
sparse dict from basis key to nonzero int, with its zero, equality (ints
read as multiples of the unit key), negation, sum, difference and integer
scaling.  A subclass names its unit key and its product kernel, nothing
else: MultiPoly here, and freealg.QPoly over canonical monomials.

MultiPoly has three families of commuting indexed variables over the
integers.  A term alpha^a * beta^b * gamma^g is stored in the layout of a
canonical monomial's (yexp, cseq, dseq): the tuple (a, b, g), where a holds
the alpha exponents by index (a[i-1] for alpha_i) with no trailing zero, and
b and g hold the beta and gamma indices sorted, each repeated as often as
its exponent.  So equal polynomials always have equal term dictionaries and
comparing dicts decides equality without any normalization pass.

Coefficients are plain Python ints: no precision ceiling, no floats anywhere.
"""

from itertools import zip_longest

from .intlinalg import _row_axpy

# (alpha exponents, trimmed; beta indices, sorted; gamma indices, sorted)
Term = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _mul_terms(s: Term, t: Term) -> Term:
    """Add the alpha exponents and merge the beta and gamma index multisets.
    The sum of two trimmed exponent tuples is trimmed, and the merge of two
    sorted tuples is the one sorted, so a part that one side lacks is the
    other side's as it is."""
    (sa, sb, sg), (ta, tb, tg) = s, t
    return (tuple([e + f for e, f in zip_longest(sa, ta, fillvalue=0)]) if sa and ta else sa or ta,
            tuple(sorted(sb + tb)) if sb and tb else sb or tb,
            tuple(sorted(sg + tg)) if sg and tg else sg or tg)


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


class Combination:
    """An integer combination of basis keys: the dict `terms` maps each key to
    a nonzero int, so equality is plain dict equality.

    A subclass sets _unit, the key that an int stands for, and _product, its
    kernel acc += left * right on two term dicts, which __mul__ calls with a
    fresh, empty acc.  Every operand test is
    against type(self): an int is read as a multiple of _unit, and any other
    type is refused, so two subclasses never mix.  __rmul__ is reached only
    with an int on the left, and a non-commutative _product never runs with
    its operands swapped.  Treat instances as immutable: every operation
    returns a fresh value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {t: c for t, c in (terms or {}).items() if c}

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap `terms`, a fresh dict with no zero coefficient, as it is,
        where __init__ would copy it."""
        f = object.__new__(cls)
        f.terms = terms
        return f

    @classmethod
    def const(cls, n: int):
        return cls({cls._unit: n})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.const(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; never used as a key

    def __neg__(self):
        return self._trusted({t: -c for t, c in self.terms.items()})

    def __add__(self, other, sign=1):
        # self + sign * other; __sub__ passes sign -1, so both share one type test
        if isinstance(other, int):
            other = self.const(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        acc = dict(self.terms)
        _row_axpy(acc, other.terms, sign)
        return self._trusted(acc)

    __radd__ = __add__

    def __sub__(self, other):
        return Combination.__add__(self, other, -1)

    def __rsub__(self, other):
        # refused here, not by the sum below, so the error names '-'
        if not isinstance(other, (int, type(self))):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):  # filtered: c * 0 makes zeros
            return type(self)({t: c * other for t, c in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        acc: dict = {}
        self._product(acc, self.terms, other.terms)
        return self._trusted(acc)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class MultiPoly(Combination):
    """A sparse integer polynomial in the alpha/beta/gamma variables, a dict
    from Term (the module docstring's layout) to nonzero int; the unit term
    is ((), (), ())."""

    __slots__ = ()
    _unit: Term = ((), (), ())
    _product = staticmethod(_mul_into)
