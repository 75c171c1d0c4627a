import operator
import random

import pytest

from m2sl2 import MultiPoly, QPoly
from tests.util import alpha, beta, gamma, rand_qpoly


def test_constructors():
    assert MultiPoly().is_zero()
    assert not MultiPoly.const(1).is_zero()
    assert MultiPoly.const(0) == 0
    assert MultiPoly.const(5) == MultiPoly.const(1) * 5


def test_basic_identities():
    a, b, g = alpha(1), beta(1), gamma(2)
    assert (b * g + 1) + (b * g - 1) == b * g * 2
    assert (b + g) * (b - g) == b * b - g * g
    assert a * (b + g) == a * b + a * g
    assert -(a - b) == b - a
    assert a - a == 0


def test_int_mixing():
    a = alpha(3)
    assert 1 - (1 - a) == a
    assert (a + 2) - 2 == a
    assert a * 0 == 0
    assert MultiPoly.const(7) == 7
    assert repr(MultiPoly()) == "MultiPoly({})"
    with pytest.raises(TypeError):
        hash(MultiPoly())


def test_other_combinations_never_mix():
    # QPoly shares MultiPoly's algebra (ring.Combination) but not its module:
    # equal term dicts do not make them equal, and no operator takes both
    assert not (QPoly() == MultiPoly() or MultiPoly() == QPoly())
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((QPoly(), MultiPoly()), (MultiPoly(), QPoly())):
            with pytest.raises(TypeError):
                op(left, right)


def test_refused_difference_names_minus():
    # the reflected difference refuses what the forward one does, so the
    # error names '-' with the operands in the order they were written
    for left, right in ((QPoly(), MultiPoly()), (MultiPoly(), QPoly()), ("a", QPoly()),
                        ("a", MultiPoly()), (QPoly(), "a")):
        message = (f"unsupported operand type(s) for -: '{type(left).__name__}' "
                   f"and '{type(right).__name__}'")
        with pytest.raises(TypeError) as ei:
            left - right
        assert str(ei.value) == message
    f, g = QPoly.letter(("y", 1)) * 3, alpha(2) * 3
    for p in (f, g):
        assert 1 - p == -(p - 1) == type(p).const(1) - p
        assert p - 1 == p + type(p).const(-1)
        assert (1 - p) + (p - 1) == 0


def rand_poly(rng, size=4):
    gens = [alpha(1), alpha(2), beta(1), beta(2), gamma(1), gamma(2)]
    acc = MultiPoly.const(rng.randint(-3, 3))
    for _ in range(rng.randint(0, size)):
        t = MultiPoly.const(rng.choice((-2, -1, 1, 2, 3)))
        for _ in range(rng.randint(1, 3)):
            t = t * rng.choice(gens)
        acc = acc + t
    return acc


def test_ring_axioms_randomized():
    rng = random.Random(20)
    for _ in range(300):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * 1 == a and a + 0 == a


def test_no_zero_divisors_spot():
    # the coefficient ring is a polynomial ring over Z, hence a domain
    rng = random.Random(21)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert not (a * b).is_zero()


def test_results_hold_no_zero_and_share_no_dict():
    # sums, differences, negations and products wrap the dict they build;
    # it must hold no zero and be no operand's own dict, and the result is
    # of the operands' kind and holds nothing but that dict (no instance
    # __dict__), for both kinds of combination, cancelling operands included
    rng = random.Random(28)
    ops = (operator.add, operator.sub, operator.mul, lambda a, b: -a, lambda a, b: 1 - a,
           lambda a, b: a + 1, lambda a, b: a * 0, lambda a, b: 0 * a, lambda a, b: a - a)
    for _ in range(200):
        for a, b in ((rand_poly(rng), rand_poly(rng)),
                     (rand_qpoly(rng, max_terms=4), rand_qpoly(rng, max_terms=4))):
            for x, y in ((a, b), (a, -a), (a, a), (a, type(a)())):
                for op in ops:
                    r = op(x, y)
                    assert 0 not in r.terms.values(), (x, y, op)
                    assert r.terms is not x.terms and r.terms is not y.terms, (x, y, op)
                    assert type(r) is type(a) and not hasattr(r, "__dict__"), (x, y, op)
