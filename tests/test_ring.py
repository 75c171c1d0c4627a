import random

from m2sl2 import MultiPoly
from tests.util import alpha, beta, gamma


def test_constructors():
    assert MultiPoly.zero().is_zero()
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

