import itertools
import random

import pytest

from m2sl2 import IntRowLattice, bezout, ext_gcd
from tests.util import reference_bezout


def test_ext_gcd():
    for a, b in [(0, 0), (0, 5), (5, 0), (6, 10), (-6, 10), (270, -192), (1, 1)]:
        g, x, y = ext_gcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_bezout():
    d, cs = bezout([6, 10, 15])
    assert d == 1
    assert sum(c * v for c, v in zip(cs, [6, 10, 15])) == 1
    d, cs = bezout([4, 6])
    assert d == 2 and 4 * cs[0] + 6 * cs[1] == 2
    d, cs = bezout([-3])
    assert d == 3 and cs[0] * -3 == 3
    # zeros get the coefficient 0, leading ones included
    assert bezout([0, 6, -4]) == (2, [0, -1, -2])
    assert bezout([0, 0, 5]) == (5, [0, 0, 1])
    for values, message in (([], "empty list"), ([0, 0], "all zeros")):
        with pytest.raises(ValueError, match=message):
            bezout(values)


def _outcome(fn, values):
    try:
        return fn(values)
    except ValueError as exc:
        return str(exc)


def test_bezout_matches_reference():
    # the choice of coefficients is pinned: reduce traces print them as beta
    cases = 0
    for n in range(1, 5):
        for values in itertools.product(range(-6, 7), repeat=n):
            values = list(values)
            want = _outcome(reference_bezout, values)
            assert _outcome(bezout, values) == want, values
            assert (want == "bezout of all zeros") == (not any(values))
            cases += 1
    assert cases == 13 + 13**2 + 13**3 + 13**4


def test_rank_and_membership():
    lat = IntRowLattice()
    assert lat.add({0: 2})
    assert lat.add({1: 1})
    assert not lat.add({0: 4, 1: 5})  # 2*(2,0) + 5*(0,1)
    assert lat.rank == 2
    assert lat.contains({0: 2, 1: 3})
    assert not lat.contains({0: 1})  # odd first coordinate unreachable
    neg = IntRowLattice()
    neg.add({0: -2, 1: 1})
    assert neg.pivots[0] == {0: 2, 1: -1}  # a new pivot row is stored with a positive pivot


def test_gcd_pivot_combination():
    lat = IntRowLattice()
    lat.add({0: 2, 1: 4})
    grew = lat.add({0: 1, 1: 2})  # same line: rank must stay 1
    assert not grew
    assert lat.rank == 1
    # but the pivot is now the primitive vector
    assert lat.contains({0: 1, 1: 2})
    assert not lat.contains({0: 1, 1: 1})


def test_zero_row():
    lat = IntRowLattice()
    assert not lat.add({})
    assert not lat.add({3: 0})
    assert lat.contains({})


def test_membership_exactness_randomized():
    """Anything built as an integer combination of added rows must pass
    contains(); small perturbations off the lattice must not."""
    rng = random.Random(31)
    for _ in range(60):
        rows = [
            {c: rng.randint(-4, 4) for c in rng.sample(range(6), rng.randint(1, 4))}
            for _ in range(rng.randint(1, 5))
        ]
        lat = IntRowLattice()
        for r in rows:
            lat.add(r)
        combo: dict = {}
        for r in rows:
            k = rng.randint(-3, 3)
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + k * v
        combo = {c: v for c, v in combo.items() if v}
        assert lat.contains(combo)


def test_unimodularity_preserves_span():
    # adding rows in a different order must give the same lattice
    rng = random.Random(32)
    for _ in range(40):
        rows = [
            {c: rng.randint(-5, 5) for c in range(4)}
            for _ in range(4)
        ]
        a, b = IntRowLattice(), IntRowLattice()
        for r in rows:
            a.add(dict(r))
        for r in reversed(rows):
            b.add(dict(r))
        assert a.rank == b.rank
        probe = {c: rng.randint(-6, 6) for c in range(4)}
        assert a.contains(dict(probe)) == b.contains(dict(probe))

