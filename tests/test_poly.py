import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galilei.poly import PolyRing, Poly
from galilei.scalars import GRat, ZERO


RING = PolyRing(("x", "y", "m"), invertible=("m",))


def _mono(e, c):
    return Poly(RING, {e: GRat(c)} if c else {})


small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
    ),
    max_size=4,
).map(lambda items: sum((_mono(e, c) for e, c in items), RING.zero))

points = st.fixed_dictionaries({
    "x": st.fractions(min_value=-7, max_value=7, max_denominator=4),
    "y": st.fractions(min_value=-7, max_value=7, max_denominator=4),
    "m": st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3),
})


@given(small_polys, small_polys, points)
@settings(max_examples=60)
def test_evaluation_is_ring_homomorphism(p, q, pt):
    pt = {k: GRat(v) for k, v in pt.items()}
    assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


def test_localized_symbol():
    m = RING.sym("m")
    minv = RING.sym("m", -1)
    assert m * minv == RING.one
    assert (m ** 3 * minv ** 2) == m
    with pytest.raises(ValueError):
        RING.sym("x", -1)


def test_diff_and_coefficients():
    x, y = RING.sym("x"), RING.sym("y")
    p = x * x * y + y * 3
    assert p.diff("x") == x * y * 2
    assert p.coefficient_of("y", 1) == x * x + 3
    assert p.degree_in("x") == 2


def test_subs_poly():
    x, y = RING.sym("x"), RING.sym("y")
    p = x * x + y
    assert p.subs_poly({"x": y + 1}) == (y + 1) * (y + 1) + y


def test_conjugate_keeps_symbols_real():
    x = RING.sym("x")
    p = x * GRat(0, 1)
    assert p.conjugate() == x * GRat(0, -1)


SCALARS = [GRat(3), GRat(Fraction(-2, 7)), GRat(0, 1), GRat(Fraction(1, 2), Fraction(-5, 3))]


FAST_PATH_SEED = 5051


def _random_poly(rng):
    return sum((_mono((rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(rng.randint(0, 4))), RING.zero)


@pytest.mark.parametrize("case", range(30))
def test_scalar_fast_paths(case):
    p = _random_poly(random.Random(FAST_PATH_SEED + case))
    for g in SCALARS:
        assert p * g == p * RING.const(g) == g * p
        assert (p * g).terms == (p * RING.const(g)).terms
    assert p * ZERO == RING.zero and not (ZERO * p).terms
    assert p + ZERO is p and ZERO + p is p and p - ZERO is p
    assert ZERO - p == -p
    assert RING.zero + p is p and p + RING.zero is p
    assert p - p == RING.zero
