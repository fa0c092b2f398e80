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
    assert p.degree_in("x") == 2


def test_subs_poly():
    x, y = RING.sym("x"), RING.sym("y")
    p = x * x + y
    assert p.subs({"x": y + 1}) == (y + 1) * (y + 1) + y
    assert p.subs({"x": GRat(2), "y": y * 3}) == y * 3 + 4
    with pytest.raises(ValueError, match="mixed polynomial rings"):
        p.subs({"x": PolyRing(("x",)).sym("x")})


def test_subs_negative_power_needs_an_invertible_value():
    ring = PolyRing(("nu", "x"), invertible=("nu",))
    nu, x = ring.sym("nu"), ring.sym("x")
    p = nu ** -1
    assert p.subs({"nu": nu * 2}) == nu ** -1 * GRat(Fraction(1, 2))
    assert p.subs({"nu": GRat(4)}) == ring.const(GRat(Fraction(1, 4)))
    with pytest.raises(ValueError, match="only monomials"):
        p.subs({"nu": nu + 1})
    with pytest.raises(ValueError, match="not invertible"):
        p.subs({"nu": x})


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


# -- products against a naive double loop ----------------------------------------

PRODUCT_SEED = 7072


def naive_product(p, q):
    """Every term of p times every term of q, collected, zeros dropped."""
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, ZERO) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _random_monomial(rng):
    return _mono((rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3)),
                 Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 5)))


@pytest.mark.parametrize("case", range(30))
def test_product_matches_naive_loop(case):
    rng = random.Random(PRODUCT_SEED + case)
    p, q, mono = _random_poly(rng), _random_poly(rng), _random_monomial(rng)
    for a, b in ((p, q), (mono, p), (p, mono), (mono, mono), (mono, RING.zero)):
        got = a * b
        assert got.terms == naive_product(a, b)
        assert all(got.terms.values())
        assert (got + a * (-b)).terms == {}


def test_product_cancellation_and_laurent_exponents():
    x, y, m = RING.syms("x", "y", "m")
    minv = RING.sym("m", -1)
    # (x + y)(x - y): the cross terms cancel
    assert ((x + y) * (x - y)).terms == naive_product(x + y, x - y)
    assert (x + y) * (x - y) == x * x - y * y
    # m * m^-1 -> 1 by exponent addition, and Laurent terms cancel
    assert m * minv == RING.one
    assert ((m + minv) * (m - minv)).terms == naive_product(m + minv, m - minv)
    assert (m + minv) * (m - minv) == m * m - minv * minv
    assert (minv * x * 3) * (m * y) == x * y * 3
    # a monomial factor on either side of a sum whose terms then collide
    assert (x * (y + x * minv) - y * x).terms == {(2, 0, -1): GRat(1)}


def test_mixed_rings_raise():
    other = PolyRing(("x", "y", "k"))
    not_invertible = PolyRing(("x", "y", "m"))  # same names, m not invertible
    same = PolyRing(("x", "y", "m"), invertible=("m",))  # equal to RING, built apart
    p = RING.sym("x") + RING.sym("m", -1)
    for q in (other.sym("k"), other.sym("x"), not_invertible.sym("m")):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(p, q)
            with pytest.raises(ValueError):
                op(q, p)
    q = same.sym("y") + same.sym("m", -1)
    assert p * q == p * (RING.sym("y") + RING.sym("m", -1))
    assert p - q == RING.sym("x") - RING.sym("y")


def test_zero_of_another_ring_raises():
    x = PolyRing(("x",)).sym("x")
    other_zero = PolyRing(("y", "z")).zero
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError):
            op(x, other_zero)
        with pytest.raises(ValueError):
            op(other_zero, x)
        with pytest.raises(ValueError):
            op(x.ring.zero, other_zero)
        # the zero of the same ring, or of a ring equal to it, and scalar zeros pass
        for zero in (x.ring.zero, PolyRing(("x",)).zero, 0, ZERO):
            assert op(x, zero) == x


def test_reduce_relation():
    c, s = PolyRing(("c", "s")).syms("c", "s")
    rel = 1 - s * s
    assert (c ** 4).reduce_relation("c", rel) == rel * rel
    assert (c ** 3 * s).reduce_relation("c", rel) == c * s * rel
    # a replacement of degree >= 2 in the name would not reach degree <= 1
    with pytest.raises(ValueError):
        (c ** 4).reduce_relation("c", c * c + 1)
