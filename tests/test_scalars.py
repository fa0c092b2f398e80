import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from galilei.scalars import GRat, I, ONE, ZERO


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
grats = st.builds(GRat, rationals, rationals)


def test_basic_arithmetic():
    assert GRat(1, 2) * GRat(1, -2) == GRat(5)
    assert I * I == GRat(-1)
    assert (GRat(3) / GRat(2)).re == Fraction(3, 2)


def test_inverse_and_division():
    z = GRat(Fraction(2, 3), Fraction(-1, 5))
    assert z * z.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugate_and_abs_square():
    z = GRat(2, 3)
    assert z * z.conjugate() == GRat(13)


def test_powers():
    assert I ** 2 == GRat(-1)
    assert I ** -1 == -I
    assert GRat(2) ** -2 == GRat(Fraction(1, 4))


@given(grats, grats, grats)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    if b:
        assert (a / b) * b == a


# -- differential check against a (Fraction, Fraction) reference ---------------

DIFF_SEED = 20071  # recorded so a failure replays exactly


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    base = ref_inverse(x) if k < 0 else x
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, base)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def random_operand(rng):
    """A (re, im) pair: integer, pure imaginary, half-integer or general."""
    kind = rng.randrange(4)
    if kind == 0:
        return (Fraction(rng.randint(-9, 9)), Fraction(0))
    if kind == 1:
        return (Fraction(0), Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
    if kind == 2:
        return (Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 2))
    return (Fraction(rng.randint(-40, 40), rng.randint(1, 15)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 15)))


def assert_matches(z, ref):
    assert isinstance(z, GRat)
    assert (z.re, z.im) == ref
    for part in (z.re, z.im):
        assert isinstance(part, Fraction) and part.denominator > 0
        assert gcd(part.numerator, part.denominator) == 1
    twin = GRat(*ref)
    assert z == twin and hash(z) == hash(twin)
    assert str(z) == ref_str(ref)


def test_differential_against_fraction_pairs():
    rng = random.Random(DIFF_SEED)
    for _ in range(400):
        x, y = random_operand(rng), random_operand(rng)
        zx, zy = GRat(*x), GRat(*y)
        assert_matches(zx, x)
        assert_matches(zx + zy, (x[0] + y[0], x[1] + y[1]))
        assert_matches(zx - zy, (x[0] - y[0], x[1] - y[1]))
        assert_matches(zx * zy, ref_mul(x, y))
        assert_matches(-zx, (-x[0], -x[1]))
        assert_matches(zx.conjugate(), (x[0], -x[1]))
        k = rng.randint(-3, 4)
        if any(y):
            assert_matches(zx / zy, ref_mul(x, ref_inverse(y)))
            assert_matches(zy.inverse(), ref_inverse(y))
            assert_matches(zy ** k, ref_pow(y, k))
        else:
            with pytest.raises(ZeroDivisionError):
                zx / zy
        # a real operand of plain int or Fraction type, on either side
        r = y[0] if rng.randrange(2) else int(y[0])
        assert_matches(zx + r, (x[0] + r, x[1]))
        assert_matches(r - zx, (r - x[0], -x[1]))
        assert_matches(r * zx, (r * x[0], r * x[1]))
        assert (zx == r) == (x == (r, 0))


def test_equal_values_built_differently():
    pairs = [
        (GRat(Fraction(2, 4), 1), GRat(Fraction(1, 2), Fraction(3, 3))),
        (GRat(Fraction(1, 6), Fraction(1, 6)) * 6, GRat(1, 1)),
        (GRat(Fraction(1, 3)) + GRat(Fraction(2, 3)), ONE),
        (GRat(3, 4) * GRat(3, 4).inverse(), ONE),
        (GRat(Fraction(1, 2), Fraction(1, 2)) - GRat(Fraction(1, 2), Fraction(-1, 2)), I),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert GRat(Fraction(4, 2)) == 2 and hash(GRat(Fraction(4, 2))) == hash(GRat(2))


def test_zero_inverse_and_read_only_parts():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)
    with pytest.raises(TypeError):
        GRat(0.5)
