"""Exact Gaussian-rational scalars.

Every number in this package is a ``GRat``: (a + b*i)/d with plain Python
ints a, b, d, held in the normal form d > 0 and gcd(a, b, d) == 1.  That
form is canonical, so equality compares three ints and is exact.  There
is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class UsageError(ValueError):
    """Input text or an argument outside the accepted forms (CLI exit 2)."""


def _grat(a: int, b: int, d: int) -> "GRat":
    """The GRat (a + b*i)/d, for ints a, b and d > 0, in normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GRat)
    z._a = a
    z._b = b
    z._d = d
    return z


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def _lift(x):
    """x as a GRat when it is an exact scalar (GRat, int, Fraction), else None."""
    if isinstance(x, GRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GRat(x)
    return None


class GRat:
    """Gaussian rational re + im*i, immutable and hashable.

    ``GRat(re, im)`` takes ints or Fractions; ``re`` and ``im`` read back
    as Fractions in lowest terms.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        return _grat(p * s, r * q, q * s)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def re_im(self) -> tuple["GRat", "GRat"]:
        """The real and the imaginary part, each as a GRat."""
        return _grat(self._a, 0, self._d), _grat(self._b, 0, self._d)

    # -- ring / field structure -------------------------------------------

    def __add__(self, other):
        if type(other) is not GRat:
            other = _lift(other)
            if other is None:
                return NotImplemented
        d, g = self._d, other._d
        if d == g:
            return _grat(self._a + other._a, self._b + other._b, d)
        return _grat(self._a * g + other._a * d, self._b * g + other._b * d, d * g)

    __radd__ = __add__

    def __neg__(self):
        return _grat(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GRat:
            other = _lift(other)
            if other is None:
                return NotImplemented
        d, g = self._d, other._d
        if d == g:
            return _grat(self._a - other._a, self._b - other._b, d)
        return _grat(self._a * g - other._a * d, self._b * g - other._b * d, d * g)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GRat:
            other = _lift(other)
            if other is None:
                return NotImplemented
        a, b, e, f = self._a, self._b, other._a, other._b
        if b == 0 and f == 0:
            return _grat(a * e, 0, self._d * other._d)
        return _grat(a * e - b * f, a * f + b * e, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GRat":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero GRat")
        return _grat(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * as_grat(other).inverse()

    def __rtruediv__(self, other):
        return as_grat(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GRat":
        return _grat(self._a, -self._b, self._d)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_rational(self) -> bool:
        return self._b == 0

    def __eq__(self, other):
        if type(other) is not GRat:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal to hash((re, im)), so the order of sets and dicts keyed by
        # GRat, and any output that follows it, is that of the Fraction parts
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    # -- text form ----------------------------------------------------------
    # "a/b" and "a/b+c/d*i", no spaces (External Interfaces).

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def __repr__(self):
        return f"GRat({self})"


def as_grat(x) -> GRat:
    z = _lift(x)
    if z is None:
        raise TypeError(f"cannot coerce {x!r} to GRat")
    return z


ZERO = GRat(0)
ONE = GRat(1)
I = GRat(0, 1)
HALF = GRat(Fraction(1, 2))
