"""Sparse multivariate polynomials over Gaussian rationals.

A ring declares an ordered tuple of symbol names.  Symbols may be declared
invertible (e.g. the mass ``m``), in which case their exponents are allowed
to run negative; the rewrite m*m^-1 -> 1 is then just integer exponent
addition, which is trivially confluent.

Products skip work whose result is known in advance.  A ring is a
Laurent polynomial ring over a field, hence an integral domain: the
product of nonzero elements is nonzero, and multiplying by a single term
c*x^e sends distinct exponents to distinct exponents (e is added to each)
with nonzero coefficients.  So a single-term factor scales and shifts the
other factor's terms with nothing to collect or cancel.  Ring checks test
identity first and fall back to comparing names and invertible symbols,
so equal rings built separately still mix and different rings still raise
``ValueError``.
"""

from __future__ import annotations

from operator import add

from .scalars import GRat, ZERO, ONE, as_grat


def _merge_terms(t1: dict, t2: dict, negate: bool = False) -> dict:
    """The term dict t1 + t2 (t1 - t2 when negate), dropping the zeros the
    sum makes; both dicts hold nonzero coefficients only."""
    terms = dict(t1)
    for e, c in t2.items():
        s = terms.get(e)
        if s is None:
            terms[e] = -c if negate else c
            continue
        s = s - c if negate else s + c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return terms


class PolyRing:
    """Commutative polynomial ring over GRat with named generators."""

    def __init__(self, names, invertible=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.names = names
        self.index = {n: k for k, n in enumerate(names)}
        self.invertible = frozenset(invertible)
        unknown = self.invertible - set(names)
        if unknown:
            raise ValueError(f"invertible symbols not in ring: {sorted(unknown)}")
        self._zero_exp = (0,) * len(names)
        self.zero = Poly(self, {})
        self.one = Poly(self, {self._zero_exp: ONE})

    def const(self, c) -> "Poly":
        if type(c) is not GRat:
            c = as_grat(c)
        return Poly(self, {self._zero_exp: c} if c else {})

    def sym(self, name: str, power: int = 1) -> "Poly":
        k = self.index[name]
        if power < 0 and name not in self.invertible:
            raise ValueError(f"symbol {name} is not invertible")
        e = [0] * len(self.names)
        e[k] = power
        return Poly(self, {tuple(e): ONE})

    def syms(self, *names):
        return tuple(self.sym(n) for n in names)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self):
        return hash((self.names, self.invertible))

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


class Poly:
    """Element of a PolyRing: dict from exponent tuple to nonzero GRat."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # canonical: no zero coefficients stored

    # -- coercion ------------------------------------------------------------

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not other:
            if type(other) is Poly and other.ring is not self.ring:
                self._lift(other)  # the zero of another ring still raises
            return self
        other = self._lift(other)
        if not self.terms:
            return other
        return Poly(self.ring, _merge_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not other:
            if type(other) is Poly and other.ring is not self.ring:
                self._lift(other)  # the zero of another ring still raises
            return self
        other = self._lift(other)
        if not self.terms:
            return -other
        return Poly(self.ring, _merge_terms(self.terms, other.terms, negate=True))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is GRat:
            # scale the coefficients; a field has no zero divisors
            if not other:
                return self.ring.zero
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented  # e.g. a WeylElement, whose __rmul__ takes a Poly
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return self.ring.zero
        # a single-term factor shifts and scales the other's terms (module doc)
        if len(t2) == 1:
            ((e2, c2),) = t2.items()
            return Poly(self.ring, {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in t1.items()})
        if len(t1) == 1:
            ((e1, c1),) = t1.items()
            return Poly(self.ring, {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in t2.items()})
        terms: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            inv = self.monomial_inverse()
            return inv ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def monomial_inverse(self) -> "Poly":
        """Inverse of a single-term element whose symbols are all invertible."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible here")
        ((e, c),) = self.terms.items()
        for k, p in enumerate(e):
            if p and self.ring.names[k] not in self.ring.invertible:
                raise ValueError(f"symbol {self.ring.names[k]} is not invertible")
        return Poly(self.ring, {tuple(-p for p in e): c.inverse()})

    def __truediv__(self, other):
        if isinstance(other, Poly):
            return self * other.monomial_inverse()
        return self * as_grat(other).inverse()

    def conjugate(self) -> "Poly":
        """Complex-conjugate the coefficients; symbols are treated as real."""
        return Poly(self.ring, {e: c.conjugate() for e, c in self.terms.items()})

    # -- structure ---------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            other = self.ring.const(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_constant(self) -> bool:
        return all(all(p == 0 for p in e) for e in self.terms)

    def constant_value(self) -> GRat:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        """Largest exponent of ``name`` (0 for the zero polynomial)."""
        k = self.ring.index[name]
        return max((e[k] for e in self.terms), default=0)

    def min_degree_in(self, name: str) -> int:
        k = self.ring.index[name]
        return min((e[k] for e in self.terms), default=0)

    def total_degree(self, names=None) -> int:
        if names is None:
            idx = range(len(self.ring.names))
        else:
            idx = [self.ring.index[n] for n in names]
        return max((sum(e[k] for k in idx) for e in self.terms), default=0)

    def diff(self, name: str) -> "Poly":
        k = self.ring.index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            e2 = list(e)
            e2[k] -= 1
            terms[tuple(e2)] = c * e[k]
        return Poly(self.ring, terms)

    def subs(self, assignment: dict) -> "Poly":
        """Substitute values for some symbols, exactly.  A value is a GRat
        (or a number) or an element of this ring; a negative power needs an
        invertible one, a nonzero GRat or a monomial in invertible symbols
        (``monomial_inverse`` raises ValueError otherwise)."""
        vals = {self.ring.index[n]: self._lift(v) if isinstance(v, Poly) else as_grat(v)
                for n, v in assignment.items()}
        out = self.ring.zero
        for e, c in self.terms.items():
            term = Poly(self.ring, {tuple(0 if k in vals else p for k, p in enumerate(e)): c})
            for k, v in vals.items():
                if e[k]:
                    term = term * v ** e[k]
            out = out + term
        return out

    def eval(self, assignment: dict) -> GRat:
        """Evaluate at a full rational point."""
        out = self.subs(assignment)
        return out.constant_value()

    def map_to(self, ring: "PolyRing") -> "Poly":
        """Re-express in a ring containing every symbol actually used."""
        if ring == self.ring:
            return self
        pos = [ring.index.get(n) for n in self.ring.names]
        width = len(ring.names)
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * width
            for src, dst in enumerate(pos):
                if e[src] == 0:
                    continue
                if dst is None:
                    raise ValueError(
                        f"symbol {self.ring.names[src]} missing from target ring"
                    )
                e2[dst] = e[src]
            terms[tuple(e2)] = c
        return Poly(ring, terms)

    def reduce_relation(self, name: str, replacement: "Poly") -> "Poly":
        """Rewrite name**2 -> replacement until the degree in name is <= 1.

        The replacement must itself have degree <= 1 in name (ValueError
        otherwise), so one pass reaches that degree.
        """
        if replacement.degree_in(name) >= 2:
            raise ValueError(f"the replacement for {name}^2 has degree >= 2 in {name}")
        k = self.ring.index[name]
        out = self.ring.zero
        for e, c in self.terms.items():
            p = e[k]
            e2 = list(e)
            e2[k] = p % 2
            term = Poly(self.ring, {tuple(e2): c})
            if p >= 2:
                term = term * replacement ** (p // 2)
            out = out + term
        return out

    # -- text ---------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            facs = []
            for k, p in enumerate(e):
                if p == 0:
                    continue
                facs.append(self.ring.names[k] if p == 1 else f"{self.ring.names[k]}^{p}")
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            bits.append("*".join([cs] + facs) if facs else cs)
        return " + ".join(bits)

    __repr__ = __str__
