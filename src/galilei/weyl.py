"""Normal-ordered operator calculus for x_a, p0, p_a and central symbols.

Canonical form: every element is a sum of monomials

    c(params) * x1^a1 x2^a2 x3^a3 * t^g * p0^k * p1^b1 p2^b2 p3^b3

with all position factors to the left of all momentum factors.  The
commutators are [x_a, p_b] = i delta_ab, [t, p0] = -i (momenta act as
-i d/dx, the energy as +i d/dt), everything else commutes.  Reordering a
product into canonical form uses the closed two-factor formula

    p^n x^m = sum_j C(n,j) C(m,j) j! (-i)^j x^(m-j) p^(n-j)

per axis, so normal_order(u*v) is exact in one pass.

Most products need no reordering, and ``WeylElement.__mul__`` skips the
formula where its result is known in advance:

- a central operand (a scalar, a ``Poly`` of parameters, or a single term
  with the all-zero key) commutes with everything, so the product scales
  the other operand's coefficients, keys unchanged;
- a pair of monomials where no momentum factor of the left one meets its
  own position factor in the right one (p_a against x_a, p0 against t)
  commutes, so its key is the sum of the two keys.

The central path has nothing to collect: the keys stay distinct, and the
parameter ring is an integral domain (see ``poly``), so nonzero
coefficients multiply to nonzero ones.  Commuting pairs are still
collected with the reordered ones, since different pairs can share a key.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial
from operator import add

from .scalars import GRat, ONE, I, as_grat
from .poly import PolyRing, Poly, _merge_terms
from .matrix import Matrix

X_SLOTS = (0, 1, 2)
T_SLOT = 3
P0_SLOT = 4
P_SLOTS = (5, 6, 7)
NSLOTS = 8
CENTRAL_KEY = (0,) * NSLOTS


class WeylAlgebra:
    """Operator algebra with a fixed coefficient ring of central symbols."""

    def __init__(self, params: PolyRing):
        self.params = params
        self.zero = WeylElement(self, {})
        self.one = WeylElement(self, {CENTRAL_KEY: params.one})

    def _coefficient(self, c) -> Poly:
        """A scalar or parameter Poly as an element of the coefficient ring."""
        if isinstance(c, Poly):
            if c.ring is not self.params and c.ring != self.params:
                raise ValueError("foreign coefficient ring")
            return c
        return self.params.const(c)

    def const(self, c) -> "WeylElement":
        c = self._coefficient(c)
        return WeylElement(self, {CENTRAL_KEY: c} if c else {})

    def sym(self, name: str, power: int = 1) -> "WeylElement":
        return self.const(self.params.sym(name, power))

    def _gen(self, slot: int, power: int = 1) -> "WeylElement":
        e = [0] * NSLOTS
        e[slot] = power
        return WeylElement(self, {tuple(e): self.params.one})

    def x(self, a: int) -> "WeylElement":
        return self._gen(X_SLOTS[a])

    def p(self, a: int) -> "WeylElement":
        return self._gen(P_SLOTS[a])

    @property
    def p0(self) -> "WeylElement":
        return self._gen(P0_SLOT)

    @property
    def t(self) -> "WeylElement":
        return self._gen(T_SLOT)

    def from_x_poly(self, poly: Poly) -> "WeylElement":
        """Lift a commutative polynomial in x1, x2, x3 (and params) to an operator."""
        out = self.zero
        ring = poly.ring
        xidx = [ring.index.get(nm) for nm in ("x1", "x2", "x3")]
        for e, c in poly.terms.items():
            key = [0] * NSLOTS
            rest = list(e)
            for a, k in enumerate(xidx):
                if k is not None:
                    key[X_SLOTS[a]] = e[k]
                    rest[k] = 0
            coeff = Poly(ring, {tuple(rest): c}).map_to(self.params)
            out = out + WeylElement(self, {tuple(key): coeff})
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeylAlgebra) and self.params == other.params)

    def __hash__(self):
        return hash(("weyl", self.params))


def _pair_reorder(n: int, m: int, bracket: GRat):
    """Coefficients for p^n x^m = sum_j c_j x^(m-j) p^(n-j), [x,p] = bracket^-ish.

    bracket is the scalar s in  p x = x p + s  (so s = -i for [x,p] = i).
    """
    out = []
    for j in range(min(n, m) + 1):
        out.append((j, GRat(comb(n, j) * comb(m, j) * factorial(j)) * bracket ** j))
    return out


# (momentum slot, position slot, s in p x = x p + s) for each non-commuting pair
_CONJUGATE_SLOTS = tuple((P_SLOTS[a], X_SLOTS[a], GRat(0, -1)) for a in range(3)) \
    + ((P0_SLOT, T_SLOT, I),)


def _reordered(e1: tuple, e2: tuple) -> list:
    """Normal order of the monomial product e1 * e2 as (key, factor) pairs,
    reordering the momentum part of e1 across the position part of e2."""
    parts = []
    for pslot, xslot, bracket in _CONJUGATE_SLOTS:
        n, m = e1[pslot], e2[xslot]
        if n and m:
            parts.append((pslot, xslot, _pair_reorder(n, m, bracket)))
    base = list(map(add, e1, e2))
    out = []
    for choice in product(*(options for _, _, options in parts)):
        key = list(base)
        cf = ONE
        for (pslot, xslot, _), (j, cj) in zip(parts, choice):
            key[pslot] -= j
            key[xslot] -= j
            cf = cf * cj
        out.append((tuple(key), cf))
    return out


class WeylElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: WeylAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms  # exponent tuple (len 8) -> nonzero Poly coefficient

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        return WeylElement(self.algebra, _merge_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return WeylElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return WeylElement(self.algebra, _merge_terms(self.terms, other.terms, negate=True))

    def __rsub__(self, other):
        return self._lift(other) - self

    def _lift(self, other) -> "WeylElement":
        if isinstance(other, WeylElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("mixed Weyl algebras")
            return other
        return self.algebra.const(other)

    # -- multiplication ----------------------------------------------------------

    def __mul__(self, other):
        alg = self.algebra
        t1 = self.terms
        if not isinstance(other, WeylElement):
            if isinstance(other, Poly):
                c2 = alg._coefficient(other)
            elif isinstance(other, (int, Fraction, GRat)):
                c2 = as_grat(other)
            else:
                return NotImplemented
            if not c2:
                return alg.zero
            return WeylElement(alg, {e: c1 * c2 for e, c1 in t1.items()})
        t2 = self._lift(other).terms
        # central operands scale the other side (module doc)
        if len(t2) == 1 and CENTRAL_KEY in t2:
            c2 = t2[CENTRAL_KEY]
            return WeylElement(alg, {e: c1 * c2 for e, c1 in t1.items()})
        if len(t1) == 1 and CENTRAL_KEY in t1:
            c1 = t1[CENTRAL_KEY]
            return WeylElement(alg, {e: c1 * c2 for e, c2 in t2.items()})
        acc: dict = {}
        for e1, c1 in t1.items():
            n0, n1, n2, n3 = e1[P0_SLOT:]
            for e2, c2 in t2.items():
                coeff = c1 * c2
                # e2 starts x1, x2, x3, t: does p_a meet x_a, or p0 meet t?
                if (n1 and e2[0]) or (n2 and e2[1]) or (n3 and e2[2]) or (n0 and e2[3]):
                    expansion = [(k, coeff * cf) for k, cf in _reordered(e1, e2)]
                else:
                    expansion = ((tuple(map(add, e1, e2)), coeff),)
                for k, c in expansion:
                    s = acc.get(k)
                    s = c if s is None else s + c
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        return WeylElement(alg, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Poly)):
            return self * other  # a central factor commutes
        return NotImplemented

    def __pow__(self, k: int):
        out = self.algebra.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def commutator(self, other) -> "WeylElement":
        other = self._lift(other)
        return self * other - other * self

    def conjugate(self) -> "WeylElement":
        """Formal adjoint: reverse factor order, conjugate coefficients.

        x, p, p0, t are self-adjoint; params are treated as real.
        """
        alg = self.algebra
        out = alg.zero
        for e, c in self.terms.items():
            pkey = [0] * NSLOTS
            xkey = [0] * NSLOTS
            for s in (*P_SLOTS, P0_SLOT):
                pkey[s] = e[s]
            for s in (*X_SLOTS, T_SLOT):
                xkey[s] = e[s]
            left = WeylElement(alg, {tuple(pkey): c.conjugate()})
            right = WeylElement(alg, {tuple(xkey): alg.params.one})
            out = out + left * right
        return out

    # -- structure --------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GRat, Poly)):
            other = self._lift(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset((e, hash(c)) for e, c in self.terms.items())))

    def truncate(self, spec) -> "WeylElement":
        """Drop monomials whose central-symbol exponents leave the declared
        window.  spec: iterable of (name, lo, hi) exponent bounds."""
        spec = list(spec)
        terms = {}
        for e, c in self.terms.items():
            kept = c
            for name, lo, hi in spec:
                pieces = {}
                k = kept.ring.index[name]
                for ee, cc in kept.terms.items():
                    if lo <= ee[k] <= hi:
                        pieces[ee] = cc
                kept = Poly(kept.ring, pieces)
                if not kept:
                    break
            if kept:
                terms[e] = kept
        return WeylElement(self.algebra, terms)

    def subs_params(self, assignment: dict) -> "WeylElement":
        terms = {}
        for e, c in self.terms.items():
            c2 = c.subs(assignment)
            if c2:
                terms[e] = terms[e] + c2 if e in terms else c2
        return WeylElement(self.algebra, terms)

    def coefficient_of_key(self, **powers) -> Poly:
        """Coefficient Poly of the canonical monomial with the given
        exponents (x1..x3, t, p0, p1..p3 keywords; default 0)."""
        names = ["x1", "x2", "x3", "t", "p0", "p1", "p2", "p3"]
        key = tuple(powers.get(nm, 0) for nm in names)
        return self.terms.get(key, self.algebra.params.zero)

    # -- text ------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = ["x1", "x2", "x3", "t", "p0", "p1", "p2", "p3"]
        bits = []
        for e, c in sorted(self.terms.items()):
            facs = [f"{names[k]}^{p}" if p != 1 else names[k] for k, p in enumerate(e) if p]
            cs = str(c)
            if " + " in cs or cs.startswith("-") and facs:
                cs = f"({cs})"
            bits.append("*".join([cs] + facs) if facs else cs)
        return " + ".join(bits)

    __repr__ = __str__


# -- matrices over the Weyl algebra -------------------------------------------


# -- external fields -----------------------------------------------------------


DEGREE_CAP = 2  # largest total x-degree of an external potential


class FieldConfig:
    """Static external potentials A0(x), A(x) of polynomial degree <= DEGREE_CAP.

    Derived fields: E_a = -dA0/dx_a (static), H = curl A.  With the
    degree cap at 2 both are polynomials of degree <= 1, so div E and
    dE_a/dx_b are constants.  pi^4 is the uncoupled mass m.
    """

    def __init__(self, alg: WeylAlgebra, a0: Poly, avec):
        self.algebra = alg
        xnames = ("x1", "x2", "x3")
        for nm, poly in [("A0", a0)] + [(f"A{i+1}", p) for i, p in enumerate(avec)]:
            if poly.total_degree(xnames) > DEGREE_CAP:
                raise ValueError(f"{nm} exceeds degree cap {DEGREE_CAP}")
        self.a0 = a0
        self.avec = list(avec)

    def amplitude_symbols(self):
        """Names of parameter symbols appearing in the potentials."""
        out = []
        xnames = {"x1", "x2", "x3"}
        for poly in [self.a0, *self.avec]:
            for e in poly.terms:
                for k, p in enumerate(e):
                    nm = poly.ring.names[k]
                    if p and nm not in xnames and nm not in out:
                        out.append(nm)
        return tuple(out)

    def e_field(self):
        """E_a = -dA0/dx_a as x-polynomials."""
        return [-(self.a0.diff(f"x{a+1}")) for a in range(3)]

    def h_field(self):
        """H = curl A."""
        from .reps import cross

        return cross(("x1", "x2", "x3"), self.avec, mul=lambda x, a: a.diff(x))

    def e_ops(self):
        return [self.algebra.from_x_poly(p) for p in self.e_field()]

    def h_ops(self):
        return [self.algebra.from_x_poly(p) for p in self.h_field()]

    def div_e(self) -> Poly:
        e = self.e_field()
        return sum((e[a].diff(f"x{a+1}") for a in range(3)), self.a0.ring.zero)

    def pi(self, index: int) -> WeylElement:
        """Minimally coupled five-momentum component pi^0..pi^4."""
        alg = self.algebra
        e = alg.sym("e")
        if index == 0:
            return alg.p0 - e * alg.from_x_poly(self.a0)
        if 1 <= index <= 3:
            return alg.p(index - 1) - e * alg.from_x_poly(self.avec[index - 1])
        if index == 4:
            return alg.sym("m")
        raise ValueError("pi index must be 0..4")

    def pis(self):
        return [self.pi(i) for i in range(5)]


def field_strength(fc: FieldConfig):
    """e*F^{mn} = -i[pi^m, pi^n] computed exactly; returned as the 5x5
    matrix of Weyl elements (the e factor left in)."""
    pis = fc.pis()
    mi = GRat(0, -1)
    out = []
    for m in range(5):
        out.append([pis[m].commutator(pis[n]) * mi for n in range(5)])
    return Matrix(out)
