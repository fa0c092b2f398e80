"""Casimir operators, plane-wave spin content and particle conditions.

The three invariants are C1 = m, C2 = 2 m p0 - p^2 and the squared
internal angular momentum C3.  Conjugating by W = exp((i/m) eta.p)
turns C3 into m^2 S^2 exactly (the boosts are nilpotent), and turns the
wave operator into the decoupled pencil form

    beta0 (2 m p0 - p^2) + 2 m^2 beta4     (up to the overall 1/2m),

so plane-wave content is read off the sector pencils

    P_vec(e) = e F + 2 R        (spin-1 multiplets),
    P_sc(e)  = e G + 2 E        (spin-0 components),

in units m = 1 with the internal energy e the eigenvalue of C2; a
branch exists where a pencil is singular.  One routine, ``_pencil``,
finds the singular points of a pencil e A + c B and its kernels there.

Galilei invariance makes det L, L = beta0 p0 + beta_a p_a + beta4 m, a
polynomial f(u) in u = 2 m p0 - p^2 alone (Levy-Leblond, Commun. Math.
Phys. 6 (1967)), the dispersion law (``dispersion``).  Then f(u) is its
value at p = 0, the determinant of the same rest-frame pencil, so the
identity f = lc(f) prod (u - epsilon)^mult is no second derivation of the
branches: it checks that each energy's state count is its multiplicity
in f and that every root is a listed rational one.  beta_a enters only
through the guard that no p is left in det L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import matmul

from .scalars import GRat, ZERO, HALF, I
from .matrix import Matrix, det, dot, nullspace, rank, nilpotent_exp, evaluate_matrix
from .poly import PolyRing, Poly
from .reps import Representation, cross
from .beta import BetaSystem


# -- Casimir assembly -----------------------------------------------------------


def casimir_ring() -> PolyRing:
    return PolyRing(("p1", "p2", "p3", "m"), invertible=("m",))


def casimir_c3(rep: Representation, ring=None) -> Matrix:
    """C3 = m^2 S^2 + m (S x eta - eta x S).p + p^2 eta^2 - (p.eta)^2."""
    if ring is None:
        ring = casimir_ring()
    p = [ring.sym(f"p{a+1}") for a in range(3)]
    m = ring.sym("m")
    dim = rep.dim
    S = [s.lift(ring) for s in rep.S]
    eta = [e.lift(ring) for e in rep.eta]
    out = Matrix.zeros(dim, dim, ring.zero)
    s2 = Matrix.zeros(dim, dim, ring.zero)
    for a in range(3):
        s2 = s2 + S[a] @ S[a]
    out = out + s2 * (m * m)
    for c, (se, es) in enumerate(zip(cross(S, eta, matmul), cross(eta, S, matmul))):
        out = out + (se - es) * (m * p[c])
    eta2 = Matrix.zeros(dim, dim, ring.zero)
    psq = ring.zero
    for a in range(3):
        eta2 = eta2 + eta[a] @ eta[a]
        psq = psq + p[a] * p[a]
    etap = dot(eta, p, ring)
    out = out + eta2 * psq - etap @ etap
    return out


def diagonalize_casimir(rep: Representation) -> dict:
    """Conjugate C3 by W = exp((i/m) eta.p); assert C3' = m^2 S^2."""
    ring = casimir_ring()
    p = [ring.sym(f"p{a+1}") for a in range(3)]
    minv = ring.sym("m", -1)
    m = ring.sym("m")
    etap = dot(rep.eta, [pa * minv for pa in p], ring)
    iu = ring.const(I)
    W = nilpotent_exp(etap * iu)
    Winv = nilpotent_exp(etap * (-iu))
    c3 = casimir_c3(rep, ring)
    c3p = W @ c3 @ Winv
    s2 = Matrix.zeros(rep.dim, rep.dim, ring.zero)
    for S in rep.S:
        s2 = s2 + S.lift(ring) @ S.lift(ring)
    want = s2 * (m * m)
    return {"ok": c3p == want, "c3_transformed": c3p, "m2s2": want}


def c2_is_central(rep: Representation) -> bool:
    """[C2, X] = 0 for all ten symmetry generators, symbolically.

    The generators carry x and t dependence, so this runs in the
    operator algebra with matrix coefficients.
    """
    from .weyl import WeylAlgebra

    params = PolyRing(("m",), invertible=("m",))
    alg = WeylAlgebra(params)
    m = alg.sym("m")
    x = [alg.x(a) for a in range(3)]
    p = [alg.p(a) for a in range(3)]
    p0, t = alg.p0, alg.t
    c2 = p0 * m * 2 - (p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    dim = rep.dim
    iden = Matrix.identity(dim, alg.one, alg.zero)
    c2m = iden * c2

    gens = [iden * p0, iden * p[0], iden * p[1], iden * p[2], iden * m]
    for a, orb in enumerate(cross(x, p)):
        gens.append(iden * orb + rep.S[a].lift(alg))
        gens.append(iden * (t * p[a] - m * x[a]) + rep.eta[a].lift(alg))
    for g in gens:
        if not (c2m @ g - g @ c2m).is_zero():
            return False
    return True


# -- spin content ------------------------------------------------------------------


@dataclass
class Branch:
    spin: Fraction
    epsilon: GRat  # internal energy in units of m^2
    multiplicity: int


@dataclass
class SpinContentReport:
    system: str
    branches: list
    consistent_spin1: bool
    consistent_spin0: bool
    two_route_equal: bool
    notes: tuple = ()


def _divisors(n):
    """The positive divisors of a nonzero integer, by trial division."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return out


def _rational_roots(poly: Poly, var: str):
    """Exact rational roots of a univariate polynomial over GRat."""
    terms = {e[poly.ring.index[var]]: c for e, c in poly.terms.items()}
    if not terms:
        return None  # identically zero
    lo = min(terms)
    roots = {ZERO} if lo > 0 else set()
    # divide out e^lo, then rational-root search on the integer-cleared poly,
    # whose constant term is the nonzero coefficient of e^lo
    shifted = {d - lo: c for d, c in terms.items()}
    if max(shifted) == 0:
        return roots
    if any(not c.is_rational() for c in shifted.values()):
        raise ValueError("rational-root sweep needs rational coefficients")
    mult = lcm(*(c.re.denominator for c in shifted.values()))
    ints = {d: int(c.re * mult) for d, c in shifted.items()}
    dens = _divisors(ints[max(ints)])
    for pn in _divisors(ints[0]):
        for qn in dens:
            for sgn in (1, -1):
                cand = Fraction(sgn * pn, qn)
                val = sum(Fraction(c) * cand ** d for d, c in ints.items())
                if val == 0:
                    roots.add(GRat(cand))
    return roots


# a momentum direction off every axis and coordinate plane
DIRECTION = (1, 2, 3)


def _pencil(A: Matrix, B: Matrix, c):
    """Singular points of the pencil e A + c B (square blocks, rational A
    and B): {root: kernel basis} over the rational roots of its
    determinant in the order of their text, or None when the determinant
    vanishes identically."""
    if not A.rows:
        return {}
    ring = PolyRing(("e",))
    pen = dot([A, B], [ring.sym("e"), c], ring)
    d = det(pen)
    if not d:
        return None
    return {r: nullspace(evaluate_matrix(pen, {"e": r}))
            for r in sorted(_rational_roots(d, "e"), key=str)}


def dispersion(bs) -> Poly:
    """The dispersion law f(u) = det L, u = 2 m p0 - p^2, at m = 1.

    det L is evaluated along the fixed direction p = t n, n = DIRECTION,
    with p0 = (u + t^2 |n|^2)/2, so every beta_a enters.  Galilei
    invariance makes it a function of u alone; a t left over is a
    ValueError.  This is one direction: a violation whose t-terms cancel
    along n is not seen.
    """
    ring = PolyRing(("u", "t"))
    u, t = ring.sym("u"), ring.sym("t")
    n2 = sum(c * c for c in DIRECTION)
    f = det(bs.operator([(u + t * t * n2) * HALF, *(t * c for c in DIRECTION), ring.one], ring))
    if f.degree_in("t"):
        raise ValueError(f"system {bs.name} is not Galilei invariant: det L along "
                         f"p = t {DIRECTION} depends on t beyond 2 m p0 - p^2")
    return f


def spin_content(bs) -> SpinContentReport:
    """Plane-wave content of a block system (vector/scalar carriers or the
    four-component spinor system), whose entries must be rational.

    Branches come from the singular points of the rest-frame pencils:
    roots of det(eF + 2R) give spin-1 branches (each multiplet
    contributes 2s+1 = 3 states), roots of det(eG + 2E) give spin-0
    branches; identically singular pencils are reported as gauge-like
    branches with no particle content.  The spinor system has no sector
    blocks: its pencil is beta0 e + 2 beta4 (m = 1), classified by S^2
    on the kernel.  Only rational energies are found.

    ``consistent_spin1`` and ``consistent_spin0`` are the rank conditions
    for single-particle consistency at each root e of that spin's pencil:

        spin 1: rank(eF + 2R) = n - 1 and rank(eG + 2E) = m
        spin 0: rank(eF + 2R) = n and rank(eG + 2E) = m - 1

    They are false when the pencil has no root, and on the spinor system.

    ``two_route_equal`` is the dispersion identity: f = dispersion(bs)
    is not identically zero and equals lc(f) prod (u - epsilon)^mult over
    the branches, i.e. the states at each energy number its multiplicity
    in f and no root of f is missed; when it fails, a note gives the
    degree of det L.  ``dispersion`` raises ValueError if det L is not a
    function of u alone, the one place beta_a is read.
    """
    if bs.params:
        raise ValueError(f"system {bs.name} has free parameters {', '.join(bs.params)}; "
                         "substitute rational values with spin.generic_instance first")
    notes = []
    blocks = bs.blocks
    if blocks:
        vec = _pencil(blocks["F"], blocks["R"], 2)
        sc = _pencil(blocks["G"], blocks["E"], 2)
        branches = []
        for kind, spin, states, roots in (("vector", Fraction(1), 3, vec),
                                          ("scalar", Fraction(0), 1, sc)):
            if roots is None:
                notes.append(f"{kind} pencil identically singular: no particle content branch")
                continue
            branches += [Branch(spin, r, states * len(ker)) for r, ker in roots.items()]
        c1, c0 = (bool(roots) and all(len(ker) == 1 and rank(A * e + B * GRat(2)) == A.rows
                                      for e, ker in roots.items())
                  for roots, A, B in ((vec, blocks["G"], blocks["E"]),
                                      (sc, blocks["F"], blocks["R"])))
    else:
        branches = [b for r, ker in (_pencil(bs.beta0, bs.beta4, 2) or {}).items()
                    for b in _classify_by_spin(bs.rep, ker, r)]
        c1 = c0 = False
    f = dispersion(bs)
    u = f.ring.sym("u")
    product = prod(((u - b.epsilon) ** b.multiplicity for b in branches), start=f.ring.one)
    degree = f.degree_in("u")
    two_route = bool(f) and f == product * f.terms[(degree, 0)]
    if not two_route:
        notes.append(f"det L has degree {degree} in e = 2 m p0 - p^2 and is not the product "
                     "of the branch factors (e - epsilon)^mult: states are missed or misplaced"
                     if f else "det L vanishes identically: no dispersion law")
    return SpinContentReport(bs.name, branches, c1, c0, two_route, tuple(notes))


def _classify_by_spin(rep: Representation, kernel_vectors, epsilon):
    """Split a kernel into S^2 eigenspaces; spins from s(s+1)."""
    dim = rep.dim
    s2 = Matrix.zeros(dim, dim)
    for a in range(3):
        s2 = s2 + rep.S[a] @ rep.S[a]
    K = Matrix([list(v) for v in kernel_vectors]).T  # columns span the kernel
    out = []
    for spin in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        lam = GRat(spin * (spin + 1))
        proj = (s2 - Matrix.identity(dim) * lam) @ K
        # states with S^2 = lam inside the kernel: kernel of proj on coeffs
        sub = nullspace(proj)
        if sub:
            out.append(Branch(spin, epsilon, len(sub)))
    total = sum(b.multiplicity for b in out)
    if total != len(kernel_vectors):
        out.append(Branch(Fraction(-1), epsilon, len(kernel_vectors) - total))
    return out


def generic_instance(bs: BetaSystem, values: dict) -> BetaSystem:
    """Substitute rational values for symbolic parameters, exactly."""
    def sub(mat):
        return evaluate_matrix(mat, values)

    return BetaSystem(bs.name, bs.rep, sub(bs.beta0), [sub(b) for b in bs.betas],
                      sub(bs.beta4), blocks={k: sub(v) for k, v in bs.blocks.items()})
