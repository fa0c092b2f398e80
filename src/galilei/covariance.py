"""Finite Galilei transformations and boost covariance of wave operators.

Boost elements are T(v) = exp(i eta.v): exact polynomials because every
eta.v is nilpotent.  Covariance of a system is the exact identity

    T(v)^H (beta_m ptilde^m + beta4 m) T(v) = beta_m p^m + beta4 m,

with ptilde the boosted five-momentum.  Rotations about coordinate axes
are carried with constrained half-angle symbols (c, s), c^2 + s^2 = 1,
keeping everything algebraic.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GRat, ONE, HALF, I
from .matrix import Matrix, dot, nilpotent_exp, linear_kernel
from .poly import PolyRing
from .reps import Representation, cross


def boost_ring(extra=()) -> PolyRing:
    return PolyRing(("v1", "v2", "v3", "p0", "p1", "p2", "p3", "m") + tuple(extra),
                    invertible=("m",))


def group_element(rep: Representation, ring=None, vnames=("v1", "v2", "v3"),
                  axis=None, half_cos="c", half_sin="s") -> Matrix:
    """exp(i eta.v), optionally followed by an axis rotation.

    The rotation factor uses constrained symbols (c, s) standing for
    cos(theta/2), sin(theta/2) with c^2 + s^2 = 1; for spin-1 blocks the
    full-angle combinations are polynomial in them.  Rotations about a
    non-axis direction with symbolic angle are rejected; use rational
    (c, s) points instead.
    """
    if ring is None:
        ring = boost_ring((half_cos, half_sin) if axis is not None else ())
    etav = dot(rep.eta, [ring.sym(n) for n in vnames], ring)
    out = nilpotent_exp(etav * ring.const(I))
    if axis is not None:
        if axis not in (0, 1, 2):
            raise ValueError("symbolic rotations are only supported about coordinate axes")
        out = out @ rotation_element(rep, axis, ring, half_cos, half_sin)
    return out


def rotation_element(rep: Representation, axis: int, ring, half_cos="c", half_sin="s"):
    """exp(i S_axis theta) with cos(theta/2) = c, sin(theta/2) = s.

    Sums exp(i lambda theta) times the Lagrange projector of S onto each
    eigenvalue lambda in {0, +-1/2, +-1} (spins 0, 1/2, 1), with
    exp(+-i theta/2) = c +- i s and exp(+-i theta) = c^2 - s^2 +- 2ics.
    The projectors are exact only if S(S^2 - 1)(4S^2 - 1) = 0, i.e. S
    is diagonalisable with no other eigenvalue (a spin-3/2 block has
    +-3/2); otherwise ValueError.
    """
    evals = [GRat(Fraction(k, 2)) for k in (-2, -1, 0, 1, 2)]
    vanish = Matrix.identity(rep.dim)
    for mu in evals:
        vanish = vanish @ (rep.S[axis] - Matrix.identity(rep.dim) * mu)
    if not vanish.is_zero():
        raise ValueError(f"S_{axis} is not diagonalisable over {{0, +-1/2, +-1}}")
    c, s = ring.sym(half_cos), ring.sym(half_sin)
    S = rep.S[axis].lift(ring)
    dim = rep.dim
    iden = Matrix.identity(dim, ring.one, ring.zero)
    cos_t = c * c - s * s
    sin_t = c * s * 2
    iu = ring.const(I)
    values = {
        GRat(0): ring.one,
        GRat(1): cos_t + iu * sin_t,
        GRat(-1): cos_t - iu * sin_t,
        HALF: c + iu * s,
        -HALF: c - iu * s,
    }
    out = Matrix.zeros(dim, dim, ring.zero)
    for lam in evals:
        # Lagrange projector onto the lam-eigenspace
        proj = iden
        denom = ONE
        for mu in evals:
            if mu == lam:
                continue
            proj = proj @ (S - iden * mu)
            denom = denom * (lam - mu)
        out = out + proj * (values[lam] * denom.inverse())
    return out


def five_vector_transform(ring=None, vnames=("v1", "v2", "v3")) -> Matrix:
    """The 5x5 boost matrix on (p0, p, p4): p0 += v.p + v^2/2 p4, p += v p4."""
    if ring is None:
        ring = boost_ring()
    v = [ring.sym(n) for n in vnames]
    one, zero = ring.one, ring.zero
    rows = [[one, v[0], v[1], v[2], (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) * HALF]]
    for a in range(3):
        row = [zero] * 5
        row[1 + a] = one
        row[4] = v[a]
        rows.append(row)
    rows.append([zero, zero, zero, zero, one])
    return Matrix(rows)


def boosted_momentum(ring=None):
    """ptilde components as Polys in (v, p, m)."""
    if ring is None:
        ring = boost_ring()
    lam = five_vector_transform(ring)
    p = [ring.sym("p0"), ring.sym("p1"), ring.sym("p2"), ring.sym("p3"), ring.sym("m")]
    out = []
    for r in range(5):
        acc = ring.zero
        for c in range(5):
            acc = acc + lam[r, c] * p[c]
        out.append(acc)
    return out


def finite_boost_covariance(bs, symbolic=True, samples=0, seed=0) -> dict:
    """T(v)^H L(ptilde) T(v) = L(p) exactly.

    symbolic: full identity in (v, p) and any system parameters;
    otherwise seeded rational samples of (v, p), at least one.
    """
    if not symbolic and samples < 1:
        raise ValueError(f"sampled covariance needs samples >= 1; got {samples}")
    extra = bs.params
    ring = boost_ring(extra)
    T = group_element(bs.rep, ring)
    resid = (T.H @ bs.operator(boosted_momentum(ring), ring) @ T
             - bs.operator(ring.syms("p0", "p1", "p2", "p3", "m"), ring))
    if symbolic:
        return {"ok": resid.is_zero(), "mode": "symbolic"}
    import random

    rng = random.Random(seed)
    from .matrix import evaluate_matrix

    for _ in range(samples):
        point = {n: GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for n in ("v1", "v2", "v3", "p0", "p1", "p2", "p3")}
        point["m"] = GRat(Fraction(rng.randint(1, 9)))
        for name in extra:
            point[name] = GRat(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        if not evaluate_matrix(resid, point).is_zero():
            return {"ok": False, "mode": "sampled",
                    "failing_sample": {k: str(v) for k, v in point.items()}}
    return {"ok": True, "mode": "sampled", "samples": samples, "seed": seed}


# -- the boost-invariant field-linear terms -----------------------------------------


def find_lambda_space(rep: Representation) -> list:
    """All matrices with S_a L = L S_a and eta_a^H L = L eta_a, exactly."""
    def apply(L):
        return [r for a in range(3) for r in (rep.S[a] @ L - L @ rep.S[a],
                                               rep.eta[a].H @ L - L @ rep.eta[a])]

    return [L for (L,) in linear_kernel(apply, [(rep.dim, rep.dim)])]


def lambda_satisfies(rep: Representation, L: Matrix):
    for a in range(3):
        if not (rep.S[a] @ L - L @ rep.S[a]).is_zero():
            return False, ("rotation", a)
        if not (rep.eta[a].H @ L - L @ rep.eta[a]).is_zero():
            return False, ("boost", a)
    return True, None


def pauli_term_invariance(rep: Representation, L: Matrix) -> dict:
    """Exact invariance of F1 = L(S.H - eta.E) and F2 = L eta.H.

    Sandwich form: L exp(i eta.v) X exp(-i eta.v) with the fields
    co-transforming as E -> E - v x H, H -> H; both matrices must come
    back identical, symbolically in v and the field components.
    """
    ok, why = lambda_satisfies(rep, L)
    if not ok:
        raise ValueError(f"Lambda violates the intertwining conditions: {why}")
    ring = PolyRing(("v1", "v2", "v3", "E1", "E2", "E3", "H1", "H2", "H3"))
    v = [ring.sym(f"v{a+1}") for a in range(3)]
    E = [ring.sym(f"E{a+1}") for a in range(3)]
    H = [ring.sym(f"H{a+1}") for a in range(3)]
    Ep = [e - vh for e, vh in zip(E, cross(v, H))]
    etav = dot(rep.eta, v, ring)
    iu = ring.const(I)
    U = nilpotent_exp(etav * iu)
    Uinv = nilpotent_exp(etav * (-iu))
    Lp = L.lift(ring)
    f1 = Lp @ (dot(rep.S, H, ring) - dot(rep.eta, E, ring))
    f1_t = Lp @ (U @ (dot(rep.S, H, ring) - dot(rep.eta, Ep, ring)) @ Uinv)
    f2 = Lp @ dot(rep.eta, H, ring)
    f2_t = Lp @ (U @ dot(rep.eta, H, ring) @ Uinv)
    return {"f1_invariant": f1 == f1_t, "f2_invariant": f2 == f2_t}
