"""Canonical wave-equation systems and their algebraic identities.

Houses the spin-1/2 four-component system (Levy-Leblond), the four
indecomposable vector/scalar systems, the Galilean Clifford set, the
10x10 and 6x6 Galilean Duffin-Kemmer sets, the second-order five-vector
(Proca-type) operator, the vector-bispinor (Rarita-Schwinger-type)
operator, and the contraction of the relativistic Duffin-Kemmer system
onto the seven-component Galilean system D(2,1,0).

Convention notes (exactness forced these choices; see the module tests):

* The spatial gamma matrices are i*diag(sigma_a, -sigma_a).  The
  anti-diagonal variant printed in the source does not anticommute with
  gamma_0 and gamma_4, so it cannot satisfy the Clifford relations.
* The vector systems are produced by the block solver; relative to the
  printed matrices they differ by the recorded sign conventions (the
  spin-1 matrices, and a scalar-sector sign for the ten-dimensional
  system), all equivalence transformations.
"""

from __future__ import annotations

from .scalars import GRat, ZERO, ONE, HALF, I, UsageError
from .matrix import Matrix, det, dot, nullspace, evaluate_matrix
from .poly import PolyRing, Poly
from .reps import RepLabel, Representation, build, cross, spin1_matrix, PAULI
from .beta import BetaSystem, assemble


# -- Galilean metric ------------------------------------------------------------


def galilean_metric() -> Matrix:
    """5x5 metric with g04 = g40 = 1, g11 = g22 = g33 = -1."""
    g = [[ZERO] * 5 for _ in range(5)]
    g[0][4] = g[4][0] = ONE
    for a in (1, 2, 3):
        g[a][a] = -ONE
    return Matrix(g)


def lower_index(vec, zero) -> list:
    """v_n = g_nk v^k for five entries (Polys, Weyl elements or matrices).

    The metric is its own inverse, so the same sum raises an index.
    """
    g = galilean_metric()
    return [sum((v * g[n, k] for k, v in enumerate(vec) if g[n, k]), zero)
            for n in range(5)]


# -- gamma matrices ---------------------------------------------------------------


def gamma_hat():
    """The five Galilean gamma matrices (Clifford-compatible set)."""
    z2 = Matrix.zeros(2, 2)
    i2 = Matrix.identity(2)
    g0 = Matrix.block([[z2, z2], [i2, z2]])
    g4 = Matrix.block([[z2, i2 * GRat(2)], [z2, z2]])
    gs = [Matrix.direct_sum([sig * I, sig * (-I)]) for sig in PAULI]
    return [g0, gs[0], gs[1], gs[2], g4]


def check_clifford(gammas) -> dict:
    """gamma_n gamma_m + gamma_m gamma_n = 2 g_nm on all 25 pairs."""
    g = galilean_metric()
    n = gammas[0].rows
    bad = []
    for a in range(5):
        for b in range(5):
            lhs = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            rhs = Matrix.identity(n) * (g[a, b] * 2)
            if lhs != rhs:
                bad.append((a, b))
    return {"ok": not bad, "violations": bad}


def check_galilean_dkp(betas) -> dict:
    """b_m b_n b_s + b_s b_n b_m = g_mn b_s + g_sn b_m, all 125 triples.

    This is the standard trilinear normalisation; the variant with a
    factor 2 on the right cannot be satisfied by any rational rescaling
    of these sets (the relation is cubic on the left and linear on the
    right), so the factor printed in the source is unusable as stated.
    """
    g = galilean_metric()
    bad = []
    for m in range(5):
        for n in range(5):
            for s in range(5):
                lhs = betas[m] @ betas[n] @ betas[s] + betas[s] @ betas[n] @ betas[m]
                rhs = betas[s] * g[m, n] + betas[m] * g[s, n]
                if lhs != rhs:
                    bad.append((m, n, s))
    return {"ok": not bad, "violations": bad}


# -- spinor system -----------------------------------------------------------------


def levy_leblond(kappa=ZERO, omega=ZERO, ring=None) -> BetaSystem:
    """Four-component spin-1/2 system; kappa, omega may be symbols of ring."""
    z2, i2 = Matrix.zeros(2, 2), Matrix.identity(2)
    beta0 = Matrix.direct_sum([i2, z2])
    betas = [Matrix.block([[z2, sig], [sig, z2]]) for sig in PAULI]
    beta4 = Matrix.block([
        [i2 * kappa, i2 * (-(I * omega))],
        [i2 * (I * omega), i2 * 2],
    ])
    if ring is not None:
        beta0, beta4 = beta0.lift(ring), beta4.lift(ring)
        betas = [b.lift(ring) for b in betas]
    rep = build(RepLabel("S2"))
    return BetaSystem("levy_leblond", rep, beta0, betas, beta4)


def ll_lambda_generator() -> Matrix:
    """Second generator of the Lambda space: [[0, -i I], [i I, 0]].

    (The symmetric block swap does not satisfy the boost-intertwining
    condition; this phased variant does, and normalises the anomalous
    couplings to the reported formulas.)
    """
    z2, i2 = Matrix.zeros(2, 2), Matrix.identity(2)
    return Matrix.block([[z2, i2 * (-I)], [i2 * I, z2]])


# -- vector systems -----------------------------------------------------------------


def system_D110() -> BetaSystem:
    R = Matrix([[ONE]])
    E = Matrix([[ZERO]])
    return assemble("D(1,1,0)", R, E, name="D110")


def system_D210() -> BetaSystem:
    R = Matrix([[ZERO, ZERO], [ZERO, ONE]])
    E = Matrix([[ONE]])
    return assemble("D(2,1,0)", R, E, name="D210")


def system_D221() -> BetaSystem:
    R = Matrix([[ZERO, ZERO], [ZERO, ONE]])
    E = Matrix([[ZERO, ZERO], [ZERO, ONE]])
    return assemble("D(2,2,1)", R, E, name="D221")


def system_D311(nu=None, ring=None) -> BetaSystem:
    """The ten-dimensional system with arbitrary nonzero parameter nu.

    A zero nu makes both sector pencils vanish identically, so it is
    refused, like c = 0 in ``dkp_spin0_system``.
    """
    if nu is not None and not nu:
        raise UsageError("the ten-dimensional system needs nu != 0; nu = 0 rejected")
    if ring is None:
        ring = PolyRing(("nu",), invertible=("nu",))
    nu = nu if nu is not None else ring.sym("nu")
    z, o = ring.zero, ring.one
    R = Matrix([[z, z, nu], [z, nu, o], [nu, o, z]])
    E = Matrix([[-nu]])
    return assemble("D(3,1,1)", R, E, name="D311")


def _e6(i, j):
    m = [[ZERO] * 6 for _ in range(6)]
    m[i - 1][j - 1] = ONE
    return Matrix(m)


def dkp_spin0_printed():
    """The 6x6 spin-0 set exactly as printed (beta^0, beta^a, beta^4).

    As printed it does not close the trilinear algebra; see
    dkp_spin0_algebra_set for the canonical set and the exact
    unscrambling identity relating the two.
    """
    b0 = -_e6(5, 6) - _e6(6, 1)
    bs = [_e6(6, 1 + a) - _e6(1 + a, 6) for a in (1, 2, 3)]
    b4 = (_e6(1, 5) - _e6(2, 2) - _e6(3, 3) - _e6(4, 4) + _e6(5, 1) + _e6(6, 6)
          + _e6(1, 6) + _e6(6, 5))
    return [b0, *bs, b4]


def dkp_spin0_hermitizer() -> Matrix:
    return (_e6(1, 5) - _e6(2, 2) - _e6(3, 3) - _e6(4, 4) + _e6(5, 1) + _e6(6, 6))


def dkp_spin0_algebra_set():
    """The canonical 6x6 Galilean Duffin-Kemmer algebra set.

    Slots 1..5 carry the five-vector indices 0..4 and slot 6 the scalar;
    B^m = e_{m,6} + g^{mr} e_{6,r}.  This set closes the trilinear
    relations B^m B^n B^s + B^s B^n B^m = g^{mn} B^s + g^{sn} B^m
    exactly.  The printed realisation is recovered (up to its slips) by
    B^0 = beta4_printed - hermitizer, B^a = -beta^a_printed,
    B^4 = -beta^0_printed.
    """
    g = galilean_metric()
    out = []
    for m in range(5):
        b = _e6(m + 1, 6)
        for r in range(5):
            if g[m, r]:
                b = b + _e6(6, r + 1) * g[m, r]
        out.append(b)
    return out


def dkp_spin0_system(c=GRat(1)) -> BetaSystem:
    """The six-component spin-0 wave system in the five-vector basis.

    Operator: beta0 p0 + beta_a p^a + beta4 m with beta0 = B^4,
    beta_a = -B^a, beta4 = B^0 + c*I (c rational, nonzero).  The system
    is Galilei invariant under the five-vector (+) scalar carrier; it is
    not of the hermitizable class, so the invariance conditions with
    daggers do not apply to it (its algebra is the trilinear one
    instead).  Its R, F, E, G blocks, in its own basis, drive the spin
    analysis: the vector sector is slots 2..4, the scalar sector slots
    (1, 5, 6).
    """
    if not c:
        raise ValueError("the mass-shift constant must be nonzero")
    B = dkp_spin0_algebra_set()
    beta0 = B[4]
    betas = [B[a] * (-1) for a in (1, 2, 3)]
    beta4 = B[0] + Matrix.identity(6) * c
    eta = [(_e6(1, 2 + a) + _e6(2 + a, 5)) * (-I) for a in range(3)]
    S = [Matrix.direct_sum([Matrix.zeros(1, 1), spin1_matrix(a), Matrix.zeros(2, 2)])
         for a in range(3)]
    rep = Representation((RepLabel("D", 1, 2, 1), RepLabel("D", 0, 1, 0)), S, eta)
    scal = (0, 4, 5)
    blocks = {"R": Matrix([[c]]), "F": Matrix([[ZERO]]),
              "E": beta4.submatrix(scal, scal), "G": beta0.submatrix(scal, scal)}
    return BetaSystem("dkp_spin0", rep, beta0, betas, beta4, blocks=blocks)


def nied_dkp_10() -> list:
    """The 10x10 Galilean Duffin-Kemmer set built from the ten-dimensional
    system: tilde beta_mu = eta beta_mu, tilde beta_4 = eta beta_4 - nu."""
    ring = PolyRing(("nu",), invertible=("nu",))
    bs = system_D311(ring=ring)
    i3 = Matrix.identity(3, ring.one, ring.zero)
    z3 = Matrix.zeros(3, 3, ring.zero)
    z31 = Matrix.zeros(3, 1, ring.zero)
    z13 = Matrix.zeros(1, 3, ring.zero)
    eta = Matrix.block([
        [z3, z3, i3, z31],
        [z3, i3, z3, z31],
        [i3, z3, z3, z31],
        [z13, z13, z13, Matrix([[-ring.one]])],
    ])
    out = [eta @ b.lift(ring) for b in (bs.beta0, *bs.betas)]
    nu = ring.sym("nu")
    b4t = eta @ bs.beta4.lift(ring) - Matrix.identity(10, ring.one, ring.zero) * nu
    out.append(b4t)
    # order as (beta_0, beta_1..3, beta_4) for the metric check
    return out


# -- second-order five-vector operator --------------------------------------------


def proca_ring() -> PolyRing:
    return PolyRing(("p0", "p1", "p2", "p3", "m", "lam"), invertible=("m",))


def five_vector_operator(upper, lam_m, zero) -> Matrix:
    """5x5 operator (p_k p^k) delta_mn - p^m p_n + lam_m [m=0][n=4].

    upper is the five-momentum p^m, commuting symbols or Weyl elements
    with p^4 = m central, and p_n = g_nk p^k.  The lam*m term is needed
    for the system to be consistent, so a zero lam_m is rejected.
    """
    if not lam_m:
        raise ValueError("the lam term is required for consistency; lam = 0 rejected")
    lower = lower_index(upper, zero)
    pp = sum((u * low for u, low in zip(upper, lower)), zero)
    W = Matrix([[(pp if a == b else zero) - upper[a] * lower[b] for b in range(5)]
                for a in range(5)])
    W.entries[0][4] = W.entries[0][4] + lam_m
    return W


def proca_operator(ring=None, lam=None) -> Matrix:
    """The free five-vector wave system W psi = 0 (commuting momenta).

    lam must be nonzero for the system to be consistent; a zero lam of
    any type is rejected.
    """
    if ring is None:
        ring = proca_ring()
    if lam is None:
        lam = ring.sym("lam")
    return five_vector_operator(ring.syms("p0", "p1", "p2", "p3", "m"), ring.sym("m") * lam,
                                ring.zero)


def proca_contraction_identity(ring=None) -> bool:
    """p_m W^m = lam m^2 psi^4 identically (fixes the index convention)."""
    if ring is None:
        ring = proca_ring()
    lower = lower_index(ring.syms("p0", "p1", "p2", "p3", "m"), ring.zero)
    lam, m = ring.syms("lam", "m")
    return Matrix([lower]) @ proca_operator(ring) == Matrix([[ring.zero] * 4 + [lam * m * m]])


def proca_rest_frame_solutions() -> dict:
    """Nullspace analysis at spatial momentum zero, at m = lam = 1."""
    ring = proca_ring()
    W = proca_operator(ring)
    # on shell: 2 m p0 - p^2 = 0 -> p0 = 0 in the rest frame
    at = {"p0": ZERO, "p1": ZERO, "p2": ZERO, "p3": ZERO, "m": ONE, "lam": ONE}
    W0 = evaluate_matrix(W, at)
    ns = nullspace(W0)
    return {"dimension": len(ns), "vectors": ns}


def proca_determinant_factor() -> dict:
    """det W, computed exactly, with the factors it equals: lam m^3 c2^3,
    c2 = 2 m p0 - p^2, so the rank defect locus is the dispersion surface."""
    ring = proca_ring()
    W = proca_operator(ring)
    d = det(W)
    p0, p1, p2, p3, m = ring.syms("p0", "p1", "p2", "p3", "m")
    c2 = p0 * m * 2 - (p1 * p1 + p2 * p2 + p3 * p3)
    lam = ring.sym("lam")
    return {"det": d, "c2": c2, "lam": lam, "m": m}


# -- vector-bispinor operator -------------------------------------------------------


def _gamma_poly(ring):
    return [g.lift(ring) for g in gamma_hat()]


def rarita_schwinger_operator(ring=None) -> Matrix:
    """20x20 operator on the five-vector of bispinors (vector index outer).

    Row-block m, column-block n:
        (gamma.p) delta_mn - gamma^m p_n - p^m gamma_n
        + gamma^m (gamma.p) gamma_n + lam m [m=0][n=4].
    """
    if ring is None:
        ring = proca_ring()
    g = _gamma_poly(ring)
    upper = ring.syms("p0", "p1", "p2", "p3", "m")
    lam, m = ring.syms("lam", "m")
    lower = lower_index(upper, ring.zero)
    g_up = lower_index(g, Matrix.zeros(4, 4, ring.zero))
    gp = dot(g, upper, ring)
    i4 = Matrix.identity(4, ring.one, ring.zero)
    blocks = []
    for mm in range(5):
        row = []
        for n in range(5):
            blk = Matrix.zeros(4, 4, ring.zero)
            if mm == n:
                blk = blk + gp
            blk = blk - g_up[mm] * lower[n]
            blk = blk - (g[n] * upper[mm])
            blk = blk + g_up[mm] @ gp @ g[n]
            if mm == 0 and n == 4:
                blk = blk + i4 * (lam * m)
            row.append(blk)
        blocks.append(row)
    return Matrix.block(blocks)


def rs_consequence_stack(ring=None) -> Matrix:
    """Stacked consequence system: gamma.p on each of the first four
    bispinors; m Psi^0 - p^a Psi^a; gamma_0 Psi^0 + gamma_a Psi^a; Psi^4."""
    if ring is None:
        ring = proca_ring()
    g = _gamma_poly(ring)
    p0, p1, p2, p3, m = ring.syms("p0", "p1", "p2", "p3", "m")
    upper = [p0, p1, p2, p3, m]
    gp = dot(g, upper, ring)
    i4 = Matrix.identity(4, ring.one, ring.zero)
    z4 = Matrix.zeros(4, 4, ring.zero)
    rows = []
    # (ra1): gamma.p Psi^sigma = 0 for sigma = 0..3
    for s in range(4):
        rows.append([gp if n == s else z4 for n in range(5)])
    # (ra2): m Psi^0 - p^a Psi^a = 0
    rows.append([i4 * m, i4 * (-p1), i4 * (-p2), i4 * (-p3), z4])
    # (ra3): gamma_0 Psi^0 + gamma_a Psi^a = 0 and Psi^4 = 0
    rows.append([g[0], g[1], g[2], g[3], z4])
    rows.append([z4, z4, z4, z4, i4])
    return Matrix.block(rows)


def rs_total_spin():
    """S_a = s_a (x) I4 + I5 (x) sigma_a/2 on the 20-dimensional carrier."""
    out = []
    i4 = Matrix.identity(4)
    i5 = Matrix.identity(5)
    for a in range(3):
        sv = Matrix.direct_sum([Matrix.zeros(1, 1), spin1_matrix(a), Matrix.zeros(1, 1)])
        out.append(sv.kron(i4) + i5.kron(Matrix.direct_sum([PAULI[a], PAULI[a]]) * HALF))
    return out


# -- contraction of the relativistic spin-1 system --------------------------------


def dkp_contraction() -> dict:
    """Contract the tensorial relativistic spin-1 system onto D(2,1,0).

    The relativistic system on (R^a, N^a, W^a, B) is one 10x10 operator,
    with p^0 = m + pt0, p^a = eps pt_a and the mass kappa = m.  The
    scaling R = Rt, N = eps^2 Nt, W = eps Wt, B = eps Bt is the column
    factor diag(I3, eps^2 I3, eps I3, eps).  Each row keeps its part of
    lowest weight, wt(eps) = 1 and wt(pt0) = 2, taken at eps = 1.

    The R, W, B rows and columns ("extracted") must equal the operator L
    of the assembled and verified D(2,1,0) system up to signs,
    diag(I6, -1) L diag(I3, -I3, 1); the N rows ("auxiliary") must be
    [0 | 2m I3 | L's first three rows on the W, B columns].
    """
    ring = PolyRing(("eps", "pt0", "pt1", "pt2", "pt3", "m"), invertible=("eps",))
    e_, pt0, m = ring.syms("eps", "pt0", "m")
    one, zero = ring.one, ring.zero
    p = [e_ * ring.sym(f"pt{a}") for a in (1, 2, 3)]
    p0 = m + pt0
    i3, z3 = Matrix.identity(3, one, zero), Matrix.zeros(3, 3, zero)
    px = Matrix([cross(p, e) for e in i3.entries]).T    # px @ W = p x W
    pc = Matrix([[x] for x in p])
    rel = Matrix.block([
        [i3 * ((p0 - m) * 2), z3, px, pc],
        [z3, i3 * (p0 + m), -px, pc],
        [px, px * HALF, i3 * (-m), Matrix.zeros(3, 1, zero)],
        [-pc.T, pc.T * HALF, Matrix.zeros(1, 3, zero), Matrix([[-m]])],
    ])
    scaled = rel @ Matrix.direct_sum([i3, i3 * e_ ** 2, i3 * e_, Matrix([[e_]])])
    k_eps, k_pt0 = ring.index["eps"], ring.index["pt0"]

    def weight(e):
        return e[k_eps] + 2 * e[k_pt0]

    lead = []
    for row in scaled.entries:
        low = min(weight(e) for x in row for e in x.terms)
        lead.append([Poly(ring, {e: c for e, c in x.terms.items() if weight(e) == low})
                     .subs({"eps": ONE}) for x in row])
    lead = Matrix(lead)
    rwb = (0, 1, 2, 6, 7, 8, 9)
    main = lead.submatrix(rwb, rwb)
    aux = lead.submatrix(range(3, 6), range(10))
    L = system_D210().operator(ring.syms("pt0", "pt1", "pt2", "pt3", "m"), ring)
    sign_rows = Matrix.direct_sum([Matrix.identity(6, one, zero), Matrix([[-one]])])
    sign_cols = Matrix.direct_sum([i3, -i3, Matrix([[one]])])
    return {
        "main_ok": main == sign_rows @ L @ sign_cols,
        "aux_ok": aux == Matrix.block([[z3, i3 * (m * 2), L.submatrix(range(3), range(3, 7))]]),
        "extracted": main,
        "auxiliary": aux,
    }


# -- catalogue front door -----------------------------------------------------------


def canonical(name: str, **params):
    """The named canonical system, operator or matrix set.

    Only levy_leblond (kappa, omega) and D311 (nu) take parameters; any
    other parameter is a usage error.
    """
    builders = {
        "levy_leblond": (levy_leblond, ("kappa", "omega")),
        "D110": (system_D110, ()),
        "D210": (system_D210, ()),
        "D221": (system_D221, ()),
        "D311": (system_D311, ("nu",)),
        "dkp_spin0": (dkp_spin0_system, ()),
        "gamma_hat": (gamma_hat, ()),
        "proca": (proca_operator, ()),
        "rarita_schwinger": (rarita_schwinger_operator, ()),
    }
    if name not in builders:
        raise UsageError(f"unknown canonical system {name!r}")
    build, takes = builders[name]
    extra = sorted(set(params) - set(takes))
    if extra:
        raise UsageError(f"{name!r} does not take {', '.join(extra)} "
                         f"(takes: {', '.join(takes) or 'no parameters'})")
    return build(**params)


CATALOG_SYSTEMS = ("levy_leblond", "D110", "D210", "D221", "D311", "dkp_spin0")
