"""Solver for the Galilei-invariance conditions on beta matrices.

For a vector/scalar carrier the rotation structure forces

    beta4 = [[R (x) I3, 0], [0, E]],   beta0 = [[F (x) I3, 0], [0, G]],
    beta_a = i [[H (x) s_a, M (x) k_a^H], [N (x) k_a, 0]],

with multiplet-level blocks R, E, F, G, H, M, N.  The invariance
conditions

    eta_a^H beta4 - beta4 eta_a = -i beta_a
    eta_a^H beta_b - beta_b eta_a = -i delta_ab beta0
    eta_a^H beta0 - beta0 eta_a = 0

are linear in those blocks, so the full solution space is an exact
nullspace computation, built from the actual carrier matrices rather
than from any printed closed-form reduction.  The unknowns are R and E
alone: the other five blocks are functions of them (``derived_blocks``), and
the conditions reduce to one block equation in them (``block_equation``).

Rotation covariance.  Only the a = 0 components of the first and
second families need imposing: the first at a = 0 and the second at
(a, b) = (0, b), b = 0, 1, 2.  For X mapping the right carrier into the
left one write [S_c, X] for S_c X - X S_c', with S and S' the left and
right carrier's rotations.  The identities [s_c, s_a] = i eps_cad s_d,
s_c k_a^H = i eps_cad k_d^H and -k_a s_c = i eps_cad k_d make eta_a
(and so eta_a^H, as S is hermitian) and beta_a a vector operator,
[S_c, V_a] = i eps_cad V_d, whatever A, B, C and H, M, N are, and
beta0, beta4 commute with S whatever F, G, R, E are.  So the first
residual is a vector and the second a rank-2 tensor T_ab.  A vector
with V_0 = 0 has, from c = 1, 2, V_2 = V_1 = 0; a tensor with T_0b = 0
for every b has T_2b = T_1b = 0 the same way.

The third family follows from the second.  Write D_a(X) = eta_a^H X -
X eta_a'.  The boosts of each carrier commute ([eta_a, eta_b] = 0), so
the D_a commute, and the second family, D_a(beta_b) = -i delta_ab beta0,
gives for any c and some b != c

    D_c(beta0) = i D_c D_b(beta_b) = i D_b D_c(beta_b) = 0.

``verify_conditions`` still checks all fifteen.

Elimination.  With s_0^2 = diag(0, 1, 1), k_0^H k_0 = diag(1, 0, 0) and
k_0 k_0^H = 1, the block pattern gives

    eta_0^H beta4 - beta4 eta_0
        = boost_blocks(A^H R - R A', C^H E - R B', B^H R - E C', 0),

so the first family at a = 0 says exactly H = A^H R - R A',
M = C^H E - R B' (``beta_a_blocks``), N = B^H R - E C' (built in
``derived_blocks``, as the solve never reads it): with those blocks it
is an identity in R and E, and it is not imposed.  The second
family at (0, b) multiplies out by (X (x) P)(Y (x) Q) = XY (x) PQ with
the fixed products s_0 s_1 = -E10, s_1 s_0 = -E01, k_0^H k_1 = E01,
k_1^H k_0 = E10, s_0 k_1^H = e2, s_1 k_0^H = -e2, k_0 s_1 = -e2^T,
k_1 s_0 = e2^T and k_0 k_1^H = k_1 k_0^H = 0.  With b_b = beta_b / i,

    eta_0^H b_1 - b_1 eta_0' = [[Q (x) E01 - P (x) E10, U (x) e2],
                                [-V (x) e2^T,           0      ]],

    P = A^H H + M C',  Q = C^H N + H A',  U = A^H M + H B',  V = B^H H + N A',

and the products with 2 in place of 1 give the (0, 2) residual
[[Q (x) E02 - P (x) E20, -U (x) e1], [V (x) e1^T, 0]].  Substituting
H, M, N and using the three triple equations AB = 0, CA = 0 and
A^2 + BC = 0 on both carriers (``_check_triple``),

    U = (CA)^H E - R A'B' = 0,
    V = (AB)^H R - E C'A' = 0,
    P + Q = (A^2 + BC)^H R - R (A'^2 + B'C') = 0

identically in R and E, so both residuals vanish exactly when P does
(``block_equation``).  The (0, 0) residual, eta_0^H b_0 - b_0 eta_0' +
beta0, fixes beta0.  Its off-diagonal blocks vanish (s_0 k_0^H = 0,
k_0 s_0 = 0).  Its scalar block is B^H M - N B' + G, and with M, N
substituted it vanishes exactly at derived_blocks' G.  Its triplet block
is X_1 (x) diag(0, 1, 1) + X_0 (x) diag(1, 0, 0), with X_1 = A^H H -
H A' + F and X_0 = C^H N - M C' + F.  Substituting H, M, N,

    X_1 + X_0 = (A^2 + BC)^H R + R (A'^2 + B'C') - 2 A^H R A' - 2 C^H E C' + 2 F,
    P - X_1 = M C' + H A' - F = C^H E C' + A^H R A' - F - R (A'^2 + B'C'),

and with A^2 + BC = 0 on both carriers derived_blocks' F = C^H E C' +
A^H R A' is the one F with X_1 + X_0 = 0, and at it P - X_1 = 0 too.
So X_1 = -X_0 = P, and the triplet block vanishes exactly when P does.
Every solution of the seven-block system has H, M, N from the first
family and F, G from the (0, 0) residual, so its (R, E) meets P = 0;
conversely, (R, E) meeting P = 0, with all five blocks from
``derived_blocks``, makes every (0, b) residual vanish.  Solving the one
block equation P = 0 over (R, E) therefore cuts out the same (R, E)
space as solving over all seven blocks.  The solve builds no beta
matrix and no boost, and reads neither N nor F nor G.

Hermiticity.  On a self pair the hermitian solve ties each block to its
transpose: R, E, F, G symmetric, H antisymmetric and N = -M^T (the
blocks are real, so dagger is transpose).  Only R - R^T and E - E^T are
imposed.  Every carrier ``carrier_for`` builds has integer A, B, C, so
A^H = A^T and so on, and for real symmetric R, E the blocks of
``derived_blocks`` on a self pair meet the other four ties identically:
H^T = R A - A^T R = -H, M^T = E C - B^T R = -N, and F = C^T E C + A^T R A
and G = 2 B^T R B - B^T C^T E - E C B are symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import GRat, ZERO, HALF, I, UsageError
from .matrix import (
    Matrix,
    SubspaceBasis,
    _unflatten,
    canonical_span,
    dot,
    linear_kernel,
)
from .poly import Poly
from .reps import (
    Representation,
    boost_blocks,
    parse_label,
    sector_sum,
    spin1_matrix,
    triple,
)


@dataclass
class VectorCarrier:
    """Direct sum of scalar/vector labels laid out triplets-first."""

    labels: tuple
    A: Matrix  # N x N
    B: Matrix  # N x M
    C: Matrix  # M x N
    N: int
    M: int

    @property
    def dim(self) -> int:
        return 3 * self.N + self.M

    def S(self, a: int) -> Matrix:
        return sector_sum(Matrix.identity(self.N), spin1_matrix(a), Matrix.zeros(self.M, self.M))

    def eta(self, a: int) -> Matrix:
        return boost_blocks(self.A, self.B, self.C, a)

    def representation(self) -> Representation:
        return Representation(self.labels, [self.S(a) for a in range(3)],
                              [self.eta(a) for a in range(3)])


def carrier_for(labels) -> VectorCarrier:
    if isinstance(labels, str):
        labels = parse_label(labels)
    labels = tuple(labels)
    if any(l.kind != "D" for l in labels):
        raise UsageError("vector/scalar labels only (spinor systems are closed-form)")
    As, Bs, Cs = zip(*(triple(l) for l in labels))
    return VectorCarrier(
        labels,
        Matrix.direct_sum(As),
        Matrix.direct_sum(Bs),
        Matrix.direct_sum(Cs),
        sum(l.n for l in labels),
        sum(l.m for l in labels),
    )


# -- block assembly -------------------------------------------------------------


def beta_from_blocks(R, E, F, G, H, M, N, ring=None):
    """beta0, the three beta_a / i and beta4 built from the multiplet blocks.

    Entries may be GRat or Poly; with Poly blocks pass the ring, and every
    block is lifted into it.
    """
    zero = ZERO
    if ring is not None:
        zero = ring.zero
        R, E, F, G, H, M, N = (b.lift(ring) for b in (R, E, F, G, H, M, N))
    i3 = Matrix.identity(3)
    return (sector_sum(F, i3, G), [boost_blocks(H, M, N, a, zero) for a in range(3)],
            sector_sum(R, i3, E))


def beta_a_blocks(car_l: VectorCarrier, car_r: VectorCarrier, R, E):
    """H, M, the blocks of beta_a / i that the block equation reads: what
    the first family at a = 0 says for (R, E).  R and E may hold Poly
    entries."""
    A, C = car_l.A, car_l.C
    return A.H @ R - R @ car_r.A, C.H @ E - R @ car_r.B


def derived_blocks(car_l: VectorCarrier, car_r: VectorCarrier, R, E):
    """H, M, N, F, G determined by (R, E) through the invariance conditions.

    H, M come from ``beta_a_blocks`` and N = B^H R - E C' completes the
    first family at a = 0, so with them it holds identically.  G makes
    the scalar block of the second family at (0, 0) vanish and F the sum
    of its two triplet values, so with the block equation P = 0 it holds
    there (module docstring).  R and E may hold Poly entries.
    """
    A, B, C = car_l.A, car_l.B, car_l.C
    Ap, Bp, Cp = car_r.A, car_r.B, car_r.C
    H, M = beta_a_blocks(car_l, car_r, R, E)
    N = B.H @ R - E @ Cp
    F = C.H @ E @ Cp + A.H @ R @ Ap
    G = (B.H @ R @ Bp) * GRat(2) - B.H @ C.H @ E - E @ Cp @ Bp
    return H, M, N, F, G


def block_equation(car_l: VectorCarrier, car_r: VectorCarrier, R, E) -> Matrix:
    """P = A^H H + M C', H and M from ``beta_a_blocks``.  On carriers meeting
    the triple equations, P = 0 exactly when the second family vanishes at
    (0, 0), (0, 1) and (0, 2) (module docstring).  R, E may hold Poly entries."""
    H, M = beta_a_blocks(car_l, car_r, R, E)
    return car_l.A.H @ H + M @ car_r.C


def _check_triple(car: VectorCarrier):
    """ValueError unless the carrier's triple has AB = 0, CA = 0 and
    A^2 + BC = 0; the reduction to one block equation uses all three."""
    A, B, C = car.A, car.B, car.C
    if not ((A @ B).is_zero() and (C @ A).is_zero() and (A @ A + B @ C).is_zero()):
        raise ValueError(f"carrier {'+'.join(map(str, car.labels)) or '()'} breaks "
                         "AB = 0, CA = 0 or A^2 + BC = 0")


# -- the linear solve ------------------------------------------------------------


@dataclass
class SolutionSpace:
    left: tuple
    right: tuple
    r_shape: tuple
    e_shape: tuple
    basis: list  # list of (R, E) GRat matrix pairs
    hermitian: bool

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> SubspaceBasis:
        vecs = [_flatten_re(R, E) for R, E in self.basis]
        n = self.r_shape[0] * self.r_shape[1] + self.e_shape[0] * self.e_shape[1]
        return SubspaceBasis(n, vecs)


def _flatten_re(R: Matrix, E: Matrix):
    out = [x for row in R.entries for x in row]
    out += [x for row in E.entries for x in row]
    return tuple(out)


def solve_beta4_space(left, right, hermitian=None) -> SolutionSpace:
    """Full solution space for the (R, E) blocks of beta4 between two
    vector/scalar carriers.

    For a self pair the physically meaningful space carries hermitian
    beta matrices (real symmetric blocks); that is the default there.
    Cross pairs are unconstrained by hermiticity (the mirror cell is
    the adjoint) and default to the plain solve; asking for hermiticity
    on a cross pair is a ValueError.

    The unknowns are R and E, and the conditions are the one block
    equation P = 0 of ``block_equation``: the module docstring shows that
    it cuts out the space of all fifteen families, so the solve builds no
    beta matrix and no boost, and reads neither N nor F nor G.  A
    hermitian solve adds R - R^T and E - E^T, which imply the four other
    symmetry ties on these real carriers.  The reduction uses AB = 0,
    CA = 0 and A^2 + BC = 0 on each carrier, so a carrier whose triple
    breaks one of them is a ValueError; every ``carrier_for`` carrier
    meets them.
    """
    car_l = carrier_for(left) if not isinstance(left, VectorCarrier) else left
    car_r = carrier_for(right) if not isinstance(right, VectorCarrier) else right
    self_pair = car_l.labels == car_r.labels
    if hermitian is None:
        hermitian = self_pair
    elif hermitian and not self_pair:
        pair = " x ".join("+".join(map(str, c.labels)) for c in (car_l, car_r))
        raise ValueError(f"hermiticity constrains self pairs only; got {pair}")
    _check_triple(car_l)
    _check_triple(car_r)
    r_shape, e_shape = (car_l.N, car_r.N), (car_l.M, car_r.M)

    def apply(R, E):
        out = [block_equation(car_l, car_r, R, E)]
        if hermitian:
            out += [R - R.T, E - E.T]
        return out

    sols = linear_kernel(apply, [r_shape, e_shape])
    span = canonical_span([_flatten_re(R, E) for R, E in sols],
                          r_shape[0] * r_shape[1] + e_shape[0] * e_shape[1])
    basis = [_unflatten(vec, [r_shape, e_shape]) for vec in span.entries]
    return SolutionSpace(car_l.labels, car_r.labels, r_shape, e_shape, basis, hermitian)


# -- beta systems on a single carrier --------------------------------------------


def free_symbols(bs) -> tuple:
    """The sorted names of the symbols that the entries of a system's beta0,
    beta_a and beta4 use; empty on a rational system."""
    return tuple(sorted({x.ring.names[k] for mat in (bs.beta0, *bs.betas, bs.beta4)
                         for row in mat.entries for x in row if isinstance(x, Poly)
                         for e in x.terms for k, p in enumerate(e) if p}))


@dataclass
class BetaSystem:
    """A full set of beta matrices on one carrier."""

    name: str
    rep: Representation
    beta0: Matrix
    betas: list
    beta4: Matrix
    blocks: dict = field(default_factory=dict)

    params = property(free_symbols, doc="The free parameters: the symbols the entries use.")

    @property
    def dim(self):
        return self.rep.dim

    def operator(self, p, target) -> Matrix:
        """The wave operator L = beta0 p[0] + sum_a beta_a p[a] + beta4 p[4]
        at five given values p over target, a PolyRing or a WeylAlgebra."""
        return dot([self.beta0, *self.betas, self.beta4], p, target)


# snapshots of the (N, M, A, B, C, R, E) inputs whose system passed
# verify_conditions in this interpreter
_VERIFIED = set()


def assemble(carrier, R: Matrix, E: Matrix, name="system") -> BetaSystem:
    """Build the full beta system for (R, E) on a self-pair carrier and
    verify the invariance conditions identically before returning.

    The system is built fresh on every call, but verified once per
    distinct input per interpreter: ``_VERIFIED`` holds an immutable
    snapshot (tuples of rows) of the carrier's N, M, A, B, C and of R, E
    for every system that passed.  The key is sound because everything
    ``verify_conditions`` reads is a pure function of it: the carrier's
    S and eta come from N, M, A, B, C, and beta0, beta_a, beta4 from
    ``derived_blocks`` and ``beta_from_blocks`` on A, B, C, R, E.  GRat,
    Poly and PolyRing compare and hash by value, so equal inputs built
    separately (a fresh ring included) share one entry, while a carrier
    with the same labels and a different A does not.  The set has no
    size bound; it grows by one small snapshot per distinct system.
    """
    if isinstance(carrier, str):
        carrier = carrier_for(carrier)
    key = (carrier.N, carrier.M, *(tuple(map(tuple, m.entries))
                                   for m in (carrier.A, carrier.B, carrier.C, R, E)))
    H, M, N, F, G = derived_blocks(carrier, carrier, R, E)
    ring = next((x.ring for mat in (R, E) for row in mat.entries for x in row
                 if isinstance(x, Poly)), None)
    beta0, b_over_i, beta4 = beta_from_blocks(R, E, F, G, H, M, N, ring=ring)
    betas = [b * I for b in b_over_i]
    bs = BetaSystem(name, carrier.representation(), beta0, betas, beta4,
                    blocks={"R": R, "E": E, "F": F, "G": G, "H": H, "M": M, "N": N})
    if key not in _VERIFIED:
        rep = verify_conditions(bs)
        if not rep["ok"]:
            raise AssertionError(
                f"internal consistency fault: conditions violated {rep['violations']}")
        _VERIFIED.add(key)
    return bs


def verify_conditions(bs: BetaSystem) -> dict:
    """Check all condition families identically (in any free parameters).

    GRat carrier matrices and Poly betas mix entrywise, so nothing is lifted.
    """
    rep = bs.rep
    etas = rep.eta
    etas_h = [eta.H for eta in etas]
    Ss = rep.S
    b0, b4, bas = bs.beta0, bs.beta4, bs.betas
    bad = []
    for a in range(3):
        if not (etas_h[a] @ b4 - b4 @ etas[a] + bas[a] * I).is_zero():
            bad.append(("family1", a))
        if not (etas_h[a] @ b0 - b0 @ etas[a]).is_zero():
            bad.append(("family3", a))
        for b in range(3):
            r = etas_h[a] @ bas[b] - bas[b] @ etas[a]
            if a == b:
                r = r + b0 * I
            if not r.is_zero():
                bad.append(("family2", a, b))
        if not (Ss[a] @ b0 - b0 @ Ss[a]).is_zero():
            bad.append(("S,beta0", a))
        if not (Ss[a] @ b4 - b4 @ Ss[a]).is_zero():
            bad.append(("S,beta4", a))
    return {"ok": not bad, "violations": bad}


def normalize_equivalence(bs: BetaSystem) -> dict:
    """Remove the removable parameters of a beta system.

    Matrix step: W in the boost commutant acts by beta -> W^H beta W.
    Phase step: psi -> exp(i kappa m t) psi shifts beta4 by kappa beta0;
    a beta0-proportional part of beta4 is therefore removable by phase
    and is flagged, not transformed.

    For the four-component spinor system this removes omega exactly via
    W = I + r K (K the strictly lower commutant generator, r = -i/2 of
    the omega coefficient) and flags kappa.  Systems already in
    canonical form come back unchanged with the identity transform.
    """
    dim = bs.rep.dim
    notes = []
    W = Matrix.identity(dim)
    b0, bas, b4 = bs.beta0, [b for b in bs.betas], bs.beta4
    if bs.name.startswith("levy_leblond"):
        # beta4 = [[kappa I, -i omega I], [i omega I, 2 I]]
        om = b4[0, 2]
        if om:
            r = om * HALF  # om entry is -i omega; r = -i omega/2
            lower = Matrix.block([
                [Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
                [Matrix.identity(2), Matrix.zeros(2, 2)],
            ])
            W = Matrix.identity(4) + lower * r
            b4 = W.H @ b4 @ W
            b0 = W.H @ b0 @ W
            bas = [W.H @ b @ W for b in bas]
            notes.append("omega removed by a boost-commutant transform")
        k = b4[0, 0]
        if k:
            notes.append("kappa is removable by the phase exp(i kappa m t), flagged only")
    out = BetaSystem(bs.name + "+normalized", bs.rep, b0, bas, b4, blocks=bs.blocks)
    return {"system": out, "transform": W, "notes": notes}
