"""Minimal and anomalous coupling and the exact similarity reduction.

The reduction conjugates the coupled operator with W built from the
nilpotent boost generators,

    L' = exp(-i eta^H.pi / m) . L . exp(+i eta.pi / m),

which is a terminating series, then eliminates the auxiliary components
by exact back-substitution through constant invertible pivots.  The
physical-block operator is normalised to unit p0 coefficient and split
into a dictionary of named field structures plus a residual; the split
is exact by construction (residual reported, never dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import GRat, ZERO, ONE, I, UsageError
from .matrix import Matrix, NotNilpotentError, nilpotent_exp
from .poly import PolyRing, Poly
from .weyl import WeylAlgebra, WeylElement, FieldConfig, matrix_dagger
from .reps import Representation, spin1_matrix, eps
from .beta import _lift

HALF = GRat(Fraction(1, 2))


def make_setting(extra_params=(), extra_x=(), invertible=("m",)):
    """(params ring, x ring, Weyl algebra) with consistent symbols."""
    params = PolyRing(("m", "e") + tuple(extra_params), invertible=invertible)
    xring = PolyRing(("x1", "x2", "x3", "m", "e") + tuple(extra_params) + tuple(extra_x),
                     invertible=invertible)
    return params, xring, WeylAlgebra(params)


@dataclass
class CoupledOperator:
    matrix: Matrix                 # over the Weyl algebra
    algebra: WeylAlgebra
    rep: Representation
    fc: FieldConfig
    phys: tuple                    # indices of the physical components
    spin_phys: list                # spin matrices restricted to the block
    name: str = "coupled"
    couplings: dict = field(default_factory=dict)


def _wlift(mat: Matrix, alg: WeylAlgebra) -> Matrix:
    def one(x):
        if isinstance(x, WeylElement):
            return x
        if not x:
            return alg.zero
        if isinstance(x, Poly):
            return alg.const(x.map_to(alg.params))
        return alg.const(x)

    return mat.map(one)


def couple_minimal(bs, fc: FieldConfig, phys, spin_phys, name=None) -> CoupledOperator:
    """beta_mu pi^mu + beta4 pi^4 as a Weyl-element matrix."""
    alg = fc.algebra
    pis = fc.pis()
    out = _wlift(bs.beta0, alg) * pis[0]
    for a in range(3):
        out = out + _wlift(bs.betas[a], alg) * pis[a + 1]
    out = out + _wlift(bs.beta4, alg) * pis[4]
    return CoupledOperator(out, alg, bs.rep, fc, tuple(phys), spin_phys,
                           name=name or f"{bs.name}+minimal")


def couple_anomalous(bs, fc: FieldConfig, lam_matrix: Matrix, phys, spin_phys,
                     lam1="lam1", lam2="lam2", name=None) -> CoupledOperator:
    """Adds (e/2m) Lambda (lam1 eta.H + lam2 (S.H - eta.E)).

    lam_matrix must intertwine the carrier (checked); lam1/lam2 are
    symbol names in the algebra's parameter ring.  The e/2m
    normalisation is the one under which the reported gyromagnetic
    ratio comes out affine with unit coefficients in (mu lam1, nu lam2)
    for the spinor system; the variant with e/m doubles those slopes.
    """
    from .covariance import lambda_satisfies

    ok, why = lambda_satisfies(bs.rep, lam_matrix)
    if not ok:
        raise ValueError(f"Lambda violates the intertwining conditions: {why}")
    co = couple_minimal(bs, fc, phys, spin_phys, name=name or f"{bs.name}+anomalous")
    alg = fc.algebra
    e_over_m = alg.sym("e") * alg.sym("m", -1) * HALF
    l1 = alg.sym(lam1)
    l2 = alg.sym(lam2)
    eops = fc.e_ops()
    hops = fc.h_ops()
    dim = bs.rep.dim
    etaH = Matrix.zeros(dim, dim, alg.zero)
    SH = Matrix.zeros(dim, dim, alg.zero)
    etaE = Matrix.zeros(dim, dim, alg.zero)
    lam_w = _wlift(lam_matrix, alg)
    for a in range(3):
        etaH = etaH + _wlift(bs.rep.eta[a], alg) * hops[a]
        SH = SH + _wlift(bs.rep.S[a], alg) * hops[a]
        etaE = etaE + _wlift(bs.rep.eta[a], alg) * eops[a]
    extra = lam_w @ (etaH * (e_over_m * l1) + (SH - etaE) * (e_over_m * l2))
    co.matrix = co.matrix + extra
    co.couplings = {"lam1": lam1, "lam2": lam2}
    return co


def conjugate_reduce(co: CoupledOperator, scale=None) -> Matrix:
    """L' = exp(-i eta^H.pi/m) L exp(+i eta.pi/m) (or with an arbitrary
    central scale t in place of 1/m), fully normal-ordered."""
    alg = co.algebra
    t = scale if scale is not None else alg.sym("m", -1)
    dim = co.rep.dim
    pis = [co.fc.pi(a + 1) for a in range(3)]
    etapi = Matrix.zeros(dim, dim, alg.zero)
    etapih = Matrix.zeros(dim, dim, alg.zero)
    for a in range(3):
        etapi = etapi + _wlift(co.rep.eta[a], alg) * pis[a]
        etapih = etapih + _wlift(co.rep.eta[a].H, alg) * pis[a]
    iu = GRat(0, 1)
    right = nilpotent_exp(etapi.map(lambda w: w * (iu * 1) * t))
    left = nilpotent_exp(etapih.map(lambda w: w * (iu * -1) * t))
    return left @ co.matrix @ right


def conjugate_by_nilpotent(op: Matrix, exponent: Matrix, dagger_pair=True) -> Matrix:
    """W1 op W2 with W2 = exp(exponent); W1 = exp(-exponent^H) when
    dagger_pair (the invariance-preserving sandwich), else exp(-exponent)."""
    right = nilpotent_exp(exponent)
    if dagger_pair:
        left = nilpotent_exp(matrix_dagger(exponent).map(lambda w: w * (-1)))
    else:
        left = nilpotent_exp(exponent.map(lambda w: w * (-1)))
    return left @ op @ right


def _constant_invertible(w: WeylElement):
    """Central monomial c * m^k (no x, p dependence): return its inverse."""
    if len(w.terms) != 1:
        return None
    (key, coeff), = w.terms.items()
    if any(key):
        return None
    if len(coeff.terms) != 1:
        return None
    try:
        inv = coeff.monomial_inverse()
    except ValueError:
        return None
    return w.algebra.const(inv)


def eliminate_auxiliaries(op: Matrix, phys, alg: WeylAlgebra) -> dict:
    """Exact back-substitution of the non-physical components.

    Repeatedly finds a row with a constant invertible pivot in an
    auxiliary column, solves that component, substitutes everywhere.
    Returns the physical-block operator and the solved expressions.
    """
    n = op.rows
    aux = [j for j in range(n) if j not in phys]
    rows = [list(r) for r in op.entries]
    used_rows = set()
    solved = {}
    progress = True
    while aux and progress:
        progress = False
        for col in list(aux):
            pick = None
            for i in range(n):
                if i in used_rows:
                    continue
                inv = _constant_invertible(rows[i][col])
                if inv is not None:
                    pick = (i, inv)
                    break
            if pick is None:
                continue
            i, inv = pick
            used_rows.add(i)
            aux.remove(col)
            pivot_row = [inv * x for x in rows[i]]
            # component col = -(sum of pivot_row excluding col) applied to others
            solved[col] = [
                (j, pivot_row[j] * (-1)) for j in range(n) if j != col and pivot_row[j]
            ]
            for r in range(n):
                if r == i:
                    continue
                c = rows[r][col]
                if not c:
                    continue
                # entries under a zero of the pivot row stay as they are
                rows[r] = [x - c * y if y else x for x, y in zip(rows[r], pivot_row)]
            progress = True
    if aux:
        raise ValueError(f"could not eliminate components {aux}: no constant pivots")
    keep = [i for i in range(n) if i not in used_rows]
    if len(keep) != len(phys):
        raise ValueError("row bookkeeping mismatch in elimination")
    phys_rows = Matrix([[rows[i][j] for j in phys] for i in keep])
    return {"operator": phys_rows, "solved": solved, "rows_used": sorted(used_rows)}


@dataclass
class ReductionReport:
    operator: Matrix               # normalised physical-block operator
    named: dict                    # term name -> coefficient Poly
    residual: Matrix               # what the dictionary did not match
    normalisation: Poly            # the p0 coefficient divided out
    structures: dict               # term name -> structure matrix
    g: Poly = None
    notes: tuple = ()


def term_structures(co: CoupledOperator, normalised_block: Matrix) -> dict:
    """The dictionary of named normal-ordered shapes on the physical block."""
    alg = co.algebra
    d = len(co.phys)
    iden = Matrix.identity(d, alg.one, alg.zero)
    spin = [_wlift(s, alg) for s in co.spin_phys]
    eops = co.fc.e_ops()
    hops = co.fc.h_ops()
    pis = [co.fc.pi(a + 1) for a in range(3)]

    def dot(ops):
        out = Matrix.zeros(d, d, alg.zero)
        for a in range(3):
            out = out + spin[a] * ops[a]
        return out

    def cross(u, v):
        out = [alg.zero] * 3
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    s = eps(a, b, c)
                    if s:
                        out[a] = out[a] + u[b] * v[c] * s
        return out

    sh = dot(hops)
    se = dot(eops)
    sf_kin = dot([x - y for x, y in zip(cross(pis, eops), cross(eops, pis))])
    sh_kin = dot([x - y for x, y in zip(cross(pis, hops), cross(hops, pis))])
    div_e = alg.zero
    for a in range(3):
        div_e = div_e + alg.from_x_poly(co.fc.e_field()[a].diff(f"x{a+1}"))
    h2 = alg.zero
    e2 = alg.zero
    for a in range(3):
        h2 = h2 + hops[a] * hops[a]
        e2 = e2 + eops[a] * eops[a]
    # quadrupole with electric gradients: Q_ab = s_a s_b + s_b s_a - (4/3) d_ab
    quad_e = Matrix.zeros(d, d, alg.zero)
    quad_h = Matrix.zeros(d, d, alg.zero)
    four_thirds = GRat(Fraction(4, 3))
    degenerate_q = True  # Q_ab proportional to delta_ab (spin-1/2 blocks)
    qmats = {}
    for a in range(3):
        for b in range(3):
            q = spin[a] @ spin[b] + spin[b] @ spin[a]
            if a == b:
                q = q - iden * alg.const(four_thirds)
            qmats[(a, b)] = q
            if a != b and not q.is_zero():
                degenerate_q = False
    for a in range(3):
        for b in range(3):
            de = alg.from_x_poly(co.fc.e_field()[a].diff(f"x{b+1}"))
            dh = alg.from_x_poly(co.fc.h_field()[a].diff(f"x{b+1}"))
            quad_e = quad_e + qmats[(a, b)] * de
            quad_h = quad_h + qmats[(a, b)] * dh
    out = {
        "s.H": sh,
        "s.E": se,
        "s.(pixE-Expi)": sf_kin,
        "s.(pixH-Hxpi)": sh_kin,
        "divE": iden * div_e,
        "H^2": iden * h2,
        "E^2": iden * e2,
        "(s.H)^2": sh @ sh,
    }
    if not degenerate_q:
        out["Q.dE"] = quad_e
        out["Q.dH"] = quad_h
        # symmetrised spin gradients without the trace subtraction;
        # the quadrupole is ss - (4/3) delta tr
        ss_e = Matrix.zeros(d, d, alg.zero)
        ss_h = Matrix.zeros(d, d, alg.zero)
        for a in range(3):
            for b in range(3):
                ss = spin[a] @ spin[b] + spin[b] @ spin[a]
                de = alg.from_x_poly(co.fc.e_field()[a].diff(f"x{b+1}"))
                dh = alg.from_x_poly(co.fc.h_field()[a].diff(f"x{b+1}"))
                ss_e = ss_e + ss * de
                ss_h = ss_h + ss * dh
        out["ss.dE"] = ss_e
        out["ss.dH"] = ss_h
    return out


def reduce_coupled(co: CoupledOperator, order=None, truncation=None) -> ReductionReport:
    """Full reduction: conjugate, eliminate auxiliaries, normalise, and
    split into named terms plus residual (exact).

    order: fit order for the named terms (list of names); defaults to
    all structures.  The fit peels terms greedily by matching anchor
    coefficients; the exactness invariant is the reported residual.
    """
    conj = conjugate_reduce(co)
    if truncation:
        conj = conj.map(lambda w: w.truncate(truncation))
    alg = co.algebra
    elim = eliminate_auxiliaries(conj, co.phys, alg)
    block = elim["operator"]
    d = len(co.phys)
    # normalise to unit p0 coefficient (it must be central constant * I)
    p0coeff = block[0, 0].coefficient_of_key(p0=1)
    if not p0coeff:
        raise ValueError("physical block has no p0 term")
    norm = Poly(alg.params, dict(p0coeff.terms))
    inv = alg.const(norm.monomial_inverse()) if len(norm.terms) == 1 else None
    if inv is None:
        raise ValueError("p0 coefficient is not a monomial; cannot normalise exactly")
    block = block.map(lambda w: inv * w)
    # subtract the minimal-kinetic part: pi0 - pi^2/2m
    pis = co.fc.pis()
    kin = pis[0]
    pi2 = alg.zero
    for a in range(3):
        pi2 = pi2 + pis[a + 1] * pis[a + 1]
    minv = alg.sym("m", -1)
    kin = kin - pi2 * (minv * HALF)
    iden = Matrix.identity(d, alg.one, alg.zero)
    X = block - iden * kin
    structures = term_structures(co, block)
    field_syms = co.fc.amplitude_symbols()
    default_order = ("(s.H)^2", "H^2", "E^2", "Q.dE", "Q.dH", "ss.dE", "ss.dH",
                     "s.(pixE-Expi)", "s.(pixH-Hxpi)", "divE", "s.H", "s.E")
    named = {}
    for nm in (order or default_order):
        if nm not in structures:
            continue
        T = structures[nm]
        c = _match_coefficient(X, T, field_syms)
        if c is not None and c:
            named[nm] = c
            X = X - T.map(lambda w: w * c)
    return ReductionReport(block, named, X, norm, structures)


def _match_coefficient(X: Matrix, T: Matrix, field_syms=()):
    """Coupling coefficient of structure T inside X, anchored at T's first
    nonzero canonical coefficient.  Coupling coefficients carry no field
    amplitude symbols; any field-dependent part of the anchor ratio is
    left behind for other structures (or the residual)."""
    anchor = None
    for i in range(T.rows):
        for j in range(T.cols):
            w = T[i, j]
            if not w:
                continue
            for key in sorted(w.terms):
                coeff = w.terms[key]
                mono = sorted(coeff.terms)[0]
                anchor = (i, j, key, Poly(coeff.ring, {mono: coeff.terms[mono]}))
                break
            if anchor:
                break
        if anchor:
            break
    if anchor is None:
        return None
    i, j, key, tmono = anchor
    xcoeff = X[i, j].terms.get(key)
    if not xcoeff:
        return None
    ratio = _poly_monomial_divide_partial(xcoeff, tmono, field_syms)
    return ratio if ratio else None


def _poly_monomial_divide_partial(num: Poly, den: Poly, field_syms=()) -> Poly:
    """Termwise division by a monomial, keeping only the terms that divide
    exactly and whose quotient is free of field amplitude symbols."""
    ((de, dc),) = den.terms.items()
    idx = [num.ring.index[n] for n in field_syms if n in num.ring.index]
    out = {}
    for e, c in num.terms.items():
        e2 = tuple(a - b for a, b in zip(e, de))
        if any(p < 0 and num.ring.names[k] not in num.ring.invertible
               for k, p in enumerate(e2)):
            continue
        if any(e2[k] != 0 for k in idx):
            continue
        out[e2] = c * dc.inverse()
    return Poly(num.ring, out)


def extract_g(report: ReductionReport, alg: WeylAlgebra) -> Poly:
    """g := (2m/e) x coefficient of s.H in the physical operator."""
    c = report.named.get("s.H")
    if c is None:
        return alg.params.zero
    two_m_over_e = alg.params.sym("m") * alg.params.sym("e", -1) * 2
    return c * two_m_over_e


def second_conjugation(report: ReductionReport, co: CoupledOperator, kappa,
                       truncation) -> ReductionReport:
    """Similarity transform U (block op) U^-1 with U = exp(i kappa s.pi / m)
    on the reduced physical block, truncated; re-splits the result.

    kappa is a central Poly/rational; for the two-component block this is
    exp(i (kappa/2m) sigma.pi).  Used for the spin-orbit slices, where the
    s.E coupling cancels for the kappa matching its coefficient.
    """
    alg = co.algebra
    d = len(co.phys)
    pis = [co.fc.pi(a + 1) for a in range(3)]
    spin = [_wlift(s, alg) for s in co.spin_phys]
    spi = Matrix.zeros(d, d, alg.zero)
    for a in range(3):
        spi = spi + spin[a] * pis[a]
    minv = alg.sym("m", -1)
    iu = GRat(0, 1)
    expo = spi.map(lambda w: w * (iu * 1) * (minv * kappa))
    try:
        U = nilpotent_exp(expo)
    except NotNilpotentError:
        if not truncation:
            raise ValueError("a truncation is required for non-nilpotent exponents") from None
        # the exponential series must be carried deep enough that its
        # boundary junk lands outside the final window even after being
        # multiplied by positive powers carried by the operand
        build = _extend_window(truncation, report.operator)

        def cut(w):
            return w.truncate(build)

        U = nilpotent_exp(expo, cut=cut)
        Uinv = nilpotent_exp(expo.map(lambda w: w * (-1)), cut=cut)
    else:
        Uinv = nilpotent_exp(expo.map(lambda w: w * (-1)))
    block = U @ report.operator @ Uinv
    if truncation:
        block = block.map(lambda w: w.truncate(truncation))
    # re-split against the same dictionary
    kin = co.fc.pi(0)
    pi2 = alg.zero
    for a in range(3):
        pi2 = pi2 + pis[a] * pis[a]
    kin = kin - pi2 * (minv * HALF)
    iden = Matrix.identity(d, alg.one, alg.zero)
    X = block - iden * kin
    if truncation:
        X = X.map(lambda w: w.truncate(truncation))
    structures = term_structures(co, block)
    field_syms = co.fc.amplitude_symbols()
    named = {}
    for nm in ("(s.H)^2", "H^2", "E^2", "Q.dE", "Q.dH", "ss.dE", "ss.dH",
               "s.(pixE-Expi)", "s.(pixH-Hxpi)", "divE", "s.H", "s.E"):
        if nm not in structures:
            continue
        T = structures[nm]
        if truncation:
            T = T.map(lambda w: w.truncate(truncation))
        c = _match_coefficient(X, T, field_syms)
        if c is not None and c:
            named[nm] = c
            X = X - T.map(lambda w: w * c)
            if truncation:
                X = X.map(lambda w: w.truncate(truncation))
    return ReductionReport(block, named, X, report.normalisation, structures)


def _extend_window(truncation, operand: Matrix):
    """Widen each truncation window by the operand's degree range in that
    symbol, so conjugation cross terms cancel before the final cut."""
    out = []
    for name, lo, hi in truncation:
        dmax = dmin = 0
        for row in operand.entries:
            for w in row:
                for c in w.terms.values():
                    dmax = max(dmax, c.degree_in(name))
                    dmin = min(dmin, c.min_degree_in(name))
        out.append((name, lo - max(dmax, 0), hi - min(dmin, 0)))
    return out


def hamiltonian_named(report: ReductionReport) -> dict:
    """Coefficients of the named structures inside the Hamiltonian
    i d/dt psi = H psi (the sign-flipped non-kinetic terms)."""
    return {k: -v for k, v in report.named.items()}


# -- the interacting five-vector system ------------------------------------------


def proca_interacting(fc: FieldConfig, lam="lam") -> dict:
    """The minimally coupled five-vector system, the similarity variable
    change, exact elimination for source-free fields, and the reduced
    operator on the spatial triplet.

    Requires the field sources to vanish (curl H and div E constant zero:
    constant H, linear A0 with div E = 0 -- or fully constant fields);
    the general case keeps the auxiliary component implicit, as the
    closed reduction would need a series inverse.
    """
    alg = fc.algebra
    lam_s = alg.sym(lam)
    pis = fc.pis()
    m = alg.sym("m")
    minv = alg.sym("m", -1)
    from .weyl import field_strength

    F = field_strength(fc)
    # pi_n pi^n = 2 m pi0 - pi^2 (pi4 = m central)
    pin2 = pis[0] * m * 2
    for a in range(3):
        pin2 = pin2 - pis[a + 1] * pis[a + 1]
    lower = [m, None, None, None, None]
    iu = GRat(0, 1)
    rows = []
    for mm in range(5):
        row = []
        for n in range(5):
            # pi_n of column index: lowering (m, -pi^a, pi^0)
            if n == 0:
                pin = m
            elif n == 4:
                pin = pis[0]
            else:
                pin = pis[n] * (-1)
            ent = pis[mm] * pin * (-1)
            if mm == n:
                ent = ent + pin2
            # + 2 i e F^{m k} g_{k n} column term: psi_n lowered index
            # 2 i (eF)^{m k} ghat_{k n}
            gcol = {0: 4, 4: 0, 1: 1, 2: 2, 3: 3}
            sgn = {0: 1, 4: 1, 1: -1, 2: -1, 3: -1}
            ent = ent + F[mm, gcol[n]] * (iu * 2) * sgn[n]
            if mm == 0 and n == 4:
                ent = ent + lam_s * m
            row.append(ent)
        rows.append(row)
    W = Matrix(rows)
    # variable change: psi_hat = T psi with the five-vector boost at -pi/m
    one, zero = alg.one, alg.zero
    T = Matrix.identity(5, one, zero)
    for a in range(3):
        T.entries[a + 1][4] = pis[a + 1] * minv
    for a in range(3):
        T.entries[0][a + 1] = pis[a + 1] * minv
    pi2 = alg.zero
    for a in range(3):
        pi2 = pi2 + pis[a + 1] * pis[a + 1]
    T.entries[0][4] = pi2 * (minv * minv * HALF)
    O = W @ T
    # exact elimination of psi^0 (col 0) and psi^4 (col 4) needs the
    # sources to vanish; detected by constant pivots as usual
    elim = eliminate_auxiliaries(O, (1, 2, 3), alg)
    return {"full": W, "changed": O, "reduced": elim["operator"], "solved": elim["solved"]}


def parse_truncation(text: str):
    """Parse "l3:2,e:1,nu:-2" into truncation windows.

    A positive cap keeps exponents in [0, cap]; a negative cap keeps
    exponents >= cap (for inverse small parameters such as 1/nu)."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, cap = piece.partition(":")
        try:
            cap = int(cap)
        except ValueError:
            raise UsageError(f"bad truncation cap in {piece!r}") from None
        if cap >= 0:
            out.append((name.strip(), 0, cap))
        else:
            out.append((name.strip(), cap, 10 ** 6))
    return out
