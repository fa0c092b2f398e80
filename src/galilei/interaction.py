"""Minimal and anomalous coupling and the exact reduction.

The reduction eliminates the auxiliary components of the coupled
operator by exact back-substitution through constant invertible pivots.
It does not conjugate with the boost exponentials

    L' = exp(-i eta^H.pi / m) . L . exp(+i eta.pi / m):

when eta_a vanishes on the physical rows, that similarity leaves the
physical-block Schur complement unchanged (see reduce_coupled), and
conjugate_reduce is kept as the reference route the tests compare
against.  The physical-block operator is normalised to unit p0
coefficient and split into a dictionary of named field structures plus
a residual; the split is exact by construction (residual reported,
never dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import GRat, HALF, I, UsageError
from .matrix import Matrix, NotNilpotentError, dot, nilpotent_exp
from .poly import PolyRing, Poly
from .weyl import WeylAlgebra, WeylElement, FieldConfig
from .reps import Representation, cross

# the order in which _split peels the named structures off the operator
FIT_ORDER = ("(s.H)^2", "H^2", "E^2", "Q.dE", "Q.dH", "ss.dE", "ss.dH",
             "s.(pixE-Expi)", "s.(pixH-Hxpi)", "divE", "s.H", "s.E")


def make_setting(extra_params=(), invertible=("m",)):
    """(params ring, x ring, Weyl algebra) with consistent symbols."""
    params = PolyRing(("m", "e") + tuple(extra_params), invertible=invertible)
    xring = PolyRing(("x1", "x2", "x3", "m", "e") + tuple(extra_params), invertible=invertible)
    return params, xring, WeylAlgebra(params)


@dataclass
class CoupledOperator:
    matrix: Matrix                 # over the Weyl algebra
    algebra: WeylAlgebra
    rep: Representation
    fc: FieldConfig
    phys: tuple                    # indices of the physical components
    spin_phys: list                # spin matrices restricted to the block


def couple_minimal(bs, fc: FieldConfig, phys, spin_phys) -> CoupledOperator:
    """beta_mu pi^mu + beta4 pi^4 as a Weyl-element matrix."""
    alg = fc.algebra
    return CoupledOperator(bs.operator(fc.pis(), alg), alg, bs.rep, fc, tuple(phys), spin_phys)


def couple_anomalous(bs, fc: FieldConfig, lam_matrix: Matrix, phys, spin_phys,
                     lam1="lam1", lam2="lam2") -> CoupledOperator:
    """Adds (e/2m) Lambda (lam1 eta.H + lam2 (S.H - eta.E)).

    The bracket is one ``dot`` over the nine matrices eta, S, eta with
    coefficients (e/2m) lam1 H_a, (e/2m) lam2 H_a and -(e/2m) lam2 E_a,
    and Lambda multiplies it once.  lam_matrix must intertwine the
    carrier (checked); lam1/lam2 are symbol names in the algebra's
    parameter ring.  The e/2m normalisation is the one under which the
    reported gyromagnetic ratio comes out affine with unit coefficients
    in (mu lam1, nu lam2) for the spinor system; the variant with e/m
    doubles those slopes.
    """
    from .covariance import lambda_satisfies

    ok, why = lambda_satisfies(bs.rep, lam_matrix)
    if not ok:
        raise ValueError(f"Lambda violates the intertwining conditions: {why}")
    co = couple_minimal(bs, fc, phys, spin_phys)
    alg = fc.algebra
    e_over_m = alg.sym("e") * alg.sym("m", -1) * HALF
    k1, k2 = e_over_m * alg.sym(lam1), e_over_m * alg.sym(lam2)
    hops = fc.h_ops()
    coeffs = [h * k1 for h in hops] + [h * k2 for h in hops] + [-(e * k2) for e in fc.e_ops()]
    eta = bs.rep.eta
    extra = lam_matrix.lift(alg) @ dot([*eta, *bs.rep.S, *eta], coeffs, alg)
    co.matrix = co.matrix + extra
    return co


def conjugate_reduce(co: CoupledOperator) -> Matrix:
    """L' = exp(-i eta^H.pi/m) L exp(+i eta.pi/m), fully normal-ordered.

    The reference route: eliminating the auxiliaries of L' gives the
    physical block reduce_coupled finds on L itself."""
    alg = co.algebra
    pis = co.fc.pis()[1:4]
    i_over_m = alg.sym("m", -1) * I
    right = nilpotent_exp(dot(co.rep.eta, pis, alg), t=i_over_m)
    left = nilpotent_exp(dot([eta.H for eta in co.rep.eta], pis, alg), t=-i_over_m)
    return left @ co.matrix @ right


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
    auxiliary column, solves that component and substitutes it into the
    rows not yet used as pivots.  Only the live columns (the physical
    ones and the auxiliaries still unsolved) are updated: a used row or a
    solved column is never read again.  Returns the physical-block
    operator and the solved expressions.
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
            live = sorted((*phys, *aux))
            pivot_row = [(j, inv * rows[i][j]) for j in live if rows[i][j]]
            # component col = -(pivot row without col) applied to the others
            solved[col] = [(j, y * (-1)) for j, y in pivot_row]
            for r in range(n):
                c = rows[r][col]
                if r in used_rows or not c:
                    continue
                row = rows[r]
                for j, y in pivot_row:
                    row[j] = row[j] - c * y
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


def term_structures(co: CoupledOperator) -> dict:
    """The dictionary of named normal-ordered shapes on the physical block."""
    alg = co.algebra
    d = len(co.phys)
    iden = Matrix.identity(d, alg.one, alg.zero)
    spin = co.spin_phys
    fields = {"E": co.fc.e_field(), "H": co.fc.h_field()}
    eops = [alg.from_x_poly(p) for p in fields["E"]]
    hops = [alg.from_x_poly(p) for p in fields["H"]]
    pis = co.fc.pis()[1:4]

    def s_dot_curl(ops):
        """s.(pi x F - F x pi)"""
        return dot(spin, [x - y for x, y in zip(cross(pis, ops), cross(ops, pis))], alg)

    sh = dot(spin, hops, alg)
    out = {
        "s.H": sh,
        "s.E": dot(spin, eops, alg),
        "s.(pixE-Expi)": s_dot_curl(eops),
        "s.(pixH-Hxpi)": s_dot_curl(hops),
        "divE": iden * alg.from_x_poly(co.fc.div_e()),
        "H^2": iden * sum((h * h for h in hops), alg.zero),
        "E^2": iden * sum((e * e for e in eops), alg.zero),
        "(s.H)^2": sh @ sh,
    }
    pairs = [(a, b) for a in range(3) for b in range(3)]
    ss = {}
    for a, b in pairs:
        if a <= b:
            ss[a, b] = ss[b, a] = spin[a] @ spin[b] + spin[b] @ spin[a]
    if all(ss[a, b].is_zero() for a, b in pairs if a != b):
        return out  # Q_ab proportional to delta_ab (spin-1/2 blocks): no quadrupole
    # quadrupole Q_ab = s_a s_b + s_b s_a - (4/3) delta_ab against the field gradients
    shift = Matrix.identity(d) * GRat(Fraction(4, 3))
    quad = [ss[a, b] - shift if a == b else ss[a, b] for a, b in pairs]
    grads = {k: [alg.from_x_poly(f[a].diff(f"x{b+1}")) for a, b in pairs]
             for k, f in fields.items()}
    for k in ("E", "H"):
        out[f"Q.d{k}"] = dot(quad, grads[k], alg)
    # symmetrised spin gradients without the trace subtraction
    for k in ("E", "H"):
        out[f"ss.d{k}"] = dot([ss[ab] for ab in pairs], grads[k], alg)
    return out


def _split(co: CoupledOperator, block: Matrix, norm: Poly, cut=None) -> ReductionReport:
    """Subtract the minimal kinetic part pi0 - pi^2/2m from the normalised
    block and peel the named structures off in FIT_ORDER; what is left is
    the residual (exact, never dropped).

    cut, when given, is a truncation map applied to the rest, to each
    structure and after each subtraction.  The peel is greedy: each
    structure is matched at its anchor coefficient.
    """
    alg = co.algebra
    pis = co.fc.pis()
    kin = pis[0] - sum((p * p for p in pis[1:4]), alg.zero) * (alg.sym("m", -1) * HALF)
    X = block - Matrix.identity(len(co.phys), alg.one, alg.zero) * kin
    if cut:
        X = X.map(cut)
    structures = term_structures(co)
    field_syms = co.fc.amplitude_symbols()
    named = {}
    for nm in FIT_ORDER:
        if nm not in structures:
            continue
        T = structures[nm]
        if cut:
            T = T.map(cut)
        c = _match_coefficient(X, T, field_syms)
        if c:
            named[nm] = c
            X = X - T.map(lambda w: w * c if w else w)
            if cut:
                X = X.map(cut)
    return ReductionReport(block, named, X, norm, structures)


def reduce_coupled(co: CoupledOperator, truncation=None) -> ReductionReport:
    """Full reduction: eliminate the auxiliaries of the coupled operator,
    normalise, and split into named terms plus residual (exact).

    The boost conjugation is not needed.  With the physical components
    first and eta_a zero on the physical rows (checked; ValueError
    otherwise), exp(i eta.pi/m) = [[I, 0], [X, Y]] and
    exp(-i eta^H.pi/m) = [[I, Z], [0, W]] with Y and W unipotent, so for
    L = [[A, B], [C, D]] the Schur complement of P L Q is
    A + B X + Z C + Z D X - (B + Z D) D^-1 (C + D X) = A - B D^-1 C,
    the Schur complement of L; no step commutes two operators.

    truncation, a list of (symbol, lo, hi) windows, cuts the eliminated
    physical block before it is normalised; a window that removes the p0
    coefficient is a UsageError.
    """
    if any(eta[i, j] for eta in co.rep.eta for i in co.phys for j in range(eta.cols)):
        raise ValueError(f"eta_a is nonzero on the physical rows {co.phys}: "
                         "the boost conjugation would change the physical block")
    alg = co.algebra
    block = eliminate_auxiliaries(co.matrix, co.phys, alg)["operator"]
    if truncation:
        block = block.map(lambda w: w.truncate(truncation))
    # normalise to unit p0 coefficient (it must be central constant * I)
    p0coeff = block[0, 0].coefficient_of_key(p0=1)
    if not p0coeff:
        if truncation:
            window = ",".join(f"{name}:{hi if lo == 0 else lo}" for name, lo, hi in truncation)
            raise UsageError(f"truncation {window} removes the p0 term of the physical "
                             "block, which the reduction is normalised by")
        raise ValueError("physical block has no p0 term")
    norm = Poly(alg.params, dict(p0coeff.terms))
    if len(norm.terms) != 1:
        raise ValueError("p0 coefficient is not a monomial; cannot normalise exactly")
    inv = alg.const(norm.monomial_inverse())
    return _split(co, block.map(lambda w: inv * w), norm)


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
    spi = dot(co.spin_phys, co.fc.pis()[1:4], alg)
    expo = spi.map(lambda w: w * I * (alg.sym("m", -1) * kappa))
    try:
        U = nilpotent_exp(expo)
    except NotNilpotentError:
        if not truncation:
            raise ValueError("a truncation is required for non-nilpotent exponents") from None
        # the exponential series must be carried deep enough that its
        # boundary junk lands outside the final window even after being
        # multiplied by positive powers carried by the operand
        build = _extend_window(truncation, report.operator)

        def wide(w):
            return w.truncate(build)

        U = nilpotent_exp(expo, cut=wide)
        Uinv = nilpotent_exp(expo.map(lambda w: w * (-1)), cut=wide)
    else:
        Uinv = nilpotent_exp(expo.map(lambda w: w * (-1)))
    block = U @ report.operator @ Uinv
    window = (lambda w: w.truncate(truncation)) if truncation else None
    if window:
        block = block.map(window)
    return _split(co, block, report.normalisation, cut=window)


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


def proca_interacting(fc: FieldConfig) -> dict:
    """The minimally coupled five-vector system, the similarity variable
    change, exact elimination for source-free fields, and the reduced
    operator on the spatial triplet.

    Requires the field sources to vanish (curl H and div E constant zero:
    constant H, linear A0 with div E = 0 -- or fully constant fields);
    the general case keeps the auxiliary component implicit, as the
    closed reduction would need a series inverse.
    """
    from .catalog import five_vector_operator, galilean_metric
    from .weyl import field_strength

    alg = fc.algebra
    pis = fc.pis()
    m = alg.sym("m")
    minv = alg.sym("m", -1)
    pi2 = sum((p * p for p in pis[1:4]), alg.zero)
    # the field term 2 i (eF)^{mk} g_kn acts on psi with its index lowered
    W = (five_vector_operator(pis, alg.sym("lam") * m, alg.zero)
         + field_strength(fc) @ galilean_metric().lift(alg) * (I * 2))
    # variable change: psi_hat = T psi with the five-vector boost at -pi/m
    one, zero = alg.one, alg.zero
    T = Matrix.identity(5, one, zero)
    for a in range(3):
        T.entries[a + 1][4] = pis[a + 1] * minv
    for a in range(3):
        T.entries[0][a + 1] = pis[a + 1] * minv
    T.entries[0][4] = pi2 * (minv * minv * HALF)
    O = W @ T
    # exact elimination of psi^0 (col 0) and psi^4 (col 4) needs the
    # sources to vanish; detected by constant pivots as usual
    elim = eliminate_auxiliaries(O, (1, 2, 3), alg)
    return {"full": W, "changed": O, "reduced": elim["operator"], "solved": elim["solved"]}


def parse_truncation(text: str, ring: PolyRing):
    """Parse "l3:2,e:1,nu:-2" into truncation windows on symbols of ring.

    A positive cap keeps exponents in [0, cap]; a negative cap keeps
    exponents >= cap (for inverse small parameters such as 1/nu).  Each
    symbol takes one window."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, cap = piece.partition(":")
        name = name.strip()
        if name not in ring.index:
            raise UsageError(f"truncation symbol {name!r} is not a parameter of this reduction")
        if any(name == seen for seen, _, _ in out):
            raise UsageError(f"truncation symbol {name!r} is given more than once")
        try:
            cap = int(cap)
        except ValueError:
            raise UsageError(f"bad truncation cap in {piece!r}") from None
        if cap >= 0:
            out.append((name, 0, cap))
        else:
            out.append((name, cap, 10 ** 6))
    return out
