import random

import pytest

from fractions import Fraction

from galilei import beta as beta_mod
from galilei.beta import (
    VectorCarrier,
    _flatten_re,
    assemble,
    beta_from_blocks,
    block_equation,
    carrier_for,
    derived_blocks,
    normalize_equivalence,
    solve_beta4_space,
    verify_conditions,
)
from galilei.matrix import (
    Matrix,
    SubspaceBasis,
    _coefficient_rows,
    _unflatten,
    canonical_span,
    linear_kernel,
)
from galilei.poly import PolyRing
from galilei.reps import TABLE1, eps, verify_hg
from galilei.scalars import GRat, HALF, I, ONE, ZERO
from galilei import catalog as cat


LABELS = [f"D({n},{m},{lam})" for n, m, lam in sorted(TABLE1)]
# every Table-1 pair, the ten self pairs without hermiticity, and two
# direct sums (a self pair and a cross pair)
SOLVE_CASES = ([(a, b, None) for a in LABELS for b in LABELS]
               + [(a, a, False) for a in LABELS]
               + [("D(1,1,0)+D(0,1,0)", "D(1,1,0)+D(0,1,0)", None),
                  ("D(2,1,0)+D(1,0,0)", "D(1,1,1)", None)])


def test_solution_space_dims():
    # headline cells fixed by the printed tables (label convention of reps)
    assert solve_beta4_space("D(1,1,0)", "D(1,1,0)").dim == 2      # R, E free
    assert solve_beta4_space("D(1,1,1)", "D(1,1,1)").dim == 1      # E forced 0
    assert solve_beta4_space("D(1,0,0)", "D(0,1,0)").dim == 0      # nothing
    assert solve_beta4_space("D(0,1,0)", "D(0,1,0)").dim == 1      # E = mu
    assert solve_beta4_space("D(2,2,1)", "D(2,2,1)").dim == 5
    assert solve_beta4_space("D(3,1,1)", "D(3,1,1)").dim == 5
    # the (2,1,0) diagonal: 4 before hermitisation, 3 after (E tied to R22)
    assert solve_beta4_space("D(2,1,0)", "D(2,1,0)", hermitian=False).dim == 4
    assert solve_beta4_space("D(2,1,0)", "D(2,1,0)").dim == 3


def _random_matrix(rng, rows, cols):
    return Matrix([[GRat(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def test_blocks_make_rotation_tensors_whatever_their_values():
    # the premise of imposing only a = 0 components: for any blocks, eta_a and
    # beta_a / i are vector operators and beta0, beta4 commute with S, so
    # each condition family is a rotation vector or tensor
    rng = random.Random(15)
    n, m = 2, 1
    left = VectorCarrier((), _random_matrix(rng, n, n), _random_matrix(rng, n, m),
                         _random_matrix(rng, m, n), n, m)
    # a random triple is outside hg(1,3) ([eta_a, eta_b] != 0), yet every
    # rotation commutator of verify_hg holds
    bad = verify_hg(left.representation())["violations"]
    assert bad and all(kind == "eta,eta" for kind, *_ in bad)
    right = carrier_for("D(2,2,1)")
    rn, rm = right.N, right.M
    shapes = [(n, rn), (m, rm), (n, rn), (m, rm), (n, rn), (n, rm), (m, rn)]
    beta0, b_over_i, beta4 = beta_from_blocks(*(_random_matrix(rng, *s) for s in shapes))
    for c in range(3):
        S_l, S_r = left.S(c), right.S(c)
        assert S_l @ beta0 == beta0 @ S_r and S_l @ beta4 == beta4 @ S_r
        for a in range(3):
            want = Matrix.zeros(left.dim, right.dim)
            for d in range(3):
                if eps(c, a, d):
                    want = want + b_over_i[d] * (I * eps(c, a, d))
            assert S_l @ b_over_i[a] - b_over_i[a] @ S_r == want


def test_solutions_satisfy_all_fifteen_condition_families():
    # the solve imposes one block equation in H and M; were it weaker
    # than the fifteen families, some basis vector would break one of
    # them, so every basis vector meeting all fifteen shows the space is
    # no larger
    for left, right, hermitian in SOLVE_CASES:
        car_l, car_r = carrier_for(left), carrier_for(right)
        etas_l_h = [car_l.eta(a).H for a in range(3)]
        etas_r = [car_r.eta(a) for a in range(3)]
        for R, E in solve_beta4_space(left, right, hermitian=hermitian).basis:
            H, M, N, F, G = derived_blocks(car_l, car_r, R, E)
            beta0, b_over_i, beta4 = beta_from_blocks(R, E, F, G, H, M, N)
            betas = [b * I for b in b_over_i]
            for a in range(3):
                where = (left, right, hermitian, a)
                assert (etas_l_h[a] @ beta4 - beta4 @ etas_r[a] + betas[a] * I).is_zero(), where
                assert (etas_l_h[a] @ beta0 - beta0 @ etas_r[a]).is_zero(), where
                for b in range(3):
                    resid = etas_l_h[a] @ betas[b] - betas[b] @ etas_r[a]
                    if a == b:
                        resid = resid + beta0 * I
                    assert resid.is_zero(), (*where, b)


def _seven_block_basis(left, right, hermitian):
    """The (R, E) basis solved over all seven blocks R, E, F, G, H, M, N,
    with the family-1 residual imposed: a second route to the solve."""
    car_l, car_r = carrier_for(left), carrier_for(right)
    if hermitian is None:
        hermitian = car_l.labels == car_r.labels
    r_shape, e_shape = (car_l.N, car_r.N), (car_l.M, car_r.M)
    eta_l_h, eta_r = car_l.eta(0).H, car_r.eta(0)

    def apply(R, E, F, G, H, M, N):
        beta0, b_over_i, beta4 = beta_from_blocks(R, E, F, G, H, M, N)
        out = [eta_l_h @ beta4 - beta4 @ eta_r - b_over_i[0],
               eta_l_h @ beta0 - beta0 @ eta_r,
               eta_l_h @ b_over_i[0] - b_over_i[0] @ eta_r + beta0]
        out += [eta_l_h @ b - b @ eta_r for b in b_over_i[1:]]
        if hermitian:
            out += [R - R.T, E - E.T, F - F.T, G - G.T, H + H.T, M + N.T]
        return out

    sols = linear_kernel(apply, [r_shape, e_shape, r_shape, e_shape, r_shape,
                                 (car_l.N, car_r.M), (car_l.M, car_r.N)])
    span = canonical_span([tuple(x for m in (R, E) for row in m.entries for x in row)
                           for R, E, *_ in sols],
                          r_shape[0] * r_shape[1] + e_shape[0] * e_shape[1])
    return [_unflatten(vec, [r_shape, e_shape]) for vec in span.entries]


def _basis_text(basis):
    return repr([(R.entries, E.entries) for R, E in basis])


@pytest.fixture(scope="module")
def seven_block_bases():
    return {case: _basis_text(_seven_block_basis(*case)) for case in SOLVE_CASES}


def test_solve_matches_the_seven_block_reference(seven_block_bases):
    for case in SOLVE_CASES:
        assert _basis_text(solve_beta4_space(*case).basis) == seven_block_bases[case], case


@pytest.mark.parametrize("block", ["H", "M", "N", "F", "G"])
def test_seven_block_reference_sees_a_wrong_derived_block(seven_block_bases, monkeypatch,
                                                          block):
    # mutation check: the (R, E) solve reads H and M from beta_a_blocks, so
    # a wrong one must move some basis away from the seven-block route; it
    # never reads N, F or G, so a wrong one leaves every basis where it is
    # and must instead make assemble's verification fail on a solved self
    # pair
    target = "beta_a_blocks" if block in "HM" else "derived_blocks"
    real = getattr(beta_mod, target)
    at = "HMNFG".index(block)

    def doubled(car_l, car_r, R, E):
        blocks = list(real(car_l, car_r, R, E))
        blocks[at] = blocks[at] * GRat(2)
        return tuple(blocks)

    monkeypatch.setattr(beta_mod, target, doubled)
    moved = [_basis_text(solve_beta4_space(*case).basis) != seven_block_bases[case]
             for case in SOLVE_CASES]
    if block in "HM":
        assert any(moved)
        return
    assert not any(moved)
    monkeypatch.setattr(beta_mod, "_VERIFIED", set())
    label = {"N": "D(1,1,0)", "F": "D(2,1,0)", "G": "D(1,1,0)"}[block]
    with pytest.raises(AssertionError, match="conditions violated"):
        for R, E in solve_beta4_space(label, label).basis:
            assemble(label, R, E)


def _assembled_residuals(car_l, car_r, R, E, hermitian):
    """The second family at (0, 0), (0, 1) and (0, 2) built from the full
    beta matrices and boosts, with F and G from derived_blocks, then the
    hermitian ties: the route the block equation replaces."""
    eta_l_h, eta_r = car_l.eta(0).H, car_r.eta(0)
    H, M, N, F, G = derived_blocks(car_l, car_r, R, E)
    beta0, b_over_i, _ = beta_from_blocks(R, E, F, G, H, M, N)
    out = [eta_l_h @ b_over_i[0] - b_over_i[0] @ eta_r + beta0]
    out += [eta_l_h @ b - b @ eta_r for b in b_over_i[1:]]
    if hermitian:
        out += [R - R.T, E - E.T]
    return out


def _equation_rows(resids, width):
    """The real and imaginary coefficient rows of every nonzero entry."""
    return [tuple(coeffs.get(k, ZERO) for k in range(width))
            for resid in resids for row in resid.entries for p in row if p
            for coeffs in _coefficient_rows(p)]


def test_block_equations_match_the_assembled_residuals():
    # the block equation P = 0 and the three assembled residuals span the
    # same equations over R and E on every case, and the (0, 2) residual
    # adds nothing to (0, 1)
    for left, right, hermitian in SOLVE_CASES:
        car_l, car_r = carrier_for(left), carrier_for(right)
        if hermitian is None:
            hermitian = left == right
        ring, R, E, _ = _symbolic_blocks(car_l, car_r)
        width = len(ring.names)
        ties = [R - R.T, E - E.T] if hermitian else []
        blocks = _equation_rows([block_equation(car_l, car_r, R, E)] + ties, width)
        assembled = _assembled_residuals(car_l, car_r, R, E, hermitian)
        rows = _equation_rows(assembled, width)
        for mine, theirs in ((blocks, rows), (rows, blocks)):
            span = SubspaceBasis(width, theirs)
            assert all(span.contains(v) for v in mine), (left, right, hermitian)
        family_01 = SubspaceBasis(width, _equation_rows(assembled[1:2], width))
        assert all(family_01.contains(v) for v in _equation_rows(assembled[2:3], width))


def test_solve_builds_no_beta_matrix_boost_or_f_and_g(seven_block_bases, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solve built a beta matrix, a boost or F and G")

    for name in ("beta_from_blocks", "derived_blocks"):
        monkeypatch.setattr(beta_mod, name, refuse)
    monkeypatch.setattr(VectorCarrier, "eta", refuse)
    for case in SOLVE_CASES:
        assert _basis_text(solve_beta4_space(*case).basis) == seven_block_bases[case], case


# three hand-built triples, each breaking one triple equation: A, B, C
OFF_TRIPLE = {
    "A^2+BC": ([[1]], [[0]], [[0]]),
    "AB": ([[0, 1], [0, 0]], [[0], [1]], [[0, 0]]),
    "CA": ([[0, 1], [0, 0]], [[0], [0]], [[1, 0]]),
}


def _off_triple_carrier(name):
    A, B, C = OFF_TRIPLE[name]
    return VectorCarrier((), Matrix.from_rational_rows(A), Matrix.from_rational_rows(B),
                         Matrix.from_rational_rows(C), len(A), len(C))


@pytest.mark.parametrize("name", list(OFF_TRIPLE))
def test_solve_refuses_a_carrier_off_the_triple_equations(name):
    # the reduction to one block equation uses all three triple equations
    car = _off_triple_carrier(name)
    for left, right in ((car, "D(1,1,0)"), ("D(2,1,0)", car)):
        with pytest.raises(ValueError, match="A\\^2 \\+ BC = 0"):
            solve_beta4_space(left, right)


def _elimination_identities(car_l, car_r):
    """The module docstring's Elimination identities as residues over a
    PolyRing of R and E: U, V, P + Q and P - X_1, with H, M, N, F from
    derived_blocks.  Each is identically zero on carriers meeting the
    triple equations."""
    _, R, E, (H, M, N, F, _) = _symbolic_blocks(car_l, car_r)
    Ah, Bh, Ch = car_l.A.H, car_l.B.H, car_l.C.H
    Ap, Bp = car_r.A, car_r.B
    P = block_equation(car_l, car_r, R, E)
    return {"U": Ah @ M + H @ Bp, "V": Bh @ H + N @ Ap, "P+Q": P + Ch @ N + H @ Ap,
            "P-X1": P - (Ah @ H - H @ Ap + F)}


def test_elimination_identities_hold_on_every_solve_case():
    # U = 0 and V = 0 drop two block equations, Q = -P a third, and
    # X_1 = P makes the (0, 0) triplet block vanish with P
    for left, right, _ in SOLVE_CASES:
        for name, resid in _elimination_identities(carrier_for(left),
                                                   carrier_for(right)).items():
            assert resid.is_zero(), (left, right, name)


@pytest.mark.parametrize("name, broken_left, broken_right", [
    ("A^2+BC", {"P+Q"}, {"P+Q", "P-X1"}),
    ("AB", {"V"}, {"U"}),
    ("CA", {"U"}, {"V"}),
], ids=["A^2+BC", "AB", "CA"])
def test_each_triple_equation_is_needed(name, broken_left, broken_right):
    # a carrier breaking one triple equation breaks the identities that
    # use it, on the side where the carrier sits, so the reduction to
    # P = 0 needs all three; P - X_1 reads only the right carrier's A^2 + BC
    car = _off_triple_carrier(name)
    for (left, right), want in (((car, carrier_for("D(1,1,0)")), broken_left),
                                ((carrier_for("D(2,1,0)"), car), broken_right)):
        got = {k for k, resid in _elimination_identities(left, right).items()
               if not resid.is_zero()}
        assert got == want, (name, got)


def _symbolic_blocks(car_l, car_r):
    ring = PolyRing([f"{b}{i}_{j}" for b, (r, c) in
                     (("r", (car_l.N, car_r.N)), ("e", (car_l.M, car_r.M)))
                     for i in range(r) for j in range(c)])
    syms = [ring.sym(n) for n in ring.names]
    R, E = _unflatten(syms, [(car_l.N, car_r.N), (car_l.M, car_r.M)])
    return ring, R, E, derived_blocks(car_l, car_r, R, E)


def test_family1_is_an_identity_in_r_and_e():
    # with H, M, N from derived_blocks the first family vanishes for every
    # R, E, which is why the solve does not impose it
    for left, right, _ in SOLVE_CASES:
        car_l, car_r = carrier_for(left), carrier_for(right)
        ring, R, E, (H, M, N, F, G) = _symbolic_blocks(car_l, car_r)
        _, b_over_i, beta4 = beta_from_blocks(R, E, F, G, H, M, N, ring=ring)
        for a in range(3):
            resid = car_l.eta(a).H @ beta4 - beta4 @ car_r.eta(a) - b_over_i[a]
            assert resid.is_zero(), (left, right, a)


def test_family2_forces_the_derived_f_and_g():
    # eta_0^H (beta_0 / i) - (beta_0 / i) eta_0 + beta0 = 0 fixes beta0: its
    # triplet block gives F once on the k_0 axis (slot 0) and once off it
    # (slot 1), and derived_blocks' F is their mean, so the two agree with
    # it on every solution; its scalar block gives derived_blocks' G
    for left, right, _ in SOLVE_CASES:
        car_l, car_r = carrier_for(left), carrier_for(right)
        ring, R, E, (H, M, N, F, G) = _symbolic_blocks(car_l, car_r)
        _, b_over_i, _ = beta_from_blocks(R, E, F, G, H, M, N, ring=ring)
        X = car_l.eta(0).H @ b_over_i[0] - b_over_i[0] @ car_r.eta(0)
        for i in range(car_l.N):
            for j in range(car_r.N):
                on_axis, off_axis = X[3 * i, 3 * j], X[3 * i + 1, 3 * j + 1]
                assert not F[i, j] + (on_axis + off_axis) * HALF, (left, right)
        for i in range(car_l.M):
            for j in range(car_r.M):
                assert not G[i, j] + X[3 * car_l.N + i, 3 * car_r.N + j], (left, right)


def test_symmetric_r_and_e_tie_the_other_four_blocks():
    # the hermitian solve imposes only R = R^T and E = E^T: on a self pair
    # of integer carriers, symmetric R and E make F and G symmetric, H
    # antisymmetric and N = -M^T identically
    for left, right, _ in SOLVE_CASES:
        if left != right:
            continue
        car = carrier_for(left)
        assert all(x.is_rational() and x.re.denominator == 1 for m in (car.A, car.B, car.C)
                   for row in m.entries for x in row), left
        ring = PolyRing([f"{b}{i}_{j}" for b, n in (("r", car.N), ("e", car.M))
                         for i in range(n) for j in range(i, n)])

        def symmetric(b, n):
            return Matrix([[ring.sym(f"{b}{min(i, j)}_{max(i, j)}") for j in range(n)]
                           for i in range(n)], cols=n)

        H, M, N, F, G = derived_blocks(car, car, symmetric("r", car.N), symmetric("e", car.M))
        for tie in (F - F.T, G - G.T, H + H.T, M + N.T):
            assert tie.is_zero(), left


def test_hermitian_solve_is_the_symmetric_part_of_the_plain_solve():
    # on each of these self pairs the plain space is closed under
    # (R, E) -> (R^T, E^T) (checked here, not proved), so it splits into a
    # symmetric and an antisymmetric part, and the hermitian solve
    # (R - R^T and E - E^T imposed) is the symmetric one; the
    # antisymmetric part is what the real hermitian solve leaves out
    differ = {"D(1,2,1)": (4, 3), "D(2,0,0)": (3, 2), "D(2,1,0)": (4, 3), "D(2,1,1)": (4, 3),
              "D(2,2,1)": (7, 5), "D(3,1,1)": (7, 5), "D(1,1,0)+D(0,1,0)": (5, 4)}
    for label in LABELS + ["D(1,1,0)+D(0,1,0)"]:
        plain = solve_beta4_space(label, label, hermitian=False)
        hermitian = solve_beta4_space(label, label)
        span = plain.span()
        pairs = [(_flatten_re(R, E), _flatten_re(R.T, E.T)) for R, E in plain.basis]
        assert all(span.contains(t) for _, t in pairs), label
        sym = SubspaceBasis(span.dim, [[(x + y) * HALF for x, y in zip(v, t)] for v, t in pairs])
        anti = SubspaceBasis(span.dim, [[(x - y) * HALF for x, y in zip(v, t)] for v, t in pairs])
        assert sym.dimension + anti.dimension == plain.dim, label
        assert sym == hermitian.span(), label
        assert (plain.dim, hermitian.dim) == differ.get(label, (plain.dim, plain.dim)), label


def test_hermitian_cross_pair_is_rejected():
    # hermiticity ties each block to its own transpose, which only a self
    # pair has; D(1,0,0) x D(0,1,0) once failed with IndexError and the
    # reverse order once returned a space
    for left, right in (("D(1,0,0)", "D(0,1,0)"), ("D(0,1,0)", "D(1,0,0)")):
        with pytest.raises(ValueError, match="self pairs only"):
            solve_beta4_space(left, right, hermitian=True)
        assert solve_beta4_space(left, right, hermitian=False).dim == 0


def test_adjoint_symmetry_of_dims():
    import itertools

    keys = ["D(3,1,1)", "D(2,2,1)", "D(2,1,0)", "D(1,2,1)", "D(1,1,0)", "D(0,1,0)"]
    for a, b in itertools.combinations(keys, 2):
        d1 = solve_beta4_space(a, b, hermitian=False).dim
        d2 = solve_beta4_space(b, a, hermitian=False).dim
        assert d1 == d2, (a, b)


def test_every_solution_assembles_and_verifies():
    for label in ("D(1,1,0)", "D(2,1,0)", "D(2,2,1)", "D(1,2,1)"):
        space = solve_beta4_space(label, label)
        for R, E in space.basis:
            bs = assemble(label, R, E)
            assert verify_conditions(bs)["ok"]


def test_zero_solution_is_trivially_consistent():
    car = carrier_for("D(1,1,0)")
    bs = assemble(car, Matrix.zeros(1, 1), Matrix.zeros(1, 1))
    assert bs.beta0.is_zero() and bs.beta4.is_zero()
    assert all(b.is_zero() for b in bs.betas)


def test_assemble_reproduces_four_component_system():
    # R = 1, E = 0 on the four-dimensional carrier gives the printed
    # matrices exactly
    bs = assemble("D(1,1,0)", Matrix([[ONE]]), Matrix([[ZERO]]))
    assert bs.beta4 == Matrix.direct_sum([Matrix.identity(3), Matrix.zeros(1, 1)])
    assert bs.beta0 == Matrix.direct_sum([Matrix.zeros(3, 3), Matrix([[GRat(2)]])])
    from galilei.reps import K_ROWS

    for a in range(3):
        expected = Matrix.block([
            [Matrix.zeros(3, 3), K_ROWS[a].H * (-1)],
            [K_ROWS[a], Matrix.zeros(1, 1)],
        ]) * I
        assert bs.betas[a] == expected


def test_seven_component_system_blocks():
    bs = cat.system_D210()
    assert bs.blocks["F"] == Matrix([[GRat(2), ZERO], [ZERO, ZERO]])
    assert bs.blocks["G"] == Matrix([[ZERO]])
    assert bs.blocks["H"] == Matrix([[ZERO, ONE], [-ONE, ZERO]])
    assert verify_conditions(bs)["ok"]


def test_conditions_negative_control():
    bs = cat.system_D210()
    bad = cat.system_D210()
    bad.beta4 = Matrix.zeros(7, 7)
    res = verify_conditions(bad)
    assert not res["ok"]
    assert any(v[0] == "family1" for v in res["violations"])


def test_symbolic_parameter_systems_verify():
    bs = cat.system_D311()
    assert verify_conditions(bs)["ok"]
    ring = PolyRing(("kappa", "omega"))
    ll = cat.levy_leblond(ring=ring, kappa=ring.sym("kappa"), omega=ring.sym("omega"))
    assert verify_conditions(ll)["ok"]


@pytest.fixture
def verify_calls(monkeypatch):
    """A fresh verified-systems memo and a count of verify_conditions calls."""
    calls = []
    real = beta_mod.verify_conditions

    def counting(bs):
        calls.append(bs.name)
        return real(bs)

    monkeypatch.setattr(beta_mod, "_VERIFIED", set())
    monkeypatch.setattr(beta_mod, "verify_conditions", counting)
    return calls


def test_assemble_verifies_each_distinct_system_once(verify_calls):
    # equal rings built separately key the same snapshot
    cat.system_D311(ring=PolyRing(("nu",), invertible=("nu",)))
    cat.system_D311(ring=PolyRing(("nu",), invertible=("nu",)))
    assert len(verify_calls) == 1
    cat.system_D311(nu=GRat(2))
    assert len(verify_calls) == 2
    cat.system_D311(nu=GRat(2))
    assert len(verify_calls) == 2


def test_assemble_keys_on_the_carrier_matrices_not_its_labels(verify_calls):
    bs = cat.system_D311()
    car = carrier_for("D(3,1,1)")
    A = Matrix(car.A.entries)
    A.entries[0][0] = A[0, 0] + ONE
    changed = VectorCarrier(car.labels, A, car.B, car.C, car.N, car.M)
    with pytest.raises(AssertionError, match="conditions violated"):
        assemble(changed, bs.blocks["R"], bs.blocks["E"])
    assert len(verify_calls) == 2


def test_assemble_still_catches_a_fault_on_new_inputs(verify_calls, monkeypatch):
    real = beta_mod.derived_blocks

    def faulty(car_l, car_r, R, E):
        H, M, N, F, G = real(car_l, car_r, R, E)
        return H * GRat(2), M, N, F, G

    monkeypatch.setattr(beta_mod, "derived_blocks", faulty)
    with pytest.raises(AssertionError, match="family1"):
        cat.system_D311()
    # a failed system is not remembered
    monkeypatch.setattr(beta_mod, "derived_blocks", real)
    cat.system_D311()
    assert len(verify_calls) == 2


def test_assemble_returns_a_fresh_system_every_call(verify_calls):
    first = cat.system_D311()
    expected = Matrix(first.betas[0].entries)
    i, j = next((i, j) for i, row in enumerate(expected.entries)
                for j, x in enumerate(row) if x)
    first.betas[0].entries[i][j] = first.betas[0][i, j] + ONE
    first.blocks["R"].entries[0][0] = ONE
    second = cat.system_D311()
    assert len(verify_calls) == 1
    assert second.betas[0] == expected
    assert verify_conditions(second)["ok"]


def test_normalize_equivalence_levy_leblond():
    ring = PolyRing(("kappa", "omega"))
    ll = cat.levy_leblond(ring=ring, kappa=ring.sym("kappa"), omega=ring.sym("omega"))
    res = normalize_equivalence(ll)
    out = res["system"]
    # off-diagonal omega blocks gone; induced kappa shift flagged for the
    # phase transformation
    for i in (0, 1):
        for j in (2, 3):
            assert not out.beta4[i, j]
            assert not out.beta4[j, i]
    assert any("phase" in n for n in res["notes"])
    assert verify_conditions(out)["ok"]


def test_normalize_equivalence_identity_on_canonical():
    bs = cat.system_D311()
    res = normalize_equivalence(bs)
    assert res["system"].beta4 == bs.beta4
    assert res["notes"] == []
