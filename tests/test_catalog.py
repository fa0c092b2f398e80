import random
from fractions import Fraction

import pytest

from galilei import catalog as cat
from galilei.beta import verify_conditions
from galilei.matrix import Matrix, canonical_span, det, evaluate_matrix, nullspace, rank
from galilei.poly import PolyRing
from galilei.reps import PAULI, spin1_matrix
from galilei.scalars import GRat, I, ONE, ZERO, UsageError


def test_metric():
    g = cat.galilean_metric()
    assert g[0, 4] == ONE and g[4, 0] == ONE
    for a in (1, 2, 3):
        assert g[a, a] == -ONE
    assert g @ g == Matrix.identity(5)


def test_clifford_relations():
    res = cat.check_clifford(cat.gamma_hat())
    assert res["ok"]
    g = cat.gamma_hat()
    assert g[0] @ g[4] + g[4] @ g[0] == Matrix.identity(4) * GRat(2)
    assert (g[1] @ g[1]) == Matrix.identity(4) * GRat(-1)


def test_clifford_negative_control():
    # a Minkowski-style set against the degenerate metric must fail
    mink = [Matrix.direct_sum([Matrix.identity(2), Matrix.identity(2) * (-1)]),
            *cat.gamma_hat()[1:4],
            Matrix.direct_sum([Matrix.identity(2), Matrix.identity(2) * (-1)])]
    assert not cat.check_clifford(mink)["ok"]


def test_gamma_square_is_wave_operator():
    # (gamma.p)^2 = (p_n p^n) I, symbolically
    ring = cat.proca_ring()
    g = [m.map(lambda x: ring.const(x)) for m in cat.gamma_hat()]
    p0, p1, p2, p3, m = ring.syms("p0", "p1", "p2", "p3", "m")
    upper = [p0, p1, p2, p3, m]
    gp = Matrix.zeros(4, 4, ring.zero)
    for k in range(5):
        gp = gp + g[k] * upper[k]
    c2 = p0 * m * 2 - (p1 * p1 + p2 * p2 + p3 * p3)
    assert gp @ gp == Matrix.identity(4, ring.one, ring.zero) * c2


def test_printed_gamma_spatial_blocks_fail_clifford():
    # the anti-diagonal spatial blocks printed in the source do not
    # anticommute with gamma_0; the catalogue uses the corrected set
    bad_g = list(cat.gamma_hat())
    for a in range(3):
        z2 = Matrix.zeros(2, 2)
        bad_g[1 + a] = Matrix.block([[z2, PAULI[a] * (-1)], [PAULI[a], z2]])
    res = cat.check_clifford(bad_g)
    assert not res["ok"]
    assert (0, 1) in res["violations"]


def test_levy_leblond_conditions():
    assert verify_conditions(cat.levy_leblond())["ok"]
    ring = PolyRing(("kappa", "omega"))
    assert verify_conditions(
        cat.levy_leblond(ring=ring, kappa=ring.sym("kappa"), omega=ring.sym("omega"))
    )["ok"]


def test_params_are_the_symbols_the_entries_use():
    assert cat.system_D311().params == ("nu",)
    assert cat.system_D311(nu=GRat(2)).params == ()
    # the ring names kappa and omega, but the entries hold the numeric defaults
    assert cat.levy_leblond(ring=PolyRing(("kappa", "omega"))).params == ()
    ring = PolyRing(("kappa", "omega"))
    assert cat.levy_leblond(omega=ring.sym("omega"), ring=ring).params == ("omega",)


def test_d311_refuses_nu_zero():
    # both sector pencils would vanish identically
    with pytest.raises(UsageError, match="nu != 0"):
        cat.system_D311(nu=ZERO)


def test_vector_systems_conditions():
    for f in (cat.system_D110, cat.system_D210, cat.system_D221, cat.system_D311):
        assert verify_conditions(f())["ok"]


def test_galilean_dkp_10():
    assert cat.check_galilean_dkp(cat.nied_dkp_10())["ok"]


def test_galilean_dkp_6():
    assert cat.check_galilean_dkp(cat.dkp_spin0_algebra_set())["ok"]


def test_dkp_negative_control():
    m1 = cat.system_D110()
    assert not cat.check_galilean_dkp([m1.beta0, *m1.betas, m1.beta4])["ok"]


def test_printed_kd3_unscrambles_to_algebra_set():
    printed = cat.dkp_spin0_printed()
    herm = cat.dkp_spin0_hermitizer()
    algebra = cat.dkp_spin0_algebra_set()
    assert algebra[0] == printed[4] - herm
    for a in (1, 2, 3):
        assert algebra[a] == printed[a] * (-1)
    assert algebra[4] == printed[0] * (-1)
    # and, as printed, the set does not close the algebra
    assert not cat.check_galilean_dkp(printed)["ok"]


def test_dkp_spin0_dispersion():
    # the six-component system propagates a single scalar with
    # C2 = c^2 m^2 (epsilon = c^2 in m^2 units)
    sys6 = cat.dkp_spin0_system(GRat(Fraction(3, 2)))
    ring = PolyRing(("q",))
    q = ring.sym("q")
    L = sys6.beta0.map(lambda x: ring.const(x)) * q \
        + sys6.beta4.map(lambda x: ring.const(x))
    d = det(L)
    # det vanishes exactly at 2 q = c^2 (m = 1 units: epsilon = 2 q)
    val = d.eval({"q": GRat(Fraction(9, 8))})
    assert not val
    assert d.eval({"q": GRat(1)})


def test_proca_contraction_identity():
    assert cat.proca_contraction_identity()


def test_proca_lambda_zero_rejected():
    for lam in (GRat(0), 0, cat.proca_ring().zero):
        with pytest.raises(ValueError):
            cat.proca_operator(lam=lam)


def test_proca_rest_frame():
    res = cat.proca_rest_frame_solutions()
    assert res["dimension"] == 3
    # the three states are the spatial triplet
    for v in res["vectors"]:
        assert not v[0] and not v[4]


def test_proca_free_reduction():
    # on the nullspace at generic on-shell momenta: psi4 = 0 and
    # m psi0 = p.psi (the divergence constraint)
    ring = cat.proca_ring()
    W = cat.proca_operator(ring)
    pt = {"p1": GRat(1), "p2": GRat(2), "p3": GRat(2), "m": GRat(3), "lam": GRat(1)}
    # on shell: 2 m p0 = p^2 -> p0 = 9/6 = 3/2
    pt["p0"] = GRat(Fraction(3, 2))
    W0 = evaluate_matrix(W, pt)
    ns = nullspace(W0)
    assert len(ns) == 3
    for v in ns:
        assert not v[4]
        assert pt["m"] * v[0] == pt["p1"] * v[1] + pt["p2"] * v[2] + pt["p3"] * v[3]


def test_proca_determinant_factorisation():
    info = cat.proca_determinant_factor()
    assert info["det"] == info["c2"] ** 3 * info["lam"] * info["m"] ** 3


def test_proca_selfadjoint_under_metric_pairing():
    ring = cat.proca_ring()
    W = cat.proca_operator(ring)
    g = cat.galilean_metric().map(lambda x: ring.const(x))
    lhs = g @ W
    rhs = (g @ W).T.map(lambda p: p.conjugate())
    assert lhs == rhs


def test_rarita_schwinger_consequences():
    ring = cat.proca_ring()
    RA = cat.rarita_schwinger_operator(ring)
    stack = cat.rs_consequence_stack(ring)
    rng = random.Random(0)
    for _ in range(10):
        pt = {n: GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for n in ("p0", "p1", "p2", "p3")}
        pt["m"] = GRat(1)
        pt["lam"] = GRat(1)
        na = canonical_span(nullspace(evaluate_matrix(RA, pt)), 20)
        nb = canonical_span(nullspace(evaluate_matrix(stack, pt)), 20)
        assert na == nb


def test_rarita_schwinger_rest_frame():
    ring = cat.proca_ring()
    RA = cat.rarita_schwinger_operator(ring)
    pt = {"p0": ZERO, "p1": ZERO, "p2": ZERO, "p3": ZERO, "m": GRat(1), "lam": GRat(1)}
    ns = nullspace(evaluate_matrix(RA, pt))
    assert len(ns) == 4
    S = cat.rs_total_spin()
    s2 = Matrix.zeros(20, 20)
    for a in range(3):
        s2 = s2 + S[a] @ S[a]
    K = Matrix([list(v) for v in ns]).T
    assert s2 @ K == K * GRat(Fraction(15, 4))


def test_rs_projector_equivalence():
    # sigma.Psi = 0 is equivalent to the spin-3/2 projector condition
    # s.sigma = 1 on the spatial vector-bispinor space
    from galilei.reps import eps

    sig = [Matrix.direct_sum([PAULI[a], PAULI[a]]) for a in range(3)]
    ssig = Matrix.zeros(12, 12)
    for a in range(3):
        ssig = ssig + spin1_matrix(a).kron(sig[a])
    cond13 = ssig - Matrix.identity(12)
    rows10 = Matrix.block([[sig[0], sig[1], sig[2]]])
    assert canonical_span(nullspace(rows10), 12) == canonical_span(nullspace(cond13), 12)
    # contracting the projector condition with sigma_a recovers the
    # trace condition
    comb = rows10 @ cond13
    assert canonical_span(list(comb.entries), 12) == canonical_span(list(rows10.entries), 12)


def test_dkp_contraction():
    res = cat.dkp_contraction()
    assert res["main_ok"]
    assert res["aux_ok"]
    # the contraction lands on D(2,1,0) up to row and column signs, not on
    # its operator L itself
    ring = PolyRing(("eps", "pt0", "pt1", "pt2", "pt3", "m"), invertible=("eps",))
    L = cat.system_D210().operator(ring.syms("pt0", "pt1", "pt2", "pt3", "m"), ring)
    rows = Matrix.direct_sum([Matrix.identity(6), Matrix([[-ONE]])]).lift(ring)
    cols = Matrix.direct_sum([Matrix.identity(3), -Matrix.identity(3),
                              Matrix.identity(1)]).lift(ring)
    assert res["extracted"] == rows @ L @ cols
    assert res["extracted"] != L


def test_canonical_unknown_name():
    with pytest.raises(ValueError):
        cat.canonical("nope")
