from fractions import Fraction

import pytest

from galilei import catalog as cat
from galilei import reps
from galilei.covariance import (
    boost_ring,
    boosted_momentum,
    find_lambda_space,
    finite_boost_covariance,
    five_vector_transform,
    group_element,
    lambda_satisfies,
    pauli_term_invariance,
    rotation_element,
)
from galilei.matrix import Matrix, canonical_span, nilpotent_exp
from galilei.poly import PolyRing
from galilei.scalars import GRat, I, ONE, ZERO


def test_five_vector_group_law():
    ring = boost_ring(("w1", "w2", "w3"))
    T_v = five_vector_transform(ring)
    T_w = five_vector_transform(ring, vnames=("w1", "w2", "w3"))
    prod = T_v @ T_w
    v = [ring.sym(f"v{a+1}") for a in range(3)]
    w = [ring.sym(f"w{a+1}") for a in range(3)]
    s = [v[a] + w[a] for a in range(3)]
    half = GRat(Fraction(1, 2))
    rows = [[ring.one, s[0], s[1], s[2], (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) * half]]
    for a in range(3):
        row = [ring.zero] * 5
        row[1 + a] = ring.one
        row[4] = s[a]
        rows.append(row)
    rows.append([ring.zero] * 4 + [ring.one])
    assert prod == Matrix(rows)


def test_five_vector_inverse():
    ring = boost_ring(("w1", "w2", "w3"))
    T_v = five_vector_transform(ring)
    # inverse is the transform at -v: build by substitution w = -v
    T_m = five_vector_transform(ring, vnames=("w1", "w2", "w3"))
    prod = (T_v @ T_m).map(lambda p: p.subs(
        {"w1": -ring.sym("v1"), "w2": -ring.sym("v2"), "w3": -ring.sym("v3")}))
    assert prod == Matrix.identity(5, ring.one, ring.zero)


def test_boost_preserves_quadratic_form():
    ring = boost_ring()
    pt = boosted_momentum(ring)
    c2t = pt[0] * pt[4] * 2 - (pt[1] * pt[1] + pt[2] * pt[2] + pt[3] * pt[3])
    p0, p1, p2, p3, m = ring.syms("p0", "p1", "p2", "p3", "m")
    assert c2t == p0 * m * 2 - (p1 * p1 + p2 * p2 + p3 * p3)


def test_group_element_spinor():
    rep = reps.build(reps.RepLabel("S2"))
    ring = boost_ring()
    T = group_element(rep, ring)
    etav = Matrix.zeros(4, 4, ring.zero)
    for a in range(3):
        etav = etav + rep.eta[a].map(lambda x: ring.const(x)) * ring.sym(f"v{a+1}")
    assert T == Matrix.identity(4, ring.one, ring.zero) + etav * ring.const(I)


def test_identity_at_zero():
    rep = reps.build_text("D(1,2,1)")
    ring = boost_ring()
    T = group_element(rep, ring)
    T0 = T.map(lambda p: p.subs({"v1": ZERO, "v2": ZERO, "v3": ZERO}))
    assert T0 == Matrix.identity(5, ring.one, ring.zero)


def test_five_vector_eta_realisation():
    # the explicit five-vector boost exponentiates the eta structure with
    # p0 fed by p and p fed by p4; this realisation is hg-consistent and
    # carrier-isomorphic to the catalogue D(1,2,1)
    from galilei.reps import Representation, spin1_matrix, verify_hg
    from galilei.matrix import nullspace, rank as mrank

    def e5(i, j):
        m = [[ZERO] * 5 for _ in range(5)]
        m[i][j] = ONE
        return Matrix(m)

    eta_fv = [(e5(0, 1 + a) + e5(1 + a, 4)) * (-I) for a in range(3)]
    S_fv = []
    for a in range(3):
        sa = spin1_matrix(a)
        m = Matrix.zeros(5, 5)
        for b in range(3):
            for c in range(3):
                m.entries[1 + b][1 + c] = sa[b, c]
        S_fv.append(m)
    fv = Representation((), S_fv, eta_fv)
    assert verify_hg(fv)["ok"]
    ring = boost_ring()
    T = group_element(fv, ring)
    assert T == five_vector_transform(ring)
    # isomorphic to the catalogue carrier: an invertible intertwiner exists
    rep = reps.build_text("D(1,2,1)")
    rows = []
    for k in range(25):
        Sm = Matrix.zeros(5, 5)
        Sm.entries[k // 5][k % 5] = ONE
        resid = []
        for a in range(3):
            resid.append(Sm @ rep.eta[a] - eta_fv[a] @ Sm)
            resid.append(Sm @ rep.S[a] - S_fv[a] @ Sm)
        rows.append([x for rm in resid for rr in rm.entries for x in rr])
    sols = nullspace(Matrix(rows).T)
    assert any(
        mrank(Matrix([[v[i * 5 + j] for j in range(5)] for i in range(5)])) == 5
        for v in sols
    )


def test_gamma_adjoint_is_five_vector_boost():
    # conjugating the gamma five-vector with exp(eta.v) realises the same
    # boost matrix on its components
    rep = reps.build(reps.RepLabel("S2"))
    ring = boost_ring()
    etav = Matrix.zeros(4, 4, ring.zero)
    for a in range(3):
        etav = etav + rep.eta[a].map(lambda x: ring.const(x)) * ring.sym(f"v{a+1}")
    T = nilpotent_exp(etav)          # exp(eta.v), no i
    Tinv = nilpotent_exp(etav * (-1))
    gam = [g.map(lambda x: ring.const(x)) for g in cat.gamma_hat()]
    # T^-1 gamma_m T = sum_n lam[m_slot, n_slot] gamma_n: the gamma set
    # transforms with the rows of the five-vector boost (gamma_0 sits in
    # the mass slot, gamma_4 in the energy slot)
    lam = five_vector_transform(ring)
    order = [4, 1, 2, 3, 0]
    for mi, m_slot in enumerate(order):
        got = Tinv @ gam[mi] @ T
        want = Matrix.zeros(4, 4, ring.zero)
        for ni, n_slot in enumerate(order):
            want = want + gam[ni] * lam[m_slot, n_slot]
        assert got == want, mi


def test_rotation_element_group_and_covariance():
    rep = reps.build_text("D(1,2,1)")
    ring = PolyRing(("c", "s"))
    R = rotation_element(rep, 2, ring)
    # unitarity modulo c^2 + s^2 = 1
    prod = R @ R.H
    one = ring.one
    rel = one - ring.sym("s") ** 2
    reduced = prod.map(lambda p: p.reduce_relation("c", rel))
    assert reduced == Matrix.identity(5, ring.one, ring.zero)
    # conjugation rotates S_1 into cos t S_1 - +/- sin t S_2
    S1 = rep.S[0].map(lambda x: ring.const(x))
    S2 = rep.S[1].map(lambda x: ring.const(x))
    c, s = ring.sym("c"), ring.sym("s")
    cos_t, sin_t = c * c - s * s, c * s * 2
    got = (R @ S1 @ R.H).map(lambda p: p.reduce_relation("c", rel))
    want1 = (S1 * cos_t - S2 * sin_t).map(lambda p: p.reduce_relation("c", rel))
    want2 = (S1 * cos_t + S2 * sin_t).map(lambda p: p.reduce_relation("c", rel))
    assert got == want1 or got == want2


def test_rotation_element_rejects_spin_three_halves():
    # the vector-bispinor carrier has S_3 eigenvalues +-3/2, outside the
    # interpolation set, so the Lagrange sum would not be exp(i S theta)
    S = cat.rs_total_spin()
    rep = reps.Representation((), S, [Matrix.zeros(20, 20)] * 3)
    with pytest.raises(ValueError):
        rotation_element(rep, 2, PolyRing(("c", "s")))


def test_finite_boost_covariance_symbolic():
    for mk in (cat.levy_leblond, cat.system_D110, cat.system_D210,
               cat.system_D221, cat.system_D311):
        bs = mk()
        assert finite_boost_covariance(bs)["ok"], bs.name


def test_finite_boost_covariance_sampled():
    bs = cat.levy_leblond()
    res = finite_boost_covariance(bs, symbolic=False, samples=20, seed=0)
    assert res["ok"]


def test_sampled_covariance_needs_a_sample():
    bs = cat.levy_leblond()
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples >= 1"):
            finite_boost_covariance(bs, symbolic=False, samples=samples)


def test_covariance_negative_control():
    bs = cat.system_D110()
    bs.betas[0].entries[0][3] = bs.betas[0].entries[0][3] + ONE
    assert not finite_boost_covariance(bs)["ok"]


def test_lambda_space_spinor():
    rep = reps.build(reps.RepLabel("S2"))
    ls = find_lambda_space(rep)
    assert len(ls) == 2
    span = canonical_span([tuple(x for row in L.entries for x in row) for L in ls], 16)
    target = canonical_span(
        [tuple(x for row in M.entries for x in row)
         for M in (cat.levy_leblond().beta0, cat.ll_lambda_generator())], 16)
    assert span == target


def test_lambda_space_flat_spinor_is_scalars():
    rep = reps.build(reps.RepLabel("S1"))
    ls = find_lambda_space(rep)
    assert len(ls) == 1
    assert ls[0] == Matrix.identity(2) * ls[0][0, 0]


def test_lambda_space_d311_contains_beta0():
    rep = reps.build_text("D(3,1,1)")
    ls = find_lambda_space(rep)
    b0 = cat.system_D311().beta0
    vecs = [tuple(x for row in L.entries for x in row) for L in ls]
    from galilei.matrix import SubspaceBasis

    space = SubspaceBasis(100, vecs)
    flat = tuple(x.constant_value() if hasattr(x, "constant_value") else x
                 for row in b0.entries for x in row)
    assert space.contains(flat)


def test_pauli_term_invariance():
    rep = reps.build(reps.RepLabel("S2"))
    for L in (cat.levy_leblond().beta0, cat.ll_lambda_generator()):
        res = pauli_term_invariance(rep, L)
        assert res["f1_invariant"] and res["f2_invariant"]
    d311 = reps.build_text("D(3,1,1)")
    b0 = cat.system_D311().beta0.map(lambda p: p.constant_value())
    res = pauli_term_invariance(d311, b0)
    assert res["f1_invariant"] and res["f2_invariant"]


def test_pauli_term_rejects_bad_lambda():
    rep = reps.build(reps.RepLabel("S2"))
    with pytest.raises(ValueError):
        pauli_term_invariance(rep, rep.S[2])
