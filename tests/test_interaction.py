import random
from fractions import Fraction

import pytest

from galilei import catalog as cat
from galilei.interaction import (
    conjugate_reduce,
    couple_anomalous,
    couple_minimal,
    eliminate_auxiliaries,
    extract_g,
    hamiltonian_named,
    make_setting,
    proca_interacting,
    reduce_coupled,
    second_conjugation,
)
from galilei.matrix import Matrix, dot
from galilei.poly import Poly, PolyRing
from galilei.reps import PAULI, spin1_matrix
from galilei.scalars import GRat, ZERO
from galilei.weyl import FieldConfig

HALF = GRat(Fraction(1, 2))


def spinor_setting(extra=()):
    params, xring, alg = make_setting(extra_params=("h", "e1") + tuple(extra),
                                      invertible=("m", "e"))
    h = xring.sym("h")
    a0 = xring.sym("e1") * xring.sym("x1") * (-1)
    fc = FieldConfig(alg, a0,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF, xring.zero])
    return params, xring, alg, fc


def spin_half():
    return [s * HALF for s in PAULI]


def test_minimal_levy_leblond_g2():
    params, xring, alg, fc = spinor_setting()
    co = couple_minimal(cat.levy_leblond(), fc, phys=(0, 1), spin_phys=spin_half())
    rep = reduce_coupled(co)
    assert rep.residual.is_zero()
    assert str(extract_g(rep, alg)) == "2"
    # the auxiliary doublet is forced to zero: its solved expression has
    # no coupling back (the pivot block was the constant 2m)
    assert rep.normalisation == alg.params.one


def test_minimal_reduction_zero_field_matches_free():
    params, xring, alg = make_setting(invertible=("m", "e"))
    fc = FieldConfig(alg, xring.zero, [xring.zero] * 3)
    co = couple_minimal(cat.levy_leblond(), fc, phys=(0, 1), spin_phys=spin_half())
    rep = reduce_coupled(co)
    assert rep.residual.is_zero() and not rep.named


def test_anomalous_levy_leblond_couplings():
    params, xring, alg, fc = spinor_setting(("lam1", "lam2", "mu", "nuL"))
    lring = PolyRing(("mu", "nuL"))
    lam = dot([cat.levy_leblond().beta0, cat.ll_lambda_generator()],
              [lring.sym("nuL"), lring.sym("mu")], lring)
    co = couple_anomalous(cat.levy_leblond(), fc, lam, phys=(0, 1), spin_phys=spin_half())
    rep = reduce_coupled(co)
    assert rep.residual.is_zero()
    g = extract_g(rep, alg)
    mu, nuL = alg.params.sym("mu"), alg.params.sym("nuL")
    lam1, lam2 = alg.params.sym("lam1"), alg.params.sym("lam2")
    m, e = alg.params.sym("m"), alg.params.sym("e")
    minv = alg.params.sym("m", -1)
    einv = alg.params.sym("e", -1)
    # gyromagnetic ratio affine with unit slopes
    assert g == alg.params.const(GRat(2)) + mu * lam1 + nuL * lam2
    # electric coupling: - (e/2m) lam3 with lam3 = mu lam2 / 2 in sigma
    # units, i.e. s-coefficient -(e/m) * (mu lam2 / 2)
    lam3 = mu * lam2 * HALF
    assert rep.named["s.E"] == -(e * minv) * lam3
    # magnetic-moment kinetic correction: +(e/2m^2) lam3
    assert rep.named["s.(pixH-Hxpi)"] == (e * minv * minv * HALF) * lam3
    # the squared-field term: -(e^2/2m^3) lam3^2 on (s.H)^2
    assert rep.named["(s.H)^2"] == -(e * e * minv ** 3 * HALF) * (lam3 * lam3)


def test_anomalous_rejects_bad_lambda():
    params, xring, alg, fc = spinor_setting()
    with pytest.raises(ValueError):
        couple_anomalous(cat.levy_leblond(), fc, cat.levy_leblond().betas[0],
                         phys=(0, 1), spin_phys=spin_half())


def make_so_slice():
    """The spin-orbit slice: g = 0 with the electric coupling kept,
    parametrised directly by lam3 (quadratic scalar potential, H = 0)."""
    params, xring, alg = make_setting(extra_params=("q1", "q2", "q3", "lam3"),
                                      invertible=("m", "e"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2
           + xring.sym("q2") * xring.sym("x2") ** 2
           + xring.sym("q3") * xring.sym("x3") ** 2) * HALF
    fc = FieldConfig(alg, a0, [xring.zero] * 3)
    lam = cat.ll_lambda_generator() * GRat(2)
    co = couple_anomalous(cat.levy_leblond(), fc, lam, phys=(0, 1),
                          spin_phys=spin_half(), lam1="lam3", lam2="lam3")
    return alg, co


def test_spin_orbit_slice_spinor():
    alg, co = make_so_slice()
    rep = reduce_coupled(co)
    assert rep.residual.is_zero()
    e, lam3 = alg.params.sym("e"), alg.params.sym("lam3")
    minv = alg.params.sym("m", -1)
    # (g = 0 slice) the only surviving named term is the electric coupling
    assert set(rep.named) == {"s.E"}
    assert rep.named["s.E"] == -(e * minv) * lam3
    trunc = [("lam3", 0, 2), ("e", 0, 1)]
    rep2 = second_conjugation(rep, co, lam3, trunc)
    assert rep2.residual.is_zero()
    ham = hamiltonian_named(rep2)
    # Hamiltonian form: spin-orbit -(e lam3^2/4m^2) s.(pi x E - E x pi),
    # i.e. -(e lam3^2/8m^2) in sigma units, with the Darwin companion
    # +(e lam3^2/8m^2) div E: equal and opposite
    so = ham["s.(pixE-Expi)"]
    dar = ham["divE"]
    assert so == -(e * minv * minv) * (lam3 * lam3) * GRat(Fraction(1, 4))
    assert dar == (e * minv * minv) * (lam3 * lam3) * GRat(Fraction(1, 8))
    assert so == dar * GRat(-2)  # sigma-unit coefficients match exactly


def vector_setting(with_h=False):
    params, xring, alg = make_setting(extra_params=("q1", "h", "lam1", "lam2", "nu"),
                                      invertible=("m", "e", "nu"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2) * HALF
    if with_h:
        h = xring.sym("h")
        avec = [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF, xring.zero]
    else:
        avec = [xring.zero] * 3
    fc = FieldConfig(alg, a0, avec)
    nring = PolyRing(("nu",), invertible=("nu",))
    bs = cat.system_D311(ring=nring)
    return params, xring, alg, fc, bs


def test_vector_reduction_formulas():
    params, xring, alg, fc, bs = vector_setting(with_h=True)
    co = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    rep = reduce_coupled(co)
    g = extract_g(rep, alg)
    lam1, lam2 = alg.params.sym("lam1"), alg.params.sym("lam2")
    nuinv = alg.params.sym("nu", -1)
    # exact affine structure of the vector gyromagnetic ratio
    assert g == alg.params.one + lam2 - lam1 * nuinv * HALF
    e, minv = alg.params.sym("e"), alg.params.sym("m", -1)
    assert rep.named["s.E"] == (e * minv * nuinv * HALF) * (alg.params.one + lam2 * HALF)


def test_vector_quadrupole_slice():
    params, xring, alg, fc, bs = vector_setting()
    co = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    nu = alg.params.sym("nu")
    # slice with g = 0 and the electric coupling kept
    co.matrix = co.matrix.map(lambda w: w.subs_params({"lam1": nu * 2,
                                                       "lam2": alg.params.zero}))
    rep = reduce_coupled(co)
    assert str(extract_g(rep, alg)) == "0"
    trunc = [("nu", -2, 10 ** 6), ("e", 0, 1)]
    kappa = nu.monomial_inverse() * GRat(Fraction(-1, 2))
    rep2 = second_conjugation(rep, co, kappa, trunc)
    e, minv = alg.params.sym("e"), alg.params.sym("m", -1)
    nuinv2 = nu.monomial_inverse() ** 2
    c = (e * minv * minv * nuinv2) * GRat(Fraction(1, 16))
    # quadrupole content present: ss.dE = Q.dE + (4/3) divE tr
    assert rep2.named["ss.dE"] == -c
    assert rep2.named["s.(pixE-Expi)"] == c
    # everything else in the residual is the rest-mass and the formally
    # small kinetic quartics the expansion does not resum
    for i in range(3):
        for j in range(3):
            w = rep2.residual[i, j]
            for key, coeff in w.terms.items():
                assert coeff.degree_in("e") == 0


def test_vector_clean_pauli_slice():
    # s.E-free slice with g = 2 exists: lam2 = -2, lam1 = -6 nu
    params, xring, alg, fc, bs = vector_setting(with_h=True)
    co = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    nu = alg.params.sym("nu")
    co.matrix = co.matrix.map(lambda w: w.subs_params({"lam1": nu * (-6),
                                                       "lam2": alg.params.const(GRat(-2))}))
    rep = reduce_coupled(co)
    assert "s.E" not in rep.named
    assert str(extract_g(rep, alg)) == "2"


def test_second_conjugation_by_zero_repeats_the_split():
    # kappa = 0 makes U the identity, so re-splitting the reduced block
    # must give back reduce_coupled's operator, named terms and residual
    _, _, alg, fc = spinor_setting()
    spinor = couple_minimal(cat.levy_leblond(), fc, phys=(0, 1), spin_phys=spin_half())
    _, _, alg, fc, bs = vector_setting(with_h=True)
    vector = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                              spin_phys=[spin1_matrix(a) for a in range(3)])
    for co in (spinor, vector):
        rep = reduce_coupled(co)
        again = second_conjugation(rep, co, 0, None)
        assert again.operator == rep.operator
        assert list(again.named.items()) == list(rep.named.items())
        assert again.residual == rep.residual


def test_proca_interacting_constant_h():
    params, xring, alg = make_setting(extra_params=("h", "lam"),
                                      invertible=("m", "e", "lam"))
    h = xring.sym("h")
    fc = FieldConfig(alg, xring.zero,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF, xring.zero])
    res = proca_interacting(fc)
    red = res["reduced"]
    p0c = Poly(alg.params, dict(red[0, 0].coefficient_of_key(p0=1).terms))
    blk = red.map(lambda w: alg.const(p0c.monomial_inverse()) * w)
    pis = fc.pis()
    kin = pis[0]
    minv = alg.sym("m", -1)
    for a in range(3):
        kin = kin - pis[a + 1] * pis[a + 1] * (minv * HALF)
    iden = Matrix.identity(3, alg.one, alg.zero)
    sh = Matrix.zeros(3, 3, alg.zero)
    for a in range(3):
        sh = sh + spin1_matrix(a).map(lambda x: alg.const(x)) * fc.h_ops()[a]
    # exact Pauli form with unit (e/m) s.H coefficient: g = 2
    assert (blk - iden * kin - sh * (alg.sym("e") * minv)).is_zero()


def test_proca_interacting_free_case():
    params, xring, alg = make_setting(extra_params=("lam",),
                                      invertible=("m", "e", "lam"))
    fc = FieldConfig(alg, xring.zero, [xring.zero] * 3)
    res = proca_interacting(fc)
    red = res["reduced"]
    p0c = Poly(alg.params, dict(red[0, 0].coefficient_of_key(p0=1).terms))
    blk = red.map(lambda w: alg.const(p0c.monomial_inverse()) * w)
    pis = fc.pis()
    kin = pis[0]
    minv = alg.sym("m", -1)
    for a in range(3):
        kin = kin - pis[a + 1] * pis[a + 1] * (minv * HALF)
    iden = Matrix.identity(3, alg.one, alg.zero)
    assert (blk - iden * kin).is_zero()


def test_reduction_resummation_invariant():
    # named + residual reproduces the transformed operator entrywise
    params, xring, alg, fc = spinor_setting()
    co = couple_minimal(cat.levy_leblond(), fc, phys=(0, 1), spin_phys=spin_half())
    rep = reduce_coupled(co)
    total = rep.residual
    for nm, c in rep.named.items():
        total = total + rep.structures[nm].map(lambda w: w * c)
    pis = fc.pis()
    kin = pis[0]
    minv = alg.sym("m", -1)
    for a in range(3):
        kin = kin - pis[a + 1] * pis[a + 1] * (minv * HALF)
    iden = Matrix.identity(2, alg.one, alg.zero)
    assert total + iden * kin == rep.operator


# -- the boost conjugation leaves the reduced block unchanged ------------------

TWO_ROUTE_SEED = 5


def random_coupling(rng, system, coupling):
    """A coupled operator with potentials A0, A1, A2, A3 of degree <= 2,
    each two monomials with coefficients p/q, p in [-5, 5] nonzero, q in [1, 4]."""
    spinor = system == "levy_leblond"
    extra = ("lam1", "lam2") if spinor else ("lam1", "lam2", "nu")
    _, xring, alg = make_setting(extra_params=extra,
                                 invertible=("m", "e") if spinor else ("m", "e", "nu"))
    xs = [xring.sym(f"x{k + 1}") for k in range(3)]

    def rat():
        return GRat(Fraction(rng.choice([k for k in range(-5, 6) if k]), rng.randint(1, 4)))

    def potential():
        out = xring.zero
        for _ in range(2):
            mono = xring.one
            for _ in range(rng.randint(0, 2)):
                mono = mono * rng.choice(xs)
            out = out + mono * rat()
        return out

    fc = FieldConfig(alg, potential(), [potential() for _ in range(3)])
    if spinor:
        bs, phys, sp = cat.levy_leblond(), (0, 1), spin_half()
        lam = bs.beta0 * rat() + cat.ll_lambda_generator() * rat()
    else:
        bs = cat.system_D311(ring=PolyRing(("nu",), invertible=("nu",)))
        phys, sp, lam = (0, 1, 2), [spin1_matrix(a) for a in range(3)], bs.beta0
    if coupling == "anomalous":
        return couple_anomalous(bs, fc, lam, phys, sp)
    return couple_minimal(bs, fc, phys, sp)


def conjugated_block(co):
    """The reference route: conjugate by the boost exponentials, eliminate
    the auxiliaries of L' and normalise to unit p0 coefficient."""
    alg = co.algebra
    blk = eliminate_auxiliaries(conjugate_reduce(co), co.phys, alg)["operator"]
    p0c = Poly(alg.params, dict(blk[0, 0].coefficient_of_key(p0=1).terms))
    return blk.map(lambda w: alg.const(p0c.monomial_inverse()) * w)


@pytest.mark.parametrize("system", ["levy_leblond", "D311"])
@pytest.mark.parametrize("coupling", ["minimal", "anomalous"])
def test_reduction_equals_the_conjugated_route(system, coupling):
    rng = random.Random(f"{TWO_ROUTE_SEED}:{system}:{coupling}")
    for _ in range(2):
        co = random_coupling(rng, system, coupling)
        assert reduce_coupled(co).operator == conjugated_block(co)


def test_reduction_refuses_eta_on_the_physical_rows():
    _, _, _, fc = spinor_setting()
    co = couple_minimal(cat.levy_leblond(), fc, phys=(2, 3), spin_phys=spin_half())
    with pytest.raises(ValueError, match="physical rows"):
        reduce_coupled(co)


@pytest.mark.parametrize("window", [[("e", 0, 1)], [("m", -1, 10 ** 6)],
                                    [("e", 0, 1), ("nu", -2, 10 ** 6)]])
def test_truncation_cuts_the_reduced_block(window):
    # the truncated reduction is the exact physical block cut to the window
    _, _, _, fc, bs = vector_setting(with_h=True)
    vector = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                              spin_phys=[spin1_matrix(a) for a in range(3)])
    _, _, _, fc = spinor_setting(("lam1", "lam2"))
    spinor = couple_anomalous(cat.levy_leblond(), fc, cat.ll_lambda_generator(),
                              phys=(0, 1), spin_phys=spin_half())
    for co in (vector, spinor):
        if any(name not in co.algebra.params.index for name, _, _ in window):
            continue
        alg = co.algebra
        exact = reduce_coupled(co)
        norm, inv = alg.const(exact.normalisation), alg.const(exact.normalisation.monomial_inverse())
        cut = exact.operator.map(lambda w: inv * (norm * w).truncate(window))
        assert reduce_coupled(co, window).operator == cut
