import dataclasses
import random
from fractions import Fraction

import pytest

from galilei import catalog as cat
from galilei import reps
from galilei.beta import assemble, solve_beta4_space
from galilei.matrix import Matrix
from galilei.poly import PolyRing
from galilei.scalars import GRat, ZERO
from galilei.spin import (
    _pencil,
    c2_is_central,
    casimir_c3,
    casimir_ring,
    diagonalize_casimir,
    dispersion,
    generic_instance,
    spin_content,
)


ALL_BASE = [reps.RepLabel("D", *k) for k in sorted(reps.TABLE1)] + \
    [reps.RepLabel("S1"), reps.RepLabel("S2")]


def test_c3_for_flat_spinor():
    rep = reps.build(reps.RepLabel("S1"))
    ring = casimir_ring()
    c3 = casimir_c3(rep, ring)
    m = ring.sym("m")
    want = Matrix.identity(2, ring.one, ring.zero) * (m * m * GRat(Fraction(3, 4)))
    assert c3 == want


def test_c3_scalar_rep_zero():
    rep = reps.build_text("D(0,1,0)")
    assert casimir_c3(rep).is_zero()


def test_c3_d121_degree():
    rep = reps.build_text("D(1,2,1)")
    c3 = casimir_c3(rep)
    deg = max(p.total_degree(("p1", "p2", "p3")) for row in c3.entries for p in row)
    assert deg == 2


def test_diagonalization_all_base_reps():
    for label in ALL_BASE:
        rep = reps.build(label)
        assert diagonalize_casimir(rep)["ok"], str(label)


def test_diagonalization_direct_sums():
    for text in ("D(1,2,1)+D(0,1,0)", "S2+S2", "D(2,1,0)+D(1,1,0)"):
        assert diagonalize_casimir(reps.build_text(text))["ok"]


def test_c2_central():
    assert c2_is_central(reps.build(reps.RepLabel("S2")))
    assert c2_is_central(reps.build_text("D(3,1,1)"))


def _branches(bs):
    rep = spin_content(bs)
    return {(str(b.spin), str(b.epsilon), b.multiplicity) for b in rep.branches}, rep


def test_spin_content_catalog():
    got, rep = _branches(cat.system_D110())
    assert got == {("0", "0", 1)}
    assert rep.two_route_equal

    got, rep = _branches(cat.system_D210())
    assert got == {("1", "0", 3)}
    assert rep.two_route_equal

    got, rep = _branches(cat.system_D221())
    assert got == {("1", "0", 3), ("0", "0", 1)}
    assert rep.two_route_equal

    inst = generic_instance(cat.system_D311(), {"nu": GRat(2)})
    got, rep = _branches(inst)
    assert got == {("1", "4", 3)}          # epsilon = nu^2 in m^2 units
    assert rep.two_route_equal

    inst = generic_instance(cat.system_D311(), {"nu": GRat(Fraction(1, 3))})
    got, _ = _branches(inst)
    assert got == {("1", "1/9", 3)}

    got, rep = _branches(cat.levy_leblond())
    assert got == {("1/2", "0", 2)}
    assert rep.two_route_equal

    got, rep = _branches(cat.dkp_spin0_system())
    assert got == {("0", "1", 1)}          # epsilon = c^2 with c = 1
    assert rep.two_route_equal


def test_unfound_energies_are_not_reported_as_agreement():
    # generic hermitian points of D(1,1,0)+D(1,1,0): det(beta0 e + 2 beta4)
    # has degree 2 in e and no rational root, so both routes are empty
    label = "D(1,1,0)+D(1,1,0)"
    basis = solve_beta4_space(label, label).basis
    for seed in (1, 2):
        rng = random.Random(seed)
        coeffs = [GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in basis]
        R, E = basis[0][0] * coeffs[0], basis[0][1] * coeffs[0]
        for (Rk, Ek), c in zip(basis[1:], coeffs[1:]):
            R, E = R + Rk * c, E + Ek * c
        rep = spin_content(assemble(label, R, E))
        assert rep.branches == [] and not rep.two_route_equal
        assert any("degree 2 in e" in note for note in rep.notes), rep.notes


def test_dispersion_law_of_the_catalog_systems():
    d311 = generic_instance(cat.system_D311(), {"nu": GRat(2)})
    want = {"D110": "1*u", "D210": "1*u^3", "D221": "1*u^4",
            "D311": "1024 + -768*u + 192*u^2 + -16*u^3",  # -16 (u - 4)^3
            "levy_leblond": "1*u^2", "dkp_spin0": "1 + -1*u"}
    for bs in (cat.system_D110(), cat.system_D210(), cat.system_D221(), d311,
               cat.levy_leblond(), cat.dkp_spin0_system()):
        assert str(dispersion(bs)) == want[bs.name]


@pytest.mark.parametrize("a", range(3))
def test_dispersion_reads_beta_a_where_the_pencils_do_not(a):
    # doubling any one beta_a of D311 breaks Galilei invariance; the sector
    # pencils read only beta0 and beta4, so they still give the unperturbed triplet
    bs = generic_instance(cat.system_D311(), {"nu": GRat(2)})
    bad = dataclasses.replace(bs, betas=[b * 2 if i == a else b for i, b in enumerate(bs.betas)])
    with pytest.raises(ValueError, match="not Galilei invariant"):
        dispersion(bad)
    roots = _pencil(bad.blocks["F"], bad.blocks["R"], 2)
    assert {str(r): len(ker) for r, ker in roots.items()} == {"4": 1}


def test_vanishing_det_is_not_agreement():
    # det L vanishes identically: no branch and no dispersion law to match
    rep = spin_content(assemble("D(1,1,1)", Matrix([[GRat(1)]]), Matrix([[ZERO]])))
    assert rep.branches == [] and not rep.two_route_equal
    assert "det L vanishes identically: no dispersion law" in rep.notes


DISPERSION_SEED = 0


@pytest.mark.parametrize("key", sorted(reps.TABLE1))
def test_dispersion_at_a_generic_hermitian_point(key):
    # coefficients p/q, p in [-9, 9], q in [1, 5], on the self-pair basis
    label = "D({},{},{})".format(*key)
    space = solve_beta4_space(label, label)
    rng = random.Random(DISPERSION_SEED)
    R, E = Matrix.zeros(*space.r_shape), Matrix.zeros(*space.e_shape)
    for Rk, Ek in space.basis:
        c = GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        R, E = R + Rk * c, E + Ek * c
    f = dispersion(assemble(label, R, E))  # raises if any t is left
    assert f.degree_in("t") == 0


def _verdicts(bs):
    rep = spin_content(bs)
    return rep.consistent_spin1, rep.consistent_spin0


def test_particle_conditions():
    assert _verdicts(cat.system_D210()) == (True, False)
    # the eight-component system fails both rank conditions
    assert _verdicts(cat.system_D221()) == (False, False)
    assert _verdicts(generic_instance(cat.system_D311(), {"nu": GRat(2)})) == (True, False)
    assert _verdicts(cat.dkp_spin0_system()) == (False, True)
    # the four-component system is a consistent spin-0 particle
    assert _verdicts(cat.system_D110()) == (False, True)
    # the spinor system has no sector blocks to rank
    assert _verdicts(cat.levy_leblond()) == (False, False)


def test_symbolic_system_is_refused_with_its_free_parameters():
    with pytest.raises(ValueError, match=r"free parameters nu; .*generic_instance"):
        spin_content(cat.system_D311())


def test_multiplicity_bounded_by_dimension():
    for bs in (cat.system_D110(), cat.system_D210(), cat.system_D221(),
               cat.levy_leblond()):
        rep = spin_content(bs)
        assert sum(b.multiplicity for b in rep.branches) <= bs.rep.S[0].rows
