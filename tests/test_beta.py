import pytest

from fractions import Fraction

from galilei.beta import (
    assemble,
    carrier_for,
    normalize_equivalence,
    solve_beta4_space,
    verify_conditions,
)
from galilei.matrix import Matrix
from galilei.poly import PolyRing
from galilei.scalars import GRat, I, ONE, ZERO
from galilei import catalog as cat


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
    from galilei.reps import k_row

    for a in range(3):
        expected = Matrix.block([
            [Matrix.zeros(3, 3), k_row(a).H * (-1)],
            [k_row(a), Matrix.zeros(1, 1)],
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
