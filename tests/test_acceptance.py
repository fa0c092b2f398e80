"""Acceptance suite: one test per criterion, all tolerance-free.

Every check is exact rational equality.  Each test prints a PASS/FAIL
line per sub-item before asserting, so partial failures are visible in
the log.  Where the printed source values disagree with the exact
algebra (the spin content of the four-component vector system, the
ten-dimensional system's g and s.E coefficient, the spinor s.F
coefficient), the sub-item asserts the exact value, backs it with a
second route, and names the printed value in its report line; the
discrepancies are recorded in LEDGER.md and checked by test_ledger.py.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from galilei import catalog as cat
from galilei import interaction
from galilei import reps
from galilei.appendix import reproduce_appendix
from galilei.beta import assemble, solve_beta4_space, verify_conditions
from galilei.covariance import finite_boost_covariance, pauli_term_invariance
from galilei.interaction import (
    couple_anomalous,
    couple_minimal,
    extract_g,
    hamiltonian_named,
    make_setting,
    proca_interacting,
    reduce_coupled,
    second_conjugation,
)
from galilei.matrix import Matrix, canonical_span, det, dot, evaluate_matrix, nullspace
from galilei.poly import Poly, PolyRing
from galilei.reps import PAULI, spin1_matrix
from galilei.scalars import GRat, ZERO
from galilei.spin import (
    c2_is_central,
    diagonalize_casimir,
    generic_instance,
    spin_content,
)
from galilei.weyl import FieldConfig

HALF = GRat(Fraction(1, 2))


def report(criterion, item, ok):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {item}")
    return ok


def test_criterion_01_table1_and_representations():
    t0 = time.time()
    ok = True
    for (n, m, lam), (A, B, C) in reps.TABLE1.items():
        if A is None:
            continue
        B0 = B if B is not None else Matrix.zeros(n, 0)
        C0 = C if C is not None else Matrix.zeros(0, n)
        ok &= report(1, f"(A,B,C) consistency for ({n},{m},{lam})",
                     reps._abc_ok(A, B0, C0, n, m if B is not None else 0))
    for key in sorted(reps.TABLE1):
        rep = reps.build(reps.RepLabel("D", *key))
        ok &= report(1, f"commutators for D{key}", reps.verify_hg(rep)["ok"])
    for s in ("S1", "S2"):
        ok &= report(1, f"commutators for {s}",
                     reps.verify_hg(reps.build(reps.RepLabel(s)))["ok"])
    rng = random.Random(0)
    labels = [f"D({n},{m},{l})" for (n, m, l) in reps.TABLE1]
    for k in range(5):
        pick = "+".join(rng.choice(labels) for _ in range(rng.randint(2, 3)))
        ok &= report(1, f"commutators for {pick}",
                     reps.verify_hg(reps.build_text(pick))["ok"])
    elapsed = time.time() - t0
    ok &= report(1, f"runtime < 1 s (got {elapsed:.2f})", elapsed < 1.0)
    assert ok


def test_criterion_02_appendix_reproduction():
    t0 = time.time()
    reports_, summary = reproduce_appendix()
    ok = report(2, "all 67 cells reproduced (verbatim or amended, reported)",
                summary["all_ok"])
    ok &= report(2, "56+ cells verbatim under documented readings",
                 summary["span_matches"] >= 56)
    # every computed self-pair solution assembles into a condition-true system
    for label in ("D(1,1,0)", "D(1,1,1)", "D(2,1,0)", "D(2,2,1)", "D(1,2,1)",
                  "D(3,1,1)", "D(0,1,0)"):
        space = solve_beta4_space(label, label)
        good = all(verify_conditions(assemble(label, R, E))["ok"]
                   for R, E in space.basis)
        ok &= report(2, f"assembled systems on {label} satisfy the conditions", good)
    elapsed = time.time() - t0
    ok &= report(2, f"runtime < 30 s (got {elapsed:.1f})", elapsed < 30.0)
    assert ok


def test_criterion_03_canonical_identities():
    t0 = time.time()
    ok = report(3, "gamma set satisfies the Clifford relations",
                cat.check_clifford(cat.gamma_hat())["ok"])
    ok &= report(3, "10x10 tilde set satisfies the trilinear relations (125 triples)",
                 cat.check_galilean_dkp(cat.nied_dkp_10())["ok"])
    ok &= report(3, "6x6 set satisfies the trilinear relations (125 triples)",
                 cat.check_galilean_dkp(cat.dkp_spin0_algebra_set())["ok"])
    ring = PolyRing(("kappa", "omega"))
    ok &= report(3, "four-component spinor system satisfies the conditions (symbolic)",
                 verify_conditions(cat.levy_leblond(ring=ring, kappa=ring.sym("kappa"),
                                                    omega=ring.sym("omega")))["ok"])
    for f in (cat.system_D110, cat.system_D210, cat.system_D221, cat.system_D311):
        bs = f()
        ok &= report(3, f"{bs.name} satisfies the conditions", verify_conditions(bs)["ok"])
    elapsed = time.time() - t0
    ok &= report(3, f"runtime < 10 s (got {elapsed:.1f})", elapsed < 10.0)
    assert ok


def test_criterion_04_casimirs():
    t0 = time.time()
    ok = True
    base = [reps.RepLabel("D", *k) for k in sorted(reps.TABLE1)] \
        + [reps.RepLabel("S1"), reps.RepLabel("S2")]
    for label in base:
        rep = reps.build(label)
        ok &= report(4, f"C3' = m^2 S^2 for {label}", diagonalize_casimir(rep)["ok"])
    ok &= report(4, "C2 central (spinor carrier)",
                 c2_is_central(reps.build(reps.RepLabel("S2"))))
    ok &= report(4, "C2 central (ten-dimensional carrier)",
                 c2_is_central(reps.build_text("D(3,1,1)")))
    elapsed = time.time() - t0
    ok &= report(4, f"runtime < 10 s (got {elapsed:.1f})", elapsed < 10.0)
    assert ok


def _branch_set(bs):
    rep = spin_content(bs)
    return {(str(b.spin), b.multiplicity) for b in rep.branches}, rep


def _general_solution(label):
    """The system assembled from the general element of the self-pair
    solution space, one symbol c<k> per basis vector."""
    space = solve_beta4_space(label, label)
    ring = PolyRing(tuple(f"c{k}" for k in range(space.dim)))
    R = Matrix.zeros(*space.r_shape, ring.zero)
    E = Matrix.zeros(*space.e_shape, ring.zero)
    for k, (Rk, Ek) in enumerate(space.basis):
        c = ring.sym(f"c{k}")
        R = R + Rk.lift(ring) * c
        E = E + Ek.lift(ring) * c
    return assemble(label, R, E)


def _rank_at_most_one(mat):
    """Every 2x2 minor vanishes identically."""
    return not any(det(mat.submatrix(list(r), list(c)))
                   for r in combinations(range(mat.rows), 2)
                   for c in combinations(range(mat.cols), 2))


def test_criterion_05_spin_content():
    t0 = time.time()
    ok = True

    bs = cat.system_D110()
    got, rep = _branch_set(bs)
    # printed as {s=1}; the exact content is one spin-0 state (LEDGER.md)
    ok &= report(5, "four-component system content {s=0}, one state "
                    f"(printed: {{s=1}}; got {sorted(got)})", got == {("0", 1)})
    ok &= report(5, "four-component system two-route equality", rep.two_route_equal)
    # second route: at fixed p the plane-wave states number the p0-degree
    # of det L, which is at most rank beta0; no solution on D(1,1,0) or
    # D(1,1,1) has rank beta0 > 1, so neither carrier holds a spin-1 triplet
    ring = PolyRing(("p0", "p1", "p2", "p3", "m"))
    ok &= report(5, "four-component system: det L has p0-degree 1",
                 det(bs.operator(ring.syms("p0", "p1", "p2", "p3", "m"), ring))
                 .degree_in("p0") == 1)
    for label in ("D(1,1,0)", "D(1,1,1)"):
        ok &= report(5, f"rank beta0 <= 1 on the whole solution space on {label}",
                     _rank_at_most_one(_general_solution(label).beta0))

    got, rep = _branch_set(cat.system_D210())
    ok &= report(5, "seven-component system content {s=1}", got == {("1", 3)})
    ok &= report(5, "seven-component two-route equality", rep.two_route_equal)

    got, rep = _branch_set(cat.system_D221())
    ok &= report(5, "eight-component system content {s=1, s=0}",
                 got == {("1", 3), ("0", 1)})
    ok &= report(5, "eight-component fails both rank conditions",
                 not rep.consistent_spin1 and not rep.consistent_spin0)
    ok &= report(5, "eight-component two-route equality", rep.two_route_equal)

    inst = generic_instance(cat.system_D311(), {"nu": GRat(2)})
    got, rep = _branch_set(inst)
    ok &= report(5, "ten-dimensional system content {s=1}", got == {("1", 3)})
    ok &= report(5, "ten-dimensional two-route equality", rep.two_route_equal)

    got, rep = _branch_set(cat.dkp_spin0_system())
    ok &= report(5, "six-component system content {s=0}", got == {("0", 1)})
    ok &= report(5, "six-component two-route equality", rep.two_route_equal)

    got, rep = _branch_set(cat.levy_leblond())
    ok &= report(5, "spinor system content {s=1/2, mult 2}", got == {("1/2", 2)})
    ok &= report(5, "spinor two-route equality", rep.two_route_equal)

    elapsed = time.time() - t0
    ok &= report(5, f"runtime < 30 s (got {elapsed:.1f})", elapsed < 30.0)
    assert ok


def test_criterion_06_covariance_and_lemma():
    t0 = time.time()
    ok = True
    for mk in (cat.levy_leblond, cat.system_D110, cat.system_D210,
               cat.system_D221, cat.system_D311):
        bs = mk()
        ok &= report(6, f"finite boost covariance symbolic for {bs.name}",
                     finite_boost_covariance(bs)["ok"])
    bs = cat.levy_leblond()
    res = finite_boost_covariance(bs, symbolic=False, samples=20, seed=0)
    ok &= report(6, "20 seeded rational samples for the spinor system", res["ok"])
    rep = reps.build(reps.RepLabel("S2"))
    for L, nm in ((cat.levy_leblond().beta0, "beta0"),
                  (cat.ll_lambda_generator(), "boost intertwiner")):
        inv = pauli_term_invariance(rep, L)
        ok &= report(6, f"Lemma invariance of F1, F2 for Lambda = {nm}",
                     inv["f1_invariant"] and inv["f2_invariant"])
    elapsed = time.time() - t0
    ok &= report(6, f"runtime < 30 s (got {elapsed:.1f})", elapsed < 30.0)
    assert ok


def test_criterion_07_interaction_reductions():
    t0 = time.time()
    ok = True
    spin_phys = [s * HALF for s in PAULI]

    # minimal spinor coupling: g = 2
    params, xring, alg = make_setting(extra_params=("h",), invertible=("m", "e"))
    h = xring.sym("h")
    fc = FieldConfig(alg, xring.zero,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                      xring.zero])
    co = couple_minimal(cat.levy_leblond(), fc, phys=(0, 1), spin_phys=spin_phys)
    rep = reduce_coupled(co)
    ok &= report(7, "spinor minimal coupling: g = 2 exactly",
                 str(extract_g(rep, alg)) == "2" and rep.residual.is_zero())

    # anomalous spinor coupling: g = 2 + mu lam1 + nu lam2, field terms exact
    params, xring, alg = make_setting(extra_params=("h", "e1", "lam1", "lam2",
                                                    "mu", "nuL"),
                                      invertible=("m", "e"))
    h = xring.sym("h")
    a0 = xring.sym("e1") * xring.sym("x1") * (-1)
    fc = FieldConfig(alg, a0,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                      xring.zero])
    lring = PolyRing(("mu", "nuL"))
    lam = dot([cat.levy_leblond().beta0, cat.ll_lambda_generator()],
              [lring.sym("nuL"), lring.sym("mu")], lring)
    co = couple_anomalous(cat.levy_leblond(), fc, lam, phys=(0, 1),
                          spin_phys=spin_phys)
    rep = reduce_coupled(co)
    g = extract_g(rep, alg)
    mu, nuL = alg.params.sym("mu"), alg.params.sym("nuL")
    lam1, lam2 = alg.params.sym("lam1"), alg.params.sym("lam2")
    e, minv = alg.params.sym("e"), alg.params.sym("m", -1)
    ok &= report(7, "anomalous spinor coupling: g = 2 + mu lam1 + nu lam2 exactly",
                 g == alg.params.const(GRat(2)) + mu * lam1 + nuL * lam2
                 and rep.residual.is_zero())
    lam3 = mu * lam2 * HALF
    ok &= report(7, "anomalous spinor: s.F coefficient lam3 = mu lam2 / 2 "
                    "(printed: mu lam2, inconsistent with the printed g; "
                    "see LEDGER.md)",
                 rep.named["s.E"] == -(e * minv) * lam3)
    ok &= report(7, "anomalous spinor: squared-field term -(e^2/2m^3) lam3^2",
                 rep.named["(s.H)^2"] == -(e * e * minv ** 3 * HALF) * (lam3 * lam3))

    # ten-dimensional system with Lambda = beta0: exact formulas, with the
    # printed g = 1 + 2 lam1 + 2 lam2 and (e/nu m)(1 - lam2) in LEDGER.md
    params, xring, alg = make_setting(extra_params=("q1", "h", "lam1", "lam2", "nu"),
                                      invertible=("m", "e", "nu"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2) * HALF
    h = xring.sym("h")
    fc = FieldConfig(alg, a0,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                      xring.zero])
    nring = PolyRing(("nu",), invertible=("nu",))
    bs = cat.system_D311(ring=nring)
    co = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    rep = reduce_coupled(co)
    g = extract_g(rep, alg)
    lam1, lam2 = alg.params.sym("lam1"), alg.params.sym("lam2")
    nuinv = alg.params.sym("nu", -1)
    e, minv = alg.params.sym("e"), alg.params.sym("m", -1)
    exact_g = alg.params.one + lam2 - lam1 * nuinv * HALF
    ok &= report(7, "vector anomalous coupling: g = 1 + lam2 - lam1/(2 nu) exactly "
                    f"(printed: 1 + 2 lam1 + 2 lam2; got {g})", g == exact_g)
    exact_q_coeff = (e * minv * nuinv * HALF) * (alg.params.one + lam2 * HALF)
    ok &= report(7, "vector anomalous coupling: s.E coefficient (e/2 nu m)(1 + lam2/2) "
                    "exactly (printed: (e/nu m)(1 - lam2); "
                    f"got {rep.named.get('s.E')})",
                 rep.named.get("s.E") == exact_q_coeff)
    # second route: conjugate by the boost exponentials first, then
    # eliminate the auxiliaries of L', normalise and split the same way
    conjugated = reduce_coupled(replace(co, matrix=interaction.conjugate_reduce(co)))
    ok &= report(7, "vector anomalous coupling: eliminating the boost-conjugated operator "
                    "gives the same normalised block and every named term",
                 conjugated.operator == rep.operator
                 and list(conjugated.named.items()) == list(rep.named.items())
                 and conjugated.residual == rep.residual)
    # exactness of the reduction: the residual is precisely the rest
    # energy plus the H^2 - (s.H)^2 combination with its exact coefficient
    nu2 = alg.params.sym("nu") ** 2
    expected_resid = (
        Matrix.identity(3, alg.one, alg.zero)
        * (alg.sym("m") * alg.params.const(GRat(Fraction(-1, 2))) * nu2)
        + (rep.structures["H^2"] - rep.structures["(s.H)^2"])
        * ((e * e * minv ** 3 * nuinv ** 2) * GRat(Fraction(-1, 2)))
    )
    ok &= report(7, "vector reduction exact: residual = rest energy "
                    "+ (H^2 - (s.H)^2) term", rep.residual == expected_resid)

    # interacting five-vector system at constant H: g = 2 exactly
    params, xring, alg = make_setting(extra_params=("h", "lam"),
                                      invertible=("m", "e", "lam"))
    h = xring.sym("h")
    fc = FieldConfig(alg, xring.zero,
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                      xring.zero])
    res = proca_interacting(fc)
    red = res["reduced"]
    p0c = Poly(alg.params, dict(red[0, 0].coefficient_of_key(p0=1).terms))
    blk = red.map(lambda w: alg.const(p0c.monomial_inverse()) * w)
    pis = fc.pis()
    kin = pis[0]
    for a in range(3):
        kin = kin - pis[a + 1] * pis[a + 1] * (alg.sym("m", -1) * HALF)
    iden = Matrix.identity(3, alg.one, alg.zero)
    sh = Matrix.zeros(3, 3, alg.zero)
    for a in range(3):
        sh = sh + spin1_matrix(a).map(lambda x: alg.const(x)) * fc.h_ops()[a]
    ok &= report(7, "interacting five-vector system at constant fields: g = 2 exactly",
                 (blk - iden * kin - sh * (alg.sym("e") * alg.sym("m", -1))).is_zero())

    # spin-orbit slice: -(e lam3^2/8m^2) spin-orbit with the Darwin companion
    params, xring, alg = make_setting(extra_params=("q1", "q2", "q3", "lam3"),
                                      invertible=("m", "e"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2
           + xring.sym("q2") * xring.sym("x2") ** 2
           + xring.sym("q3") * xring.sym("x3") ** 2) * HALF
    fc = FieldConfig(alg, a0, [xring.zero] * 3)
    lam = cat.ll_lambda_generator() * GRat(2)
    co = couple_anomalous(cat.levy_leblond(), fc, lam, phys=(0, 1),
                          spin_phys=spin_phys, lam1="lam3", lam2="lam3")
    rep = reduce_coupled(co)
    lam3 = alg.params.sym("lam3")
    rep2 = second_conjugation(rep, co, lam3, [("lam3", 0, 2), ("e", 0, 1)])
    ham = hamiltonian_named(rep2)
    e, minv = alg.params.sym("e"), alg.params.sym("m", -1)
    so = ham.get("s.(pixE-Expi)")
    dar = ham.get("divE")
    # sigma-unit coefficient: s coefficient / 2
    ok &= report(7, "spin-orbit slice: sigma coefficient -(e lam3^2/8m^2) exactly",
                 so == -(e * minv * minv) * (lam3 * lam3) * GRat(Fraction(1, 4)))
    ok &= report(7, "spin-orbit slice: Darwin companion +(e lam3^2/8m^2) exactly",
                 dar == (e * minv * minv) * (lam3 * lam3) * GRat(Fraction(1, 8))
                 and rep2.residual.is_zero())

    # vector slices: quadrupole exhibited; clean Pauli slice with g = 2
    params, xring, alg = make_setting(extra_params=("q1", "h", "lam1", "lam2", "nu"),
                                      invertible=("m", "e", "nu"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2) * HALF
    fc = FieldConfig(alg, a0, [xring.zero] * 3)
    bs = cat.system_D311(ring=nring)
    co = couple_anomalous(bs, fc, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    nu = alg.params.sym("nu")
    co.matrix = co.matrix.map(lambda w: w.subs_params({"lam1": nu * 2,
                                                       "lam2": alg.params.zero}))
    rep = reduce_coupled(co)
    kappa = nu.monomial_inverse() * GRat(Fraction(-1, 2))
    rep2 = second_conjugation(rep, co, kappa, [("nu", -2, 10 ** 6), ("e", 0, 1)])
    ok &= report(7, "vector slice exhibits the quadrupole term (symmetric gradient)",
                 bool(rep2.named.get("ss.dE")))

    h = xring.sym("h")
    fc2 = FieldConfig(alg, a0, [h * xring.sym("x2") * (-HALF),
                                h * xring.sym("x1") * HALF, xring.zero])
    co = couple_anomalous(bs, fc2, bs.beta0, phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    co.matrix = co.matrix.map(lambda w: w.subs_params({
        "lam1": nu * (-6), "lam2": alg.params.const(GRat(-2))}))
    rep = reduce_coupled(co)
    ok &= report(7, "vector slice with no s.E term and g = 2",
                 "s.E" not in rep.named and str(extract_g(rep, alg)) == "2")

    elapsed = time.time() - t0
    ok &= report(7, f"runtime < 2 min (got {elapsed:.1f})", elapsed < 120.0)
    assert ok


def test_criterion_08_dkp_contraction():
    t0 = time.time()
    res = cat.dkp_contraction()
    ok = report(8, "lowest-order extraction reproduces the seven-component system",
                res["main_ok"])
    ok &= report(8, "auxiliary-component relation reproduced", res["aux_ok"])
    elapsed = time.time() - t0
    ok &= report(8, f"runtime < 5 s (got {elapsed:.1f})", elapsed < 5.0)
    assert ok


def test_criterion_09_rarita_schwinger_and_proca():
    t0 = time.time()
    ok = True
    ring = cat.proca_ring()
    RA = cat.rarita_schwinger_operator(ring)
    stack = cat.rs_consequence_stack(ring)
    rng = random.Random(0)
    same = True
    for _ in range(10):
        pt = {n: GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for n in ("p0", "p1", "p2", "p3")}
        pt["m"] = GRat(1)
        pt["lam"] = GRat(1)
        na = canonical_span(nullspace(evaluate_matrix(RA, pt)), 20)
        nb = canonical_span(nullspace(evaluate_matrix(stack, pt)), 20)
        same &= na == nb
    ok &= report(9, "vector-bispinor operator kernel equals the consequence stack "
                    "at 10 seeded momenta", same)
    pt = {"p0": ZERO, "p1": ZERO, "p2": ZERO, "p3": ZERO,
          "m": GRat(1), "lam": GRat(1)}
    ns = nullspace(evaluate_matrix(RA, pt))
    ok &= report(9, "rest-frame solution dimension 4", len(ns) == 4)
    S = cat.rs_total_spin()
    s2 = Matrix.zeros(20, 20)
    for a in range(3):
        s2 = s2 + S[a] @ S[a]
    K = Matrix([list(v) for v in ns]).T
    ok &= report(9, "S^2 = 15/4 on the rest-frame solutions",
                 s2 @ K == K * GRat(Fraction(15, 4)))
    ok &= report(9, "free five-vector system: contraction identity",
                 cat.proca_contraction_identity())
    ok &= report(9, "free five-vector system: 3 rest-frame states",
                 cat.proca_rest_frame_solutions()["dimension"] == 3)
    elapsed = time.time() - t0
    ok &= report(9, f"runtime < 1 min (got {elapsed:.1f})", elapsed < 60.0)
    assert ok


def test_criterion_10_rediscovery_oracle():
    t0 = time.time()
    found = reps.classify_bruteforce()
    expected = sorted(reps.table1_signatures())
    ok = report(10, "brute-force search yields exactly the 10 signatures",
                found == expected and len(found) == 10)
    elapsed = time.time() - t0
    ok &= report(10, f"runtime < 5 min (got {elapsed:.0f} s)", elapsed < 300.0)
    assert ok
