import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galilei.matrix import (
    Matrix,
    SubspaceBasis,
    _Echelon,
    _sparse,
    canonical_span,
    det,
    dot,
    linear_kernel,
    NotNilpotentError,
    nilpotent_exp,
    nullspace,
    rank,
)
from galilei.poly import Poly, PolyRing
from galilei.scalars import GRat, I, ONE, ZERO
from galilei import beta, covariance, reps


def gauss_rank_oracle(rows):
    """Plain Gauss elimination with a division per row, written apart from matrix.rref."""
    a = [[GRat(x) if not isinstance(x, GRat) else x for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_rank_examples():
    assert rank(Matrix([[GRat(1), I], [-I, GRat(1)]])) == 1
    assert rank(Matrix.identity(3)) == 3
    # block diag(I3, 0): the mass matrix of the four-component vector system
    beta4 = Matrix.direct_sum([Matrix.identity(3), Matrix.zeros(1, 1)])
    assert rank(beta4) == 3
    assert rank(Matrix.zeros(0, 5)) == 0


def test_rank_sparse():
    # one nonzero per row, landing in 45 of the 60 columns: rank 45
    hits = Matrix([[GRat(i + 1, i % 3) if j == i % 45 else ZERO for j in range(60)]
                   for i in range(300)])
    assert rank(hits) == 45
    # rows e_j - e_(j+1 mod 60), each five times: the incidence matrix of a
    # 60-cycle, whose rank is 59
    cycle = Matrix([[ONE if k == j % 60 else -ONE if k == (j + 1) % 60 else ZERO
                     for k in range(60)] for j in range(300)])
    assert rank(cycle) == 59
    assert rank(cycle.T) == 59


def test_sum_of_empty_matrices_keeps_columns():
    s = Matrix.zeros(0, 3) + Matrix.zeros(0, 3)
    assert s.shape == (0, 3)
    assert (s @ Matrix.zeros(3, 2)).shape == (0, 2)
    assert (Matrix.zeros(0, 3) - Matrix.zeros(0, 3)).shape == (0, 3)


def test_nullspace_examples():
    k1 = reps.K_ROWS[0]
    ns = nullspace(k1)
    assert len(ns) == 2
    assert all(v[0] == ZERO for v in ns)
    assert nullspace(Matrix([[GRat(1), GRat(2)], [GRat(3), GRat(5)]])) == []
    beta4 = Matrix.direct_sum([Matrix.identity(3), Matrix.zeros(1, 1)])
    ns = nullspace(beta4)
    # oracle: independent plain-Gauss solve fixes span {e4}
    assert len(ns) == 1 and ns[0] == (ZERO, ZERO, ZERO, ONE)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25)
def test_rank_nullity(nr, nc, seed):
    rng = random.Random(seed)
    m = Matrix([[GRat(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                 for _ in range(nc)] for _ in range(nr)])
    r = rank(m)
    assert r == gauss_rank_oracle(m.entries)
    assert r + len(nullspace(m)) == nc


def test_kron_examples():
    s3 = reps.spin1_matrix(2)
    big = Matrix.identity(2).kron(s3)
    assert big.shape == (6, 6)
    assert big.submatrix(range(3), range(3)) == s3
    assert big.submatrix(range(3, 6), range(3, 6)) == s3
    col = Matrix([[ONE], [ZERO]]).kron(reps.K_ROWS[0].H)
    assert col.shape == (6, 1)
    assert col[0, 0] == -I and all(not col[k, 0] for k in range(1, 6))
    z = Matrix.zeros(1, 1).kron(s3)
    assert z.is_zero()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20)
def test_kron_mixed_product(seed):
    rng = random.Random(seed)

    def rnd(n, m):
        return Matrix([[GRat(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])

    A, B, C, D = rnd(2, 2), rnd(2, 3), rnd(2, 2), rnd(3, 2)
    assert A.kron(B) @ C.kron(D) == (A @ C).kron(B @ D)
    E = rnd(2, 2)
    assert (A + C).kron(B) == A.kron(B) + C.kron(B)


def test_nilpotent_exp():
    rep = reps.build(reps.RepLabel("S2"))
    ring = PolyRing(("v1", "v2", "v3", "s", "t"))
    etav = Matrix.zeros(4, 4, ring.zero)
    for a in range(3):
        etav = etav + rep.eta[a].map(lambda x: ring.const(x)) * ring.sym(f"v{a+1}")
    ex = nilpotent_exp(etav * ring.const(I))
    # (1 + i eta.v) exactly, because (eta.v)^2 = 0
    expected = Matrix.identity(4, ring.one, ring.zero) + etav * ring.const(I)
    assert ex == expected
    assert nilpotent_exp(Matrix.zeros(3, 3)) == Matrix.identity(3)
    with pytest.raises(ValueError):
        nilpotent_exp(Matrix.identity(2))


def test_nilpotent_exp_group_property():
    # exp(N s) exp(N t) = exp(N (s+t)) with symbolic s, t
    ring = PolyRing(("s", "t"))
    n = Matrix([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    n = n.map(lambda x: ring.const(x))
    s, t = ring.sym("s"), ring.sym("t")
    left = nilpotent_exp(n, s) @ nilpotent_exp(n, t)
    right = nilpotent_exp(n, s + t)
    assert left == right


def test_nilpotent_exp_cut_series():
    # exp(s) cut to degree 3 in s: the series stops where the cut empties a power
    ring = PolyRing(("s",))
    s = ring.sym("s")

    def cut(p):
        return Poly(ring, {e: c for e, c in p.terms.items() if e[0] <= 3})

    ex = nilpotent_exp(Matrix([[s]]), cut=cut)
    assert ex == Matrix([[ring.one + s + s * s * GRat(Fraction(1, 2))
                          + s * s * s * GRat(Fraction(1, 6))]])
    with pytest.raises(NotNilpotentError, match="power 2 still nonzero"):
        nilpotent_exp(Matrix([[s]]))
    with pytest.raises(NotNilpotentError, match="did not terminate"):
        nilpotent_exp(Matrix([[s]]), cut=lambda p: p)


def test_eta_p_quadratic_for_d311():
    # exp of eta.p for the ten-dimensional carrier is quadratic in p
    rep = reps.build_text("D(3,1,1)")
    ring = PolyRing(("p1", "p2", "p3"))
    etap = Matrix.zeros(10, 10, ring.zero)
    for a in range(3):
        etap = etap + rep.eta[a].map(lambda x: ring.const(x)) * ring.sym(f"p{a+1}")
    ex = nilpotent_exp(etap)
    deg = max(p.total_degree() for row in ex.entries for p in row)
    assert deg == 2


def permanent_style_det_oracle(m):
    """Leibniz sum over permutations (independent of the memoised path)."""
    import itertools

    n = m.rows
    acc = ZERO
    for perm in itertools.permutations(range(n)):
        sgn = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sgn = -sgn
        term = ONE
        for i in range(n):
            term = term * m[i, perm[i]]
        acc = acc + (term if sgn > 0 else -term)
    return acc


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15)
def test_det_against_leibniz(seed):
    rng = random.Random(seed)
    m = Matrix([[GRat(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)])
    assert det(m) == permanent_style_det_oracle(m)


def test_solve_linear_map():
    # identity map: zero solution only
    m = Matrix.identity(3)
    assert SubspaceBasis(m.cols, nullspace(m)).dimension == 0
    # zero map on k unknowns: k-dimensional space
    m = Matrix.zeros(2, 4)
    assert SubspaceBasis(m.cols, nullspace(m)).dimension == 4


def test_subspace_basis_equality():
    v1 = (ONE, GRat(2))
    v2 = (GRat(2), GRat(4))
    s1 = SubspaceBasis(2, [v1])
    s2 = SubspaceBasis(2, [v2])
    assert s1 == s2
    assert s1.contains((GRat(3), GRat(6)))
    assert not s1.contains((ONE, ONE))


# -- linear_kernel ----------------------------------------------------------------


def _unit_tuples(shapes):
    """Every tuple of matrices of the given shapes with a single entry 1."""
    nv = sum(r * c for r, c in shapes)
    for k in range(nv):
        flat = [ONE if j == k else ZERO for j in range(nv)]
        out, off = [], 0
        for r, c in shapes:
            out.append(Matrix([flat[off + i * c:off + (i + 1) * c] for i in range(r)], cols=c))
            off += r * c
        yield tuple(out)


def probed_rank(apply, shapes):
    """Rank of the complex coefficient matrix of ``apply``: column k holds
    the residual entries of apply evaluated on the k-th unit tuple.

    The columns are very sparse, so they are eliminated as dicts (rank of
    the transpose), a route apart from the dense ``matrix.rank``."""
    pivots = {}
    for X in _unit_tuples(shapes):
        col = {k: x for k, x in enumerate(x for m in apply(*X) for row in m.entries
                                          for x in row) if x}
        while col:
            lead = min(col)
            if lead not in pivots:
                pivots[lead] = col
                break
            piv = pivots[lead]
            f = col[lead] / piv[lead]
            for k, x in piv.items():
                y = col.get(k, ZERO) - f * x
                if y:
                    col[k] = y
                else:
                    col.pop(k, None)
    return len(pivots)


def test_linear_kernel_zero_size_shapes():
    assert linear_kernel(lambda X: [X], [(0, 3)]) == []
    assert linear_kernel(lambda X, Y: [X, Y], [(0, 0), (2, 0)]) == []


def test_linear_kernel_no_conditions_gives_unit_basis():
    def apply(X, Y):
        return [Matrix.zeros(0, 2), X - X, Y * 0]

    sols = linear_kernel(apply, [(1, 2), (2, 1)])
    assert sols == list(_unit_tuples([(1, 2), (2, 1)]))


def test_linear_kernel_rejects_nonlinear_and_affine():
    with pytest.raises(ValueError, match="nonlinear"):
        linear_kernel(lambda X: [X @ X], [(2, 2)])
    with pytest.raises(ValueError, match="affine"):
        linear_kernel(lambda X: [X - Matrix.identity(2)], [(2, 2)])
    with pytest.raises(ValueError, match="affine"):
        linear_kernel(lambda X: [X * 0 + Matrix.identity(2)], [(2, 2)])


KERNEL_CASES = [
    # commutant of a complex matrix: real X with XJ = JX
    (lambda X: [X @ reps.PAULI[1] - reps.PAULI[1] @ X], [(2, 2)]),
    # Sylvester equation A X = X B with a shared eigenvalue, rectangular X
    (lambda X: [Matrix.from_rational_rows([[1, 1], [0, 2]]) @ X
                - X @ Matrix.from_rational_rows([[2, 0, 0], [0, 3, 0], [1, 0, 2]])],
     [(2, 3)]),
    # two coupled blocks with an imaginary coupling
    (lambda X, Y: [X @ reps.K_ROWS[0] - reps.K_ROWS[0] @ Y, Y - Y.T],
     [(1, 1), (3, 3)]),
]


@pytest.mark.parametrize("apply,shapes", KERNEL_CASES)
def test_linear_kernel_solutions_satisfy_apply(apply, shapes):
    sols = linear_kernel(apply, shapes)
    assert sols
    for X in sols:
        assert [m.shape for m in X] == shapes
        assert all(x.is_rational() for m in X for row in m.entries for x in row)
        assert all(m.is_zero() for m in apply(*X))
    flat = [tuple(x for m in X for row in m.entries for x in row) for X in sols]
    nv = sum(r * c for r, c in shapes)
    assert canonical_span(flat, nv).rows == len(sols)
    assert len(sols) == nv - probed_rank(apply, shapes)


def _lambda_apply(rep):
    def apply(L):
        return [r for a in range(3) for r in (rep.S[a] @ L - L @ rep.S[a],
                                               rep.eta[a].H @ L - L @ rep.eta[a])]
    return apply


TABLE1_LABELS = [f"D({n},{m},{l})" for (n, m, l) in sorted(reps.TABLE1)]


@pytest.mark.parametrize("label", TABLE1_LABELS + ["S1", "S2"])
def test_linear_kernel_real_equals_complex(label):
    """The callers' residual rows are real or purely imaginary, so the real
    kernel has the dimension of the complex one; the complex coefficient
    matrix is built here by probing unit matrices."""
    rep = reps.build_text(label)
    n = rep.dim
    assert len(covariance.find_lambda_space(rep)) == \
        n * n - probed_rank(_lambda_apply(rep), [(n, n)])
    if label.startswith("D"):
        car = beta.carrier_for(label)
        A, B, C, N, M = car.A, car.B, car.C, car.N, car.M

        def endo(X, Y):
            return [X @ A - A @ X, X @ B - B @ Y, Y @ C - C @ X]

        assert len(reps.endomorphisms(A, B, C, N, M)) == \
            N * N + M * M - probed_rank(endo, [(N, N), (M, M)])


# -- the sparse reduced echelon and membership ------------------------------------

ABSORB_SEED = 5050


def _random_rows(rng, n_rows, width):
    """Sparse Gaussian-rational rows with zero, dependent and purely
    imaginary rows mixed in."""
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([ZERO] * width)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            f = GRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
            rows.append([x + f * y for x, y in zip(a, b)])
        else:
            imaginary = kind > 0.85
            row = [ZERO] * width
            for k in rng.sample(range(width), rng.randint(1, min(3, width))):
                q = Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 4))
                row[k] = GRat(0, q) if imaginary else GRat(q, rng.choice([0, 0, 1, -2]))
            rows.append(row)
    rng.shuffle(rows)
    return rows


def assert_reduced(echelon):
    """Each held row is 1 at its pivot, 0 left of it and 0 at every other
    pivot, and holds no explicit zero."""
    for c, r in echelon.rows.items():
        assert r[c] == ONE and min(r) == c and all(r.values())
        assert not any(k in r for k in echelon.rows if k != c)


@pytest.mark.parametrize("case", range(12))
def test_row_absorber_matches_dense_rref(case):
    # the echelon absorbs rows one at a time and is reduced after each
    rng = random.Random(ABSORB_SEED + case)
    width = rng.randint(1, 9)
    rows = _random_rows(rng, rng.randint(1, 14), width)
    echelon = _Echelon(width)
    kept = []
    for r in rows:
        kept.append(echelon.add(_sparse(r)))
        assert_reduced(echelon)
    r0 = gauss_rank_oracle(rows)
    assert sum(kept) == len(echelon.rows) == rank(Matrix(rows)) == r0
    held, pivots = echelon.rref()
    assert held.shape == (r0, width) and pivots == sorted(echelon.rows)
    # the held rows span the rows: each row reduces to zero, and the held
    # rows add no rank to them
    assert not any(echelon.reduce(_sparse(r)) for r in rows)
    assert gauss_rank_oracle(rows + held.entries) == r0
    # the reduced form is unique, so the order of the rows does not matter
    assert _Echelon(width, map(_sparse, reversed(rows))).rref() == (held, pivots)
    ns = nullspace(held)
    assert len(ns) == width - r0
    assert all((Matrix(rows) @ Matrix([[x] for x in v])).is_zero() for v in ns)


def test_row_absorber_rejects_zero_and_repeats():
    echelon = _Echelon(3)
    assert not echelon.add({})
    assert echelon.add({1: I, 2: GRat(2)})
    assert not echelon.add({1: GRat(3), 2: GRat(0, -6)})
    assert echelon.rref() == (Matrix([[ZERO, ONE, GRat(0, -2)]]), [1])
    # a new pivot is cleared from the rows already held
    assert echelon.add({2: GRat(5)})
    assert echelon.rref() == (Matrix([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]), [1, 2])
    assert echelon.reduce({0: GRat(2), 1: ONE, 2: I}) == {0: GRat(2)}
    assert _Echelon(4).rref()[0].shape == (0, 4)
    assert _Echelon(0).rref()[0].shape == (0, 0)


@pytest.mark.parametrize("case", range(8))
def test_contains_matches_rank_test(case):
    rng = random.Random(ABSORB_SEED + 100 + case)
    width = rng.randint(1, 7)
    rows = _random_rows(rng, rng.randint(1, 5), width)
    space = SubspaceBasis(width, rows)
    probes = []
    for _ in range(4):
        coeffs = [GRat(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in rows]
        probes.append([sum((f * r[k] for f, r in zip(coeffs, rows)), ZERO)
                       for k in range(width)])
    probes += _random_rows(rng, 6, width)
    # an echelon built from the rows in the opposite order reduces the same
    echelon = _Echelon(width, map(_sparse, reversed(rows)))
    inside = 0
    for v in probes:
        expected = gauss_rank_oracle(rows + [v]) == gauss_rank_oracle(rows)
        assert space.contains(v) == (not echelon.reduce(_sparse(v))) == expected
        inside += expected
    assert inside >= 4
    with pytest.raises(ValueError):
        space.contains([ZERO] * (width + 1))


# -- differential oracle: sympy --------------------------------------------------

ORACLE_SEED = 5052


def _to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.re.numerator, x.re.denominator)
                                         + sympy.I * sympy.Rational(x.im.numerator,
                                                                    x.im.denominator)
                                         for row in m.entries for x in row])


def _from_sympy(sympy, x):
    re, im = sympy.re(x), sympy.im(x)
    return GRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


@pytest.mark.parametrize("case", range(15))
def test_rank_nullspace_det_against_sympy(case):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(ORACLE_SEED + case)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    m = Matrix(_random_rows(rng, nr, nc))
    sm = _to_sympy(sympy, m)
    assert rank(m) == sm.rank()
    ours = nullspace(m)
    theirs = [tuple(_from_sympy(sympy, sympy.expand(x)) for x in v)
              for v in sm.nullspace()]
    assert len(ours) == len(theirs)
    assert canonical_span(ours, nc) == canonical_span(theirs, nc)
    assert all((m @ Matrix([[x] for x in v])).is_zero() for v in ours)
    sq = Matrix(_random_rows(rng, nr, nr))
    assert det(sq) == _from_sympy(sympy, sympy.expand(_to_sympy(sympy, sq).det()))


# -- lifting into a coefficient ring and the matrix dot ----------------------------

LIFT_RING = PolyRing(("y", "x"))


def test_lift_grat_into_poly_ring():
    out = Matrix([[GRat(Fraction(1, 2), 3), ONE]]).lift(LIFT_RING)
    assert all(type(x) is Poly and x.ring is LIFT_RING for x in out.entries[0])
    assert out == Matrix([[LIFT_RING.const(GRat(Fraction(1, 2), 3)), LIFT_RING.one]])


def test_lift_poly_of_a_subring_into_a_larger_ring():
    small = PolyRing(("x",))
    out = Matrix([[small.sym("x") * 3 + 1]]).lift(LIFT_RING)
    assert out[0, 0].ring is LIFT_RING
    assert out[0, 0] == LIFT_RING.sym("x") * 3 + 1
    kept = LIFT_RING.sym("y")
    assert Matrix([[kept]]).lift(LIFT_RING)[0, 0] is kept


def test_lift_rejects_a_missing_symbol():
    other = PolyRing(("x", "z"))
    with pytest.raises(ValueError):
        Matrix([[other.sym("z")]]).lift(LIFT_RING)


def test_lift_poly_into_weyl_algebra_through_params():
    from galilei.weyl import WeylAlgebra

    alg = WeylAlgebra(PolyRing(("m", "e")))
    out = Matrix([[PolyRing(("e",)).sym("e") * 2, GRat(0, 1)]]).lift(alg)
    assert out == Matrix([[alg.sym("e") * 2, alg.const(GRat(0, 1))]])
    assert all(x.algebra is alg for x in out.entries[0])


def test_lift_keeps_elements_of_the_algebra_and_rejects_foreign_ones():
    from galilei.weyl import WeylAlgebra

    alg = WeylAlgebra(PolyRing(("m",)))
    w = alg.x(0) * alg.p(1)
    assert Matrix([[w]]).lift(alg)[0, 0] is w
    # an equal algebra built separately is the same algebra
    assert Matrix([[w]]).lift(WeylAlgebra(PolyRing(("m",))))[0, 0] is w
    with pytest.raises(ValueError):
        Matrix([[WeylAlgebra(PolyRing(("q",))).x(0)]]).lift(alg)
    with pytest.raises(ValueError):
        Matrix([[w]]).lift(PolyRing(("m",)))


def test_lift_sends_zeros_to_the_target_zero():
    from galilei.weyl import WeylAlgebra

    alg = WeylAlgebra(PolyRing(("m",)))
    zeros = Matrix([[ZERO, PolyRing(("q",)).zero]])
    for target in (LIFT_RING, alg):
        out = zeros.lift(target)
        assert out.shape == (1, 2)
        assert all(x is target.zero for x in out.entries[0])


DOT_SEED = 11


def _sparse_lift_rows(rng, rows, cols, ring):
    """Entries that are zero four times in five (a GRat zero or the zero of
    a foreign ring), else a GRat or a Poly of ``ring``."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            u = rng.random()
            if u < 0.8:
                row.append(rng.choice([ZERO, PolyRing(("q",)).zero]))
            elif u < 0.9:
                row.append(GRat(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)),
                                rng.randint(-1, 1)))
            else:
                sym = ring.sym(rng.choice(ring.names))
                row.append(sym * GRat(rng.randint(1, 3)) + rng.randint(-2, 2))
        out.append(row)
    return Matrix(out)


def _dense_dot(mats, coeffs, target):
    """The reference: sum_k mats[k].lift(target) * coeffs[k], every entry
    multiplied and added."""
    out = Matrix.zeros(mats[0].rows, mats[0].cols, target.zero)
    for m, c in zip(mats, coeffs):
        out = out + m.lift(target) * c
    return out


def test_dot_equals_the_explicit_sum():
    from galilei.weyl import WeylAlgebra

    rng = random.Random(DOT_SEED)
    mats = [Matrix(_random_rows(rng, 3, 3)) for _ in range(3)]
    coeffs = [LIFT_RING.sym("x"), LIFT_RING.sym("y") * 2, LIFT_RING.const(GRat(0, 1))]
    assert dot(mats, coeffs, LIFT_RING) == _dense_dot(mats, coeffs, LIFT_RING)
    alg = WeylAlgebra(PolyRing(("m", "e")))
    ops = [alg.p(0), alg.x(1), alg.sym("m")]
    explicit = mats[0].lift(alg) * ops[0] + mats[1].lift(alg) * ops[1] + mats[2].lift(alg) * ops[2]
    assert dot(mats, ops, alg) == explicit
    # sparse GRat and Poly entries, zero coefficients and an all-zero matrix
    cases = (
        (LIFT_RING, PolyRing(("x",)),
         [LIFT_RING.sym("x") + 1, LIFT_RING.zero, ZERO, GRat(Fraction(2, 3), 1),
          LIFT_RING.sym("y") * LIFT_RING.sym("x") - 2]),
        (alg, PolyRing(("e",)),
         [alg.p(0) * alg.x(0) + alg.sym("e"), alg.zero, ZERO, alg.x(2), alg.sym("m", 2)]),
    )
    for target, ring, coeffs in cases:
        for _ in range(4):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            mats = [_sparse_lift_rows(rng, rows, cols, ring) for _ in coeffs[:-1]]
            mats.append(Matrix.zeros(rows, cols))
            entries = [x for m in mats for r in m.entries for x in r]
            assert sum(1 for x in entries if not x) >= 0.7 * len(entries)
            got = dot(mats, coeffs, target)
            assert got == _dense_dot(mats, coeffs, target)
            for i in range(rows):
                for j in range(cols):
                    if not any(m[i, j] and c for m, c in zip(mats, coeffs)):
                        assert got[i, j] is target.zero


def test_dot_lifts_the_entries_of_a_zero_coefficient():
    from galilei.weyl import WeylAlgebra

    alg = WeylAlgebra(PolyRing(("m",)))
    for target, bad in ((LIFT_RING, PolyRing(("x", "z")).sym("z")),
                        (alg, PolyRing(("z",)).sym("z")),
                        (alg, WeylAlgebra(PolyRing(("q",))).x(0)),
                        (LIFT_RING, alg.x(0))):
        with pytest.raises(ValueError):
            Matrix([[bad]]).lift(target)
        for zero in (ZERO, target.zero):
            with pytest.raises(ValueError):
                dot([Matrix([[ONE, ZERO]]), Matrix([[ZERO, bad]])], [ONE, zero], target)


def test_dot_multiplies_each_nonzero_entry_once(monkeypatch):
    # count guard: one Weyl product per (nonzero entry, nonzero coefficient)
    # pair, none for a zero entry or a zero coefficient
    from galilei import catalog
    from galilei.interaction import make_setting
    from galilei.weyl import FieldConfig, WeylElement

    rng = random.Random(DOT_SEED)
    _, xring, alg = make_setting(extra_params=("nu",), invertible=("m", "e", "nu"))
    xs = [xring.sym(f"x{k + 1}") for k in range(3)]

    def potential():
        return sum((rng.choice(xs) * rng.choice(xs) * GRat(rng.randint(1, 5)), rng.choice(xs),
                    xring.const(GRat(rng.randint(-3, 3)))), xring.zero)

    fc = FieldConfig(alg, potential(), [potential() for _ in range(3)])
    bs = catalog.system_D311()
    mats = [bs.beta0, *bs.betas, bs.beta4]
    pis = fc.pis()
    real = WeylElement.__mul__
    for p in (pis, [*pis[:2], alg.zero, *pis[3:]]):
        calls = []

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(WeylElement, "__mul__", counting)
            op = bs.operator(p, alg)
        assert len(calls) == sum(1 for m, c in zip(mats, p) if c
                                 for r in m.entries for x in r if x)
        assert op == _dense_dot(mats, p, alg)


def test_kron_block_direct_sum_on_empty_shapes():
    m23, m13 = Matrix(_random_rows(random.Random(5), 2, 3)), Matrix([[ONE, I, ZERO]])
    for left, right, shape in (
        (Matrix.zeros(2, 0), m23, (4, 0)),
        (Matrix.zeros(0, 2), m13, (0, 6)),
        (m23, Matrix.zeros(3, 0), (6, 0)),
        (m23, Matrix.zeros(0, 2), (0, 6)),
    ):
        assert left.kron(right).shape == shape
    assert Matrix.block([[Matrix.zeros(2, 0), m23],
                         [Matrix.zeros(0, 0), Matrix.zeros(0, 3)]]) == m23
    assert Matrix.block([[Matrix.zeros(0, 1), Matrix.zeros(0, 2)],
                         [Matrix([[I]]), Matrix([[ONE, ZERO]])]]) == Matrix([[I, ONE, ZERO]])
    assert Matrix.block([[Matrix.zeros(0, 2), Matrix.zeros(0, 3)]]).shape == (0, 5)
    assert Matrix.direct_sum([Matrix.zeros(2, 0), Matrix.zeros(0, 3)]) == Matrix.zeros(2, 3)
    assert Matrix.direct_sum([Matrix.zeros(0, 0), m23]) == m23
    assert Matrix.direct_sum([Matrix.zeros(0, 2), m13]).shape == (1, 5)
    assert Matrix.zeros(0, 0).trace() == ZERO
