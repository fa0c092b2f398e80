import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from galilei.poly import PolyRing, Poly
from galilei.scalars import GRat, I, ONE, ZERO
from galilei.weyl import WeylAlgebra, WeylElement, FieldConfig, field_strength

PARAMS = PolyRing(("m", "e", "h"), invertible=("m",))
ALG = WeylAlgebra(PARAMS)
HALF = GRat(Fraction(1, 2))


def naive_normal_order(word):
    """Rewrite-system oracle: repeatedly swap adjacent (p, x) pairs using
    p x = x p - i (and p0 t = t p0 + i), no closed-form products."""
    # word: list of generator tags: ("x", a) ("p", a) ("p0",) ("t",)
    terms = {tuple(word): GRat(1)}
    changed = True

    def rank_of(g):
        order = {"x": 0, "t": 1, "p0": 2, "p": 3}
        return order[g[0]]

    while changed:
        changed = False
        new_terms = {}
        for w, c in terms.items():
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                swap_needed = rank_of(a) > rank_of(b)
                if not swap_needed:
                    continue
                rest_pre, rest_post = w[:k], w[k + 2:]
                swapped = rest_pre + (b, a) + rest_post
                new_terms[swapped] = new_terms.get(swapped, GRat(0)) + c
                commutator = None
                if a[0] == "p" and b[0] == "x" and a[1] == b[1]:
                    commutator = GRat(0, -1)
                if a[0] == "p0" and b[0] == "t":
                    commutator = I
                if commutator:
                    shorter = rest_pre + rest_post
                    new_terms[shorter] = new_terms.get(shorter, GRat(0)) + c * commutator
                changed = True
                break
            else:
                new_terms[w] = new_terms.get(w, GRat(0)) + c
        terms = {w: c for w, c in new_terms.items() if c}
    return terms


def word_to_element(word):
    out = ALG.one
    for g in word:
        if g[0] == "x":
            out = out * ALG.x(g[1])
        elif g[0] == "p":
            out = out * ALG.p(g[1])
        elif g[0] == "p0":
            out = out * ALG.p0
        else:
            out = out * ALG.t
    return out


def sorted_word_element(word, coeff):
    """Build the canonical element for an ordered word."""
    key = [0] * 8
    for g in word:
        if g[0] == "x":
            key[g[1]] += 1
        elif g[0] == "t":
            key[3] += 1
        elif g[0] == "p0":
            key[4] += 1
        else:
            key[5 + g[1]] += 1
    return WeylElement(ALG, {tuple(key): PARAMS.const(coeff)} if coeff else {})


gens = st.sampled_from([("x", 0), ("x", 1), ("p", 0), ("p", 1), ("p0",), ("t",)])
words = st.lists(gens, max_size=5)


def test_commutator_examples():
    x1, p1 = ALG.x(0), ALG.p(0)
    assert p1 * x1 == x1 * p1 - ALG.const(I)
    assert x1 * p1 == x1 * p1
    assert p1 * (x1 * x1) == x1 * x1 * p1 - x1 * ALG.const(I) * 2
    assert x1.commutator(p1) == ALG.const(I)
    assert ALG.p0 * ALG.t == ALG.t * ALG.p0 + ALG.const(I)


@given(words)
@settings(max_examples=40)
def test_product_matches_rewrite_oracle(word):
    got = word_to_element(word)
    want = ALG.zero
    for w, c in naive_normal_order(word).items():
        want = want + sorted_word_element(w, c)
    assert got == want


@given(words, words)
@settings(max_examples=30)
def test_normal_order_is_multiplicative(w1, w2):
    # normal_order(u v) = normal_order(normal_order(u) normal_order(v))
    assert word_to_element(w1 + w2) == word_to_element(w1) * word_to_element(w2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15)
@example(85896)  # the slowest seed seen, replayed under the default deadline
def test_jacobi_identity(seed):
    rng = random.Random(seed)

    def rnd():
        out = ALG.zero
        for _ in range(3):
            e = [rng.randint(0, 1) for _ in range(8)]
            out = out + WeylElement(ALG, {tuple(e): PARAMS.const(GRat(rng.randint(-3, 3)))})
        return out

    a, b, c = rnd(), rnd(), rnd()
    jac = (a.commutator(b.commutator(c)) + c.commutator(a.commutator(b))
           + b.commutator(c.commutator(a)))
    assert not jac


def test_dagger():
    x1, p1 = ALG.x(0), ALG.p(0)
    w = x1 * p1
    assert w.conjugate() == p1 * x1
    assert w.conjugate().conjugate() == w
    assert (w * w).conjugate() == w.conjugate() * w.conjugate()


def make_symmetric_gauge():
    xr = PolyRing(("x1", "x2", "x3", "m", "e", "h"), invertible=("m",))
    h = xr.sym("h")
    return FieldConfig(ALG, xr.zero,
                       [h * xr.sym("x2") * (-HALF), h * xr.sym("x1") * HALF, xr.zero])


def test_pi_operator_examples():
    xr = PolyRing(("x1", "x2", "x3", "m", "e", "h"), invertible=("m",))
    fc0 = FieldConfig(ALG, xr.zero, [xr.zero] * 3)
    for a in range(3):
        assert fc0.pi(a + 1) == ALG.p(a)
    assert fc0.pi(4) == ALG.sym("m")
    a0 = -(xr.sym("x1") ** 2 + xr.sym("x2") ** 2 + xr.sym("x3") ** 2) * HALF
    fc = FieldConfig(ALG, a0, [xr.zero] * 3)
    assert fc.pi(0) == ALG.p0 - ALG.sym("e") * ALG.from_x_poly(a0)
    assert [str(p) for p in fc.e_field()] == ["1*x1", "1*x2", "1*x3"]
    assert fc.div_e() == xr.const(GRat(3))


def test_field_strength_identities():
    fc = make_symmetric_gauge()
    F = field_strength(fc)
    e, h = ALG.sym("e"), ALG.sym("h")
    assert F[1, 2] == e * h          # e F^{12} = e H_3
    assert F[2, 1] == -(e * h)
    for n in range(5):
        assert not F[4, n] and not F[n, 4]
    # antisymmetry everywhere
    for m in range(5):
        for n in range(5):
            assert F[m, n] == -F[n, m] or (not F[m, n] and not F[n, m])


def test_degree_cap():
    xr = PolyRing(("x1", "x2", "x3", "m", "e"), invertible=("m",))
    cubic = xr.sym("x1") * xr.sym("x2") * xr.sym("x3")
    with pytest.raises(ValueError):
        FieldConfig(ALG, cubic, [xr.zero] * 3)


def test_truncate():
    lam = ALG.sym("h")
    w = lam ** 3 * ALG.x(0) + lam * ALG.p(1)
    assert w.truncate([("h", 0, 2)]) == lam * ALG.p(1)
    assert w.truncate([]) == w
    e2 = ALG.sym("e") ** 2 * ALG.x(0) * ALG.p(0)
    assert not e2.truncate([("e", 0, 1)])


def test_field_strength_electric_component_convention():
    # with momenta acting as -i d/dx the exact commutator gives
    # -i [pi^0, pi^a] = +e E_a; the opposite sign printed in the source
    # belongs to its +i d/dx section (see the design notes)
    xr = PolyRing(("x1", "x2", "x3", "m", "e", "h"), invertible=("m",))
    a0 = xr.sym("x1") * (-1)          # E = (1, 0, 0)
    fc = FieldConfig(ALG, a0, [xr.zero] * 3)
    F = field_strength(fc)
    assert F[0, 1] == ALG.sym("e")
    assert F[1, 0] == -ALG.sym("e")


def test_conjugation_preserves_products():
    # C(ab) = C(a) C(b) for the sandwich with matched inverse factors
    from galilei.matrix import Matrix, dot, nilpotent_exp
    from galilei.reps import build, RepLabel

    rep = build(RepLabel("S2"))
    exp_mat = dot(rep.eta, [ALG.p(a) for a in range(3)], ALG)
    exp_mat = exp_mat.map(lambda w: w * GRat(0, 1) * ALG.sym("m", -1))
    iden = Matrix.identity(4, ALG.one, ALG.zero)
    A = iden * ALG.p0 + rep.S[2].lift(ALG) * ALG.x(0)
    B = iden * ALG.p(1) + rep.eta[0].lift(ALG) * ALG.sym("m")
    left, right = nilpotent_exp(exp_mat, t=-1), nilpotent_exp(exp_mat)
    CA = left @ A @ right
    CB = left @ B @ right
    CAB = left @ (A @ B) @ right
    assert CAB == CA @ CB


# -- products checked by their action on polynomials ----------------------------

# u*v acts on polynomials f(x1, x2, x3, t) as u(v(f)), with x_a and t
# multiplying, p_a = -i d/dx_a and p0 = i d/dt; the action is faithful, so
# it checks every product path (central, commuting, reordered) without
# the closed reordering formula
PRODUCT_SEED = 7071
FRING = PolyRing(("x1", "x2", "x3", "t", "m", "e", "h"), invertible=("m",))
POSITION_SLOTS = (0, 1, 2, 3)   # x1, x2, x3, t
MOMENTUM_SLOTS = (4, 5, 6, 7)   # p0, p1, p2, p3


def act(w, f):
    """The operator w applied to the polynomial f."""
    out = FRING.zero
    for key, c in w.terms.items():
        g = f
        for a in range(3):
            for _ in range(key[5 + a]):
                g = g.diff(f"x{a + 1}") * GRat(0, -1)
        for _ in range(key[4]):
            g = g.diff("t") * I
        mono = [0] * len(FRING.names)
        mono[:4] = key[:4]
        out = out + g * Poly(FRING, {tuple(mono): ONE}) * c.map_to(FRING)
    return out


def _random_coefficient(rng):
    """One or two terms c * m^k e^j h^l with k possibly negative."""
    out = PARAMS.zero
    for _ in range(rng.randint(1, 2)):
        c = GRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))
        if c:
            out = out + PARAMS.sym("m", rng.randint(-1, 1)) * PARAMS.sym("e", rng.randint(0, 1)) \
                * PARAMS.sym("h", rng.randint(0, 1)) * c
    return out or PARAMS.one


def _random_element(rng, kind):
    """central: one term with the all-zero key; position, momentum: only
    those factors; mixed: any factors."""
    slots = {"central": (), "position": POSITION_SLOTS, "momentum": MOMENTUM_SLOTS,
             "mixed": POSITION_SLOTS + MOMENTUM_SLOTS}[kind]
    out = ALG.zero
    for _ in range(1 if kind == "central" else rng.randint(1, 3)):
        key = [0] * 8
        for s in slots:
            key[s] = rng.choice((0, 0, 1, 2))
        out = out + WeylElement(ALG, {tuple(key): _random_coefficient(rng)})
    return out


def _random_x_poly(rng):
    out = FRING.zero
    for _ in range(rng.randint(1, 4)):
        e = [rng.randint(0, 3) for _ in range(4)] + [0, rng.randint(0, 1), 0]
        out = out + Poly(FRING, {tuple(e): GRat(Fraction(rng.randint(1, 9), rng.randint(1, 3)))})
    return out


KINDS = ("central", "position", "momentum", "mixed")


@pytest.mark.parametrize("left", KINDS)
@pytest.mark.parametrize("right", KINDS)
def test_product_matches_action(left, right):
    rng = random.Random(f"{PRODUCT_SEED}:{left}:{right}")
    for _ in range(6):
        u, v = _random_element(rng, left), _random_element(rng, right)
        uv = u * v
        for _ in range(2):
            f = _random_x_poly(rng)
            assert act(uv, f) == act(u, act(v, f))
        assert all(uv.terms.values())


def test_product_paths_are_all_drawn():
    # the draws above meet both commuting and reordered monomial pairs,
    # including a p0 against a t
    rng = random.Random(f"{PRODUCT_SEED}:mixed:mixed")
    meets = set()
    for _ in range(6):
        u, v = _random_element(rng, "mixed"), _random_element(rng, "mixed")
        for e1 in u.terms:
            for e2 in v.terms:
                meets.add(tuple(bool(e1[p] and e2[x]) for p, x in
                                zip(MOMENTUM_SLOTS, (3, 0, 1, 2))))
    assert (False,) * 4 in meets
    assert any(m[0] for m in meets) and any(any(m[1:]) for m in meets)


def test_scalar_operands_match_action():
    rng = random.Random(f"{PRODUCT_SEED}:scalars")
    for _ in range(5):
        u = _random_element(rng, "mixed")
        f = _random_x_poly(rng)
        for c in (3, Fraction(-2, 5), GRat(Fraction(1, 2), -1), _random_coefficient(rng)):
            cf = PARAMS.const(c) if not isinstance(c, Poly) else c
            want = act(u, f) * cf.map_to(FRING)
            assert act(u * c, f) == want
            assert act(c * u, f) == want
            assert act(u * ALG.const(c), f) == act(ALG.const(c) * u, f) == want
        assert u * 0 == ALG.zero and not (ZERO * u).terms


def test_central_poly_multiplies_from_either_side():
    ring = PolyRing(("x",))
    alg = WeylAlgebra(ring)
    p = ring.sym("x") * 3 + 1
    for w in (alg.x(0), alg.p(0), alg.p0 * alg.t + alg.sym("x")):
        assert p * w == w * p == alg.const(p) * w
    assert PARAMS.sym("e") * ALG.p(1) == ALG.p(1) * PARAMS.sym("e")


def test_mixed_algebras_raise():
    other = WeylAlgebra(PolyRing(("m", "e", "k"), invertible=("m",)))
    same = WeylAlgebra(PolyRing(("m", "e", "h"), invertible=("m",)))  # equal, built apart
    u = ALG.x(0) * ALG.sym("e") + ALG.p(0)
    for v in (other.x(0), other.sym("k"), other.p0 * other.t):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(u, v)
            with pytest.raises(ValueError):
                op(v, u)
    with pytest.raises(ValueError):
        u * other.params.sym("k")
    with pytest.raises(ValueError):
        ALG.const(other.params.sym("k"))
    w = same.x(0) * same.sym("h") + same.p0
    assert u * w == u * (ALG.x(0) * ALG.sym("h") + ALG.p0)
    assert w * u - u == (ALG.x(0) * ALG.sym("h") + ALG.p0) * u - u
