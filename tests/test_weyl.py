import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from galilei.poly import PolyRing
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
    FieldConfig(ALG, cubic, [xr.zero] * 3, degree_cap=3)


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
    from galilei.matrix import Matrix
    from galilei.interaction import conjugate_by_nilpotent
    from galilei.reps import build, RepLabel

    rep = build(RepLabel("S2"))
    exp_mat = Matrix.zeros(4, 4, ALG.zero)
    for a in range(3):
        exp_mat = exp_mat + rep.eta[a].map(lambda x: ALG.const(x)) * ALG.p(a)
    exp_mat = exp_mat.map(lambda w: w * GRat(0, 1) * ALG.sym("m", -1))
    iden = Matrix.identity(4, ALG.one, ALG.zero)
    A = iden * ALG.p0 + rep.S[2].map(lambda x: ALG.const(x)) * ALG.x(0)
    B = iden * ALG.p(1) + rep.eta[0].map(lambda x: ALG.const(x)) * ALG.sym("m")
    CA = conjugate_by_nilpotent(A, exp_mat, dagger_pair=False)
    CB = conjugate_by_nilpotent(B, exp_mat, dagger_pair=False)
    CAB = conjugate_by_nilpotent(A @ B, exp_mat, dagger_pair=False)
    assert CAB == CA @ CB


def test_schwartz_zippel_mode():
    from galilei.poly import identity_check_sampled

    r = PolyRing(("x", "y"))
    x, y = r.sym("x"), r.sym("y")
    assert identity_check_sampled((x + y) ** 2, x * x + x * y * 2 + y * y)
    assert not identity_check_sampled((x + y) ** 2, x * x + y * y)
