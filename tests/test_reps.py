import itertools
import random

import pytest

from galilei.matrix import Matrix, dot, rank
from galilei.poly import PolyRing
from galilei.scalars import GRat, ONE, UsageError
from galilei import reps


def test_table1_triples_satisfy_consistency():
    for (n, m, lam), (A, B, C) in reps.TABLE1.items():
        if A is None:
            continue
        B0 = B if B is not None else Matrix.zeros(n, 0)
        C0 = C if C is not None else Matrix.zeros(0, n)
        assert reps._abc_ok(A, B0, C0, n, m if B is not None else 0), (n, m, lam)


def test_build_dimensions_and_relations():
    for key in reps.TABLE1:
        rep = reps.build(reps.RepLabel("D", *key))
        assert rep.dim == 3 * key[0] + key[1]
        assert reps.verify_hg(rep)["ok"], key
    for s, d in (("S1", 2), ("S2", 4)):
        rep = reps.build(reps.RepLabel(s))
        assert rep.dim == d
        assert reps.verify_hg(rep)["ok"]


def test_scalar_rep_trivial():
    rep = reps.build_text("D(0,1,0)")
    assert rep.dim == 1
    assert all(s.is_zero() for s in rep.S)
    assert all(e.is_zero() for e in rep.eta)


def test_d121_structure():
    rep = reps.build_text("D(1,2,1)")
    assert rep.dim == 5
    # S = diag(s_a, 0, 0)
    for a in range(3):
        assert rep.S[a].submatrix(range(3), range(3)) == reps.spin1_matrix(a)
        assert all(not rep.S[a][i, j] for i in range(3, 5) for j in range(3, 5))


def test_corrupted_eta_detected():
    rep = reps.build_text("D(1,2,1)")
    rep.eta[0].entries[0][3] = rep.eta[0].entries[0][3] + ONE
    res = reps.verify_hg(rep)
    assert not res["ok"]
    assert res["violations"]


def test_direct_sums():
    rep = reps.build_text("D(1,2,1)+D(0,1,0)")
    assert rep.dim == 6
    assert reps.verify_hg(rep)["ok"]
    rep = reps.build_text("S2+S2")
    assert rep.dim == 8
    assert reps.verify_hg(rep)["ok"]
    single = reps.direct_sum([reps.build_text("D(1,1,0)")])
    assert single.dim == 4


def test_sum_passes_iff_summands_pass():
    good = reps.build_text("D(1,1,0)")
    bad = reps.build_text("D(1,1,1)")
    bad.eta[1].entries[0][0] = bad.eta[1].entries[0][0] + ONE
    assert not reps.verify_hg(reps.direct_sum([good, bad]))["ok"]


def nilpotency_index(rep):
    """Smallest k with (eta.p)^k = 0 identically in the direction p."""
    ring = PolyRing(("p1", "p2", "p3"))
    etap = dot(rep.eta, [ring.sym(n) for n in ring.names], ring)
    return next(k for k in range(1, rep.dim + 2) if (etap ** k).is_zero())


def test_nilpotency_indices():
    assert nilpotency_index(reps.build_text("D(3,1,1)")) == 3
    assert nilpotency_index(reps.build_text("D(1,2,1)")) == 3
    assert nilpotency_index(reps.build(reps.RepLabel("S2"))) == 2
    for text in ("D(1,1,0)", "D(1,1,1)", "D(2,1,0)", "D(2,1,1)", "D(2,2,1)", "D(2,0,0)"):
        assert nilpotency_index(reps.build_text(text)) == 2, text
    # eta = 0 carriers: the first power already vanishes
    assert nilpotency_index(reps.build(reps.RepLabel("S1"))) == 1


def test_eta_nilpotent_on_every_carrier():
    for key in reps.TABLE1:
        rep = reps.build(reps.RepLabel("D", *key))
        assert nilpotency_index(rep) <= rep.dim


def test_spin_blocks_satisfy_spin1_projector():
    # (S^2 - 2) S^2 = 0: eigenvalues of S^2 are 0 and 2 on these carriers
    for text in ("D(2,1,0)", "D(1,2,1)", "D(3,1,1)"):
        rep = reps.build_text(text)
        s2 = Matrix.zeros(rep.dim, rep.dim)
        for a in range(3):
            s2 = s2 + rep.S[a] @ rep.S[a]
        assert ((s2 - Matrix.identity(rep.dim) * GRat(2)) @ s2).is_zero()


def test_parse_labels():
    with pytest.raises(ValueError):
        reps.parse_label("D(9,9,9)")
    with pytest.raises(ValueError):
        reps.parse_label("Q1")
    labels = reps.parse_label("D(2,1,0)+D(0,1,0)")
    assert [str(l) for l in labels] == ["D(2,1,0)", "D(0,1,0)"]


def test_classification_small_pairs():
    found = reps.classify_bruteforce(pairs=[(0, 1), (1, 0), (1, 1), (1, 2)])
    expected = sorted(s for s in reps.table1_signatures() if (s[0], s[1]) in
                      {(0, 1), (1, 0), (1, 1), (1, 2)})
    assert found == expected
    assert len(found) == 5


def test_enumeration_guard():
    with pytest.raises(ValueError):
        reps.classify_bruteforce(pairs=[(4, 2)])  # 4 Jordan types x 3^16 cells
    # the guard counts the Jordan-type search, not 3^(n^2+2nm) plain triples
    assert reps.classify_bruteforce(pairs=[(4, 1), (5, 0)]) == []
    # a single candidate triple, but 2^12 12! signed permutations in its orbit
    with pytest.raises(UsageError, match="signed permutation pairs"):
        reps.classify_bruteforce(pairs=[(0, 12)])
    assert reps.classify_bruteforce(pairs=[(0, 5)]) == []


def test_table1_kept_by_endo_filter():
    for (n, m, lam), (A, B, C) in reps.TABLE1.items():
        if A is None:
            continue
        B0 = B if B is not None else Matrix.zeros(n, 0)
        C0 = C if C is not None else Matrix.zeros(0, n)
        assert reps._is_indecomposable(A, B0, C0, n, m), (n, m, lam)
    # a decomposable negative control: the zero triple at (1,1)
    z = Matrix.zeros(1, 1)
    assert not reps._is_indecomposable(z, z, z, 1, 1)


def test_trace_form_is_the_explicit_gram_matrix():
    z1, z2 = Matrix.zeros(1, 1), Matrix.zeros(2, 2)
    zeros = [((1, 1, 0), z1, z1, z1), ((2, 2, 0), z2, z2, z2)]  # decomposable
    for (n, m, _), A, B, C in [*_table1_triples(), *zeros]:
        mats = reps.endomorphisms(A, B, C, n, m)
        want = Matrix([[(X1 @ X2).trace() + (Y1 @ Y2).trace() for X2, Y2 in mats]
                       for X1, Y1 in mats])
        assert reps._trace_form(mats) == want, (n, m)


# -- the pruned rediscovery search ------------------------------------------------

@pytest.mark.parametrize("pair", [(0, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_partners_are_the_filtered_pairs_in_order(pair):
    # A^2 + BC = 0 entry by entry, with BC summed out here (m = 0 sums nothing)
    n, m = pair

    def closes(A, B, C):
        return all(sum(B[i][k] * C[k][j] for k in range(m)) == -sum(
            A[i][k] * A[k][j] for k in range(n)) for i in range(n) for j in range(n))

    for A in map(reps._jordan, reps._partitions(n)):
        _, on_c, partners = reps._abc_equations(A, m)
        cs = [C for C in reps._int_matrices(m, n) if on_c(C)]
        for B in reps._int_matrices(n, m):
            assert partners(B, set(cs)) == [C for C in cs if closes(A, B, C)], (A, B)


def _naive_signatures(n, m):
    """Every triple over {-1, 0, 1}: `_abc_ok`, then `_is_indecomposable`, no pruning."""
    def mats(rows, cols):
        for flat in itertools.product((-1, 0, 1), repeat=rows * cols):
            if rows == 0:
                yield Matrix.zeros(0, cols)
            else:
                yield Matrix.from_rational_rows(
                    [flat[i * cols:(i + 1) * cols] for i in range(rows)])

    found = set()
    for A in mats(n, n):
        for B in mats(n, m):
            for C in mats(m, n):
                if reps._abc_ok(A, B, C, n, m) and reps._is_indecomposable(A, B, C, n, m):
                    found.add(reps._signature(A, B, C, n, m))
    return found


@pytest.mark.parametrize("pair", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
def test_pruned_search_matches_naive_reference(pair):
    assert reps.classify_bruteforce(pairs=[pair]) == sorted(_naive_signatures(*pair))


def _rows(x):
    return tuple(map(tuple, x.entries))


def _table1_triples():
    for (n, m, lam), (A, B, C) in reps.TABLE1.items():
        if A is None:
            continue
        if B is None:
            m, B, C = 0, Matrix.zeros(n, 0), Matrix.zeros(0, n)
        yield (n, m, lam), A, B, C


def _assert_same_module_invariants(key, A, B, C, conjugates):
    n, m, _ = key
    sig = reps._signature(A, B, C, n, m)
    for A2, B2, C2 in conjugates:
        A2, B2, C2 = Matrix(A2, cols=n), Matrix(B2, cols=m), Matrix(C2, cols=n)
        assert reps._abc_ok(A2, B2, C2, n, m), (key, A2, B2, C2)
        assert reps._signature(A2, B2, C2, n, m) == sig, (key, A2, B2, C2)
        assert reps._is_indecomposable(A2, B2, C2, n, m), (key, A2, B2, C2)


def test_signed_permutation_conjugates_keep_the_invariants():
    rng = random.Random(6061)  # the seed of the sampled signed permutations
    checked = 0
    for key, A, B, C in _table1_triples():
        n, m, _ = key
        xs, ys = reps._signed_permutations(n), reps._signed_permutations(m)
        sample = [(rng.choice(xs), rng.choice(ys)) for _ in range(12)]
        conjugates = [(reps._permute(_rows(A), X, X), *bc) for X, Y in sample
                      for bc in reps._conjugates(_rows(B), _rows(C), [X], [Y])]
        _assert_same_module_invariants(key, A, B, C, conjugates)
        checked += len(conjugates)
    assert checked == 12 * 9


def test_stabiliser_orbit_keeps_the_invariants():
    # the orbit the search skips: X A X^-1 = A, every Y
    for key, A, B, C in _table1_triples():
        n, m, _ = key
        stabiliser = [X for X in reps._signed_permutations(n)
                      if reps._permute(_rows(A), X, X) == _rows(A)]
        orbit = reps._conjugates(_rows(B), _rows(C), stabiliser, reps._signed_permutations(m))
        assert (_rows(B), _rows(C)) in orbit
        _assert_same_module_invariants(key, A, B, C, [(_rows(A), *bc) for bc in orbit])


def _signed_permutation_matrix(X):
    q, t = X
    k = len(q)
    return Matrix.from_rational_rows(
        [[t[i] if j == q[i] else 0 for j in range(k)] for i in range(k)])


def test_permute_is_conjugation_by_signed_permutation_matrices():
    # X M Y^-1 with X, Y as explicit matrices; Y^-1 = Y^T
    rng = random.Random(6062)
    for n, m in ((2, 1), (3, 2)):
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n))
        for X in reps._signed_permutations(n)[::5]:
            for Y in reps._signed_permutations(m):
                want = (_signed_permutation_matrix(X) @ Matrix.from_rational_rows(M)
                        @ _signed_permutation_matrix(Y).T)
                assert Matrix.from_rational_rows(reps._permute(M, X, Y)) == want


# per pair: Jordan types of A, consistent triples on them, indecomposability tests run
FUNNELS = {
    (0, 1): (1, 1, 1),
    (1, 0): (1, 1, 1),
    (1, 1): (1, 5, 3),
    (1, 2): (1, 33, 6),
    (2, 0): (2, 2, 2),
    (2, 1): (2, 22, 8),
    (2, 2): (2, 450, 33),
    (3, 1): (3, 72, 15),
    (2, 3): (2, 13222, 134),
    (3, 2): (3, 4598, 109),
    (1, 3): (1, 245, 13),
    (4, 1): (4, 233, 26),
}


def test_classify_funnel_per_pair():
    for pair, funnel in FUNNELS.items():
        sigs, got = reps._classify_pair(*pair)
        assert tuple(got) == funnel, pair
        assert sigs == {s for s in reps.table1_signatures() if s[:2] == pair}, pair


def test_jordan_types_are_the_nilpotent_classes():
    # one A per partition of n into parts <= 3: 1, 2, 3, 4 types for n = 1..4,
    # each with A^3 = 0 and told apart by (rank A, rank A^2)
    for n, count in ((0, 1), (1, 1), (2, 2), (3, 3), (4, 4)):
        ranks = set()
        for parts in reps._partitions(n):
            A = reps._as_matrix(reps._jordan(parts), n)
            assert (A @ A @ A).is_zero(), parts
            ranks.add((rank(A), rank(A @ A)))
        assert len(ranks) == count, n


@pytest.mark.parametrize("pair", [(0, 2), (3, 0), (4, 0), (1, 3), (4, 1)])
def test_no_indecomposable_on_adjacent_pairs(pair):
    # the pairs next to Table 1 hold no indecomposable triple (B, C over {-1, 0, 1})
    assert reps._classify_pair(*pair)[0] == set()


def test_classify_bruteforce_loops_over_classify_pair(monkeypatch):
    seen = []
    original = reps._classify_pair

    def spy(n, m):
        seen.append((n, m))
        return original(n, m)

    monkeypatch.setattr(reps, "_classify_pair", spy)
    reps.classify_bruteforce(pairs=[(1, 1), (2, 0)])
    assert seen == [(1, 1), (2, 0)]


@pytest.mark.parametrize("key", sorted(reps.TABLE1))
def test_build_matches_the_sector_wise_carrier(key):
    from galilei.beta import carrier_for

    label = reps.RepLabel("D", *key)
    rep, car = reps.build(label), carrier_for([label]).representation()
    assert (rep.S, rep.eta) == (car.S, car.eta)
