"""Finite-dimensional homogeneous-Galilei representations.

Carriers are built from rotation generators S_a and commuting boost
generators eta_a with [S_a,S_b] = i eps_abc S_c, [eta_a,S_b] = i eps_abc
eta_c, [eta_a,eta_b] = 0.  The scalar/vector carriers come from triples
(A, B, C) with AB = 0, CA = 0, A^2 + BC = 0; the two spinor carriers are
fixed 2x2 / 4x4 realizations.

Label convention: the ten vector/scalar triples are keyed (n, m, lam).
The source tables disagree with their own later use for the two
(1,1,*) rows; this module follows the convention that makes the
equation tables consistent, i.e. D(1,1,0) has B = 1, C = 0 and
D(1,1,1) has B = 0, C = 1.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .scalars import GRat, ZERO, HALF, I, UsageError
from .matrix import Matrix, rank, nullspace, linear_kernel

EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


def eps(a, b, c) -> int:
    return EPS.get((a, b, c), 0)


def cross(u, v, mul=operator.mul) -> list:
    """(u x v)_a = mul(u_b, v_c) - mul(u_c, v_b) over cyclic (a, b, c)."""
    return [mul(u[b], v[c]) - mul(u[c], v[b]) for b, c in ((1, 2), (2, 0), (0, 1))]


# (s_a)_bc = -i eps_abc, the spin-1 matrices with [s_a,s_b] = i eps_abc s_c.
# (The opposite sign convention does not satisfy the commutation relation it
# is paired with, so it is not usable here.)  Built once and shared, as no
# caller writes to a returned matrix's entries.
SPIN1 = [Matrix([[-I * eps(a, b, c) for c in range(3)] for b in range(3)]) for a in range(3)]

# k_a: the 1x3 row with i in slot a
K_ROWS = [Matrix([[I if c == a else ZERO for c in range(3)]]) for a in range(3)]


def spin1_matrix(a: int) -> Matrix:
    """s_a, the shared ``SPIN1[a]``."""
    return SPIN1[a]


S1_SPIN = [Matrix([[ZERO, HALF], [HALF, ZERO]]),
           Matrix([[ZERO, -HALF * I], [HALF * I, ZERO]]),
           Matrix([[HALF, ZERO], [ZERO, -HALF]])]

PAULI = [m * 2 for m in S1_SPIN]


# (n, m, lam) -> (A, B, C); None marks a block that does not exist.
# B is n x m, C is m x n, A is n x n.
def _m(rows):
    return Matrix.from_rational_rows(rows)


TABLE1 = {
    (0, 1, 0): (None, None, None),
    (1, 0, 0): (_m([[0]]), None, None),
    (1, 1, 0): (_m([[0]]), _m([[1]]), _m([[0]])),
    (1, 1, 1): (_m([[0]]), _m([[0]]), _m([[1]])),
    (1, 2, 1): (_m([[0]]), _m([[1, 0]]), _m([[0], [1]])),
    (2, 0, 0): (_m([[0, 0], [1, 0]]), None, None),
    (2, 1, 0): (_m([[0, 0], [1, 0]]), _m([[0], [0]]), _m([[1, 0]])),
    # B must lie in ker A for AB = 0; (1,0)^T does not, (0,1)^T does.
    (2, 1, 1): (_m([[0, 0], [1, 0]]), _m([[0], [1]]), _m([[0, 0]])),
    (2, 2, 1): (
        _m([[0, 0], [1, 0]]),
        _m([[0, 0], [1, 0]]),
        _m([[0, 0], [1, 0]]),
    ),
    (3, 1, 1): (
        _m([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        _m([[0], [0], [-1]]),
        _m([[1, 0, 0]]),
    ),
}


@dataclass(frozen=True)
class RepLabel:
    kind: str  # "S1", "S2", or "D"
    n: int = 0
    m: int = 0
    lam: int = 0

    def __str__(self):
        if self.kind == "D":
            return f"D({self.n},{self.m},{self.lam})"
        return self.kind

    @property
    def dim(self) -> int:
        if self.kind == "S1":
            return 2
        if self.kind == "S2":
            return 4
        return 3 * self.n + self.m


def parse_label(text: str):
    """Parse "D(n,m,l)", "S1", "S2" or sums like "D(2,1,0)+D(0,1,0)"."""
    labels = []
    for piece in text.replace(" ", "").split("+"):
        if piece in ("S1", "S2"):
            labels.append(RepLabel(piece))
            continue
        mt = re.fullmatch(r"D\((\d+),(\d+),(\d+)\)", piece)
        if not mt:
            raise UsageError(f"bad representation label: {piece!r}")
        key = (int(mt.group(1)), int(mt.group(2)), int(mt.group(3)))
        if key not in TABLE1:
            raise UsageError(f"unknown representation label: {piece!r}")
        labels.append(RepLabel("D", *key))
    return labels


@dataclass
class Representation:
    """Carrier with explicit S_a and eta_a matrices.

    A single vector/scalar label is laid out triplets first, then
    scalars.  ``direct_sum`` keeps each summand contiguous, so every
    summand keeps its own block structure; ``beta.carrier_for`` instead
    lays a sum out sector-wise, all triplets of all summands first, then
    all scalars.
    """

    labels: tuple
    S: list
    eta: list

    @property
    def dim(self) -> int:
        return self.S[0].rows

    def __str__(self):
        return "+".join(str(l) for l in self.labels)


# -- the block layout of (A, B, C) carriers -------------------------------------


def triple(label: RepLabel):
    """(A, B, C) of a D label, with n x 0, 0 x n and 0 x 0 blocks where
    Table 1 has none."""
    A, B, C = TABLE1[(label.n, label.m, label.lam)]
    n, m = label.n, label.m
    return (A if A is not None else Matrix.zeros(0, 0),
            B if B is not None else Matrix.zeros(n, m),
            C if C is not None else Matrix.zeros(m, n))


def sector_sum(X: Matrix, T: Matrix, Y: Matrix) -> Matrix:
    """diag(X (x) T, Y): a triplet-sector block acting through T, a scalar one."""
    return Matrix.direct_sum([X.kron(T), Y])


def boost_blocks(X: Matrix, Y: Matrix, Z: Matrix, a: int, zero=ZERO) -> Matrix:
    """[[X (x) s_a, Y (x) k_a^H], [Z (x) k_a, 0]], the block pattern of eta_a
    for a triple (X, Y, Z) = (A, B, C) and of beta_a / i.

    Empty blocks (no triplets or no scalars on a side) need no special
    case: kron and block carry 0-row and 0-column shapes.  ``zero`` fills
    the scalar-scalar block.
    """
    ka = K_ROWS[a]
    return Matrix.block([[X.kron(spin1_matrix(a)), Y.kron(ka.H)],
                         [Z.kron(ka), Matrix.zeros(Z.rows, Y.cols, zero)]])


def build(label: RepLabel) -> Representation:
    if label.kind == "S1":
        return Representation((label,), list(S1_SPIN), [Matrix.zeros(2, 2) for _ in range(3)])
    if label.kind == "S2":
        S = [Matrix.direct_sum([s, s]) for s in S1_SPIN]
        half_i = GRat(0, Fraction(1, 2))
        eta = [
            Matrix.block(
                [
                    [Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
                    [sig * half_i, Matrix.zeros(2, 2)],
                ]
            )
            for sig in PAULI
        ]
        return Representation((label,), S, eta)
    if (label.n, label.m, label.lam) not in TABLE1:
        raise ValueError(f"unknown label {label}")
    A, B, C = triple(label)
    iden, zero_m = Matrix.identity(label.n), Matrix.zeros(label.m, label.m)
    return Representation((label,), [sector_sum(iden, spin1_matrix(a), zero_m) for a in range(3)],
                          [boost_blocks(A, B, C, a) for a in range(3)])


def direct_sum(reps) -> Representation:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    labels = tuple(l for r in reps for l in r.labels)
    S = [Matrix.direct_sum([r.S[a] for r in reps]) for a in range(3)]
    eta = [Matrix.direct_sum([r.eta[a] for r in reps]) for a in range(3)]
    return Representation(labels, S, eta)


def build_text(text: str) -> Representation:
    return direct_sum([build(l) for l in parse_label(text)])


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x @ y - y @ x


def verify_hg(rep: Representation) -> dict:
    """Check the nine hg(1,3) commutators exactly; list violations."""
    bad = []
    for a in range(3):
        for b in range(3):
            # [S_a, S_b] = i eps_abc S_c and [eta_a, S_b] = i eps_abc eta_c
            for kind, gens in (("S,S", rep.S), ("eta,S", rep.eta)):
                want = Matrix.zeros(rep.dim, rep.dim)
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        want = want + gens[c] * (I * e)
                if commutator(gens[a], rep.S[b]) != want:
                    bad.append((kind, a, b))
            if not commutator(rep.eta[a], rep.eta[b]).is_zero():
                bad.append(("eta,eta", a, b))
    return {"ok": not bad, "violations": bad}


# -- brute-force rediscovery of Table 1 ----------------------------------------

TABLE1_PAIRS = sorted({(n, m) for (n, m, _) in TABLE1})


def _mul(x, y):
    """Product of two matrices held as tuples of row tuples (int or GRat entries).

    The inner dimension must be nonzero: a product through an empty
    dimension has no rows to recover its width from.
    """
    cols = list(zip(*y))
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in x])


def _is_zero(x) -> bool:
    return not any(map(any, x))


def _abc_equations(A, m):
    """The consistency equations of a triple with this A, as two tests and
    a search.

    Returns (on_b, on_c, partners): AB = 0 and CA = 0 on matrices held as
    row tuples, and partners(B, cs), the C in the set cs with A^2 + BC = 0.
    Column j of such a C is a v in {-1, 0, 1}^m with Bv = -(A^2)_j, so
    partners computes Bv once per v, keeps the v that match each column
    and forms their products: no BC product per (B, C) pair.  It returns
    them sorted, which is the order of ``_int_matrices``: a tuple of row
    tuples compares like its row-major flattening, and -1 < 0 < 1.  With
    m = 0 the only v is () and Bv = 0.
    """
    vs = list(itertools.product((-1, 0, 1), repeat=m))
    targets = [tuple(-x for x in col) for col in zip(*_mul(A, A))]

    def partners(B, cs):
        images = {}
        for v in vs:
            images.setdefault(tuple([sum(map(operator.mul, row, v)) for row in B]), []).append(v)
        # zip(*cols) of no columns is (), where C is the m x 0 matrix ((),) * m
        found = (tuple(zip(*cols)) or ((),) * m
                 for cols in itertools.product(*[images.get(t, ()) for t in targets]))
        return sorted(C for C in found if C in cs)

    return ((lambda B: _is_zero(_mul(A, B))),
            (lambda C: _is_zero(_mul(C, A))),
            partners)


def _abc_ok(A, B, C, n, m):
    """Whether the Matrix triple satisfies the consistency equations, with
    BC multiplied out here rather than found by ``partners`` (when m = 0,
    BC has no inner dimension and A^2 = 0 is the test)."""
    A, B, C = (tuple(map(tuple, X.entries)) for X in (A, B, C))
    on_b, on_c, _ = _abc_equations(A, m)
    a2 = _mul(A, A)
    closed = _mul(B, C) == tuple(tuple(-x for x in row) for row in a2) if m else _is_zero(a2)
    return on_b(B) and on_c(C) and closed


def endomorphisms(A, B, C, n, m):
    """Basis of the endomorphism ring {(X, Y): XA = AX, XB = BY, YC = CX}
    of the module given by the triple (A, B, C), as (X, Y) pairs."""
    return linear_kernel(lambda X, Y: [X @ A - A @ X, X @ B - B @ Y, Y @ C - C @ X],
                         [(n, n), (m, m)])


def _is_indecomposable(A, B, C, n, m) -> bool:
    """Local endomorphism ring test, exact over the rationals.

    The module is indecomposable iff End/rad is one-dimensional; the
    radical is computed as the kernel of the trace form of the regular
    representation (characteristic zero).
    """
    mats = endomorphisms(A, B, C, n, m)
    dim_e = len(mats)
    if dim_e == 0:
        return False  # zero module
    if dim_e == 1:
        return True

    rad_dim = len(nullspace(_trace_form(mats)))
    return dim_e - rad_dim == 1


def _trace_form(mats):
    """Gram matrix of the trace form tr(xy) = tr(X1 X2) + tr(Y1 Y2) on a
    basis of (X, Y) pairs acting on the carrier pair; in char 0 its kernel
    is the radical.

    tr(XY) is the sum of X[a][b] Y[b][a], so the Gram matrix is one product
    F G^T, with row i of F the flat X_i, Y_i and row i of G the flat
    transposes; the product skips the zeros of these sparse bases.
    """
    def flat(X, Y):
        return [x for row in X.entries + Y.entries for x in row]

    F = Matrix([flat(X, Y) for X, Y in mats])
    G = Matrix([flat(X.T, Y.T) for X, Y in mats])
    return F @ G.T


def _signature(A, B, C, n, m):
    """The ranks of A, A^2, B, C, [A B] and [A; C] after the sizes (n, m);
    a rank over an empty shape is 0."""
    return (n, m, rank(A), rank(A @ A), rank(B), rank(C),
            rank(Matrix.block([[A, B]])), rank(Matrix.block([[A], [C]])))


def table1_signatures():
    """The ten invariant signatures computed from the embedded triples."""
    return {_signature(*triple(RepLabel("D", *key)), key[0], key[1]) for key in TABLE1}


def _signed_permutations(n):
    """Every n x n signed permutation X as (q, t): X has t[i] at (i, q[i])."""
    return [(q, t) for q in itertools.permutations(range(n))
            for t in itertools.product((1, -1), repeat=n)]


def _permute(M, X, Y):
    """X M Y^-1 for signed permutations X = (q, t), Y = (r, u), on row tuples.

    Y^-1 is the transpose of Y, so entry (i, j) is t[i] u[j] M[q[i]][r[j]].
    """
    (q, t), (r, u) = X, Y
    return tuple(tuple([s * w * row[j] for w, j in zip(u, r)])
                 for s, row in zip(t, map(M.__getitem__, q)))


def _conjugates(B, C, xs, ys):
    """The (X B Y^-1, Y C X^-1) for X in xs and Y in ys.

    With A, they are the conjugates (X A X^-1, X B Y^-1, Y C X^-1) of the
    triple (A, B, C); when every X in xs fixes A, A is unchanged.
    """
    return {(_permute(B, X, Y), _permute(C, Y, X)) for X in xs for Y in ys}


def _int_matrices(rows, cols):
    """Every rows x cols matrix over {-1, 0, 1}, as row tuples."""
    return [tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))
            for flat in itertools.product((-1, 0, 1), repeat=rows * cols)]


def _partitions(n, most=3):
    """The partitions of n into parts of at most ``most``, largest first."""
    if not n:
        yield ()
    for k in range(min(n, most), 0, -1):
        yield from ((k, *rest) for rest in _partitions(n - k, k))


def _jordan(parts):
    """The nilpotent Jordan matrix with blocks of these sizes, as row tuples:
    a 1 at (i, i - 1) wherever row i does not start a block."""
    starts = set(itertools.accumulate(parts, initial=0))
    n = sum(parts)
    return tuple(tuple(int(j == i - 1 and i not in starts) for j in range(n)) for i in range(n))


def _as_matrix(x, cols):
    return Matrix([[GRat(v) for v in row] for row in x], cols=cols)


Funnel = namedtuple("Funnel", "types consistent tested")
Funnel.__doc__ = """How far the candidates of one (n, m) pair got: Jordan types of A,
consistent triples on them, and indecomposability tests run."""


def _classify_pair(n, m):
    """The signatures of the indecomposable triples with A in Jordan form and
    B, C over {-1, 0, 1} for one (n, m) pair, and the pair's Funnel.

    AB = 0 and A^2 + BC = 0 give A^3 = -ABC = 0, so over the rationals
    X A X^-1 is a nilpotent Jordan matrix, blocks of size <= 3, for some
    invertible X, and (X A X^-1, X B, C X^-1) is an isomorphic triple: one
    A per partition of n into parts <= 3 loses no module.  The search
    still assumes that B and C then have entries in {-1, 0, 1}.

    One prune: a triple in the orbit (X B Y^-1, Y C X^-1), X a signed
    permutation fixing A and Y any signed permutation, of a tested triple
    is skipped; it is an isomorphic module over {-1, 0, 1}.  Nothing is
    cached by signature: signatures are not known to separate isomorphism
    classes.

    Which triple of an orbit is tested depends on the visiting order.
    Each B satisfying AB = 0 is taken in ``_int_matrices`` order, and its
    partners C come from ``_abc_equations``, which lists them column by
    column and then sorts them into that same order.  So the triples are
    visited exactly as by a test of every C against every B, and the
    skipped and tested triples and the Funnel are the same.
    """
    xs, ys = _signed_permutations(n), _signed_permutations(m)
    all_b, all_c = _int_matrices(n, m), _int_matrices(m, n)
    found = set()
    types = consistent = tested = 0
    for A in map(_jordan, _partitions(n)):
        types += 1
        # X A X^-1 = A for X in the stabiliser, so it maps triples on A to triples on A
        stabiliser = [X for X in xs if _permute(A, X, X) == A]
        seen = set()
        on_b, on_c, partners = _abc_equations(A, m)
        cs = set(filter(on_c, all_c))
        for B in filter(on_b, all_b):
            for C in partners(B, cs):
                consistent += 1
                if (B, C) in seen:
                    continue
                lifted = _as_matrix(A, n), _as_matrix(B, m), _as_matrix(C, n)
                sig = _signature(*lifted, n, m)
                # a repeat signature cannot change the result set
                if sig in found:
                    continue
                tested += 1
                seen |= _conjugates(B, C, stabiliser, ys)
                if _is_indecomposable(*lifted, n, m):
                    found.add(sig)
    return found, Funnel(types, consistent, tested)


# (Jordan types of n) 3^(2nm) pairs (B, C) over {-1, 0, 1} bound the candidates;
# the search lists each B's partners instead of visiting every pair, and on
# 2 vCPU (2,3) has 1.06M cells and takes 0.42 s, (3,2) 1.59M and 0.24 s, and
# (4,2), 172M, 3.6 s when _classify_pair is called directly.  2^(n+m) n! m!
# signed permutations (X, Y) bound each tested triple's orbit, and alone stop
# (0, m) pairs.
MAX_CELLS = 2_000_000
MAX_PERMUTATIONS = 10_000


def classify_bruteforce(pairs=None):
    """Search each (n,m) pair for the indecomposable triples (A, B, C) of the
    consistency equations (see ``_classify_pair``), and group them by
    invariant signature.

    Returns the sorted list of signatures found.  Every pair is checked
    before any is searched: each must be two sizes n, m >= 0 within
    ``MAX_CELLS`` and ``MAX_PERMUTATIONS``, else UsageError.
    """
    if pairs is None:
        pairs = TABLE1_PAIRS
    pairs = [tuple(p) for p in pairs]
    for p in pairs:
        if len(p) != 2 or min(p) < 0:
            raise UsageError(f"(n,m) pair {p} is not two sizes n, m >= 0")
        n, m = p
        cells = len(list(_partitions(n))) * 3 ** (2 * n * m)
        if cells > MAX_CELLS:
            raise UsageError(
                f"search for (n,m)=({n},{m}) needs {cells} cells "
                f"(limit {MAX_CELLS})"
            )
        perms = 2 ** (n + m) * factorial(n) * factorial(m)
        if perms > MAX_PERMUTATIONS:
            raise UsageError(f"orbit prune for (n,m)=({n},{m}) needs {perms} signed "
                             f"permutation pairs (limit {MAX_PERMUTATIONS})")
    found = set()
    for (n, m) in pairs:
        found |= _classify_pair(n, m)[0]
    return sorted(found)
