"""Dense matrices over an exact ring (GRat, Poly, or Weyl elements).

Entries of one matrix all live in the same ring.  Elimination-based
operations (rank, rref, nullspace) require field entries, i.e. GRat.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import GRat, ZERO, ONE, as_grat
from .poly import Poly, PolyRing


def _one_like(x):
    if isinstance(x, GRat):
        return ONE
    if hasattr(x, "algebra"):
        return x.algebra.one
    if hasattr(x, "ring"):
        return x.ring.one
    raise TypeError(f"no unit for {type(x)}")


def _zero_like(x):
    if isinstance(x, GRat):
        return ZERO
    if hasattr(x, "algebra"):
        return x.algebra.zero
    if hasattr(x, "ring"):
        return x.ring.zero
    raise TypeError(f"no zero for {type(x)}")


def _lifter(target):
    """The map sending one entry into ``target``, a PolyRing or a WeylAlgebra.

    A scalar goes through ``target.const``; a Poly is re-expressed by
    ``map_to`` in the target's coefficient ring (``params`` for an
    algebra), so a symbol missing there raises ValueError; an element of
    ``target`` is kept; a zero becomes ``target.zero``.  Algebra elements
    are told apart by their ``algebra`` attribute, so this module does
    not import ``weyl``.
    """
    ring = getattr(target, "params", target)
    zero, const = target.zero, target.const

    def entry(x):
        kind = type(x)
        if kind is Poly:
            if not x:
                return zero
            if x.ring is not ring:
                x = x.map_to(ring)
            return x if ring is target else const(x)
        if kind is not GRat and hasattr(x, "algebra"):
            if x.algebra is not target and x.algebra != target:
                raise ValueError("entry from a foreign Weyl algebra")
            return x
        return const(x) if x else zero

    return entry


class Matrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [list(r) for r in entries]
        if entries:
            w = len(entries[0])
            if any(len(r) != w for r in entries):
                raise ValueError("ragged matrix")
        self.entries = entries
        self.rows = len(entries)
        # empty matrices still need a column count for shape algebra
        self.cols = len(entries[0]) if entries else (cols or 0)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(rows, cols, zero=ZERO):
        if rows == 0:
            return Matrix([], cols=cols)
        return Matrix([[zero] * cols for _ in range(rows)])

    @staticmethod
    def identity(n, one=ONE, zero=ZERO):
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rational_rows(rows):
        return Matrix([[as_grat(x) for x in r] for r in rows])

    def map(self, f) -> "Matrix":
        return Matrix([[f(x) for x in r] for r in self.entries], cols=self.cols)

    def lift(self, target) -> "Matrix":
        """This matrix over ``target``, a PolyRing or a WeylAlgebra (see
        ``_lifter``)."""
        return self.map(_lifter(target))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    # -- algebra ------------------------------------------------------------

    def _entrywise(self, other, op):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} and {other.shape}")
        rows = [list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)]
        return Matrix(rows, cols=self.cols)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return self.map(lambda x: -x)

    def __mul__(self, c):
        """Scalar multiple (scalar on the right to keep ring order sane)."""
        return self.map(lambda x: x * c)

    def __rmul__(self, c):
        return self.map(lambda x: c * x)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            z = ZERO
            if self.rows and self.cols:
                z = _zero_like(self.entries[0][0])
            elif other.rows and other.cols:
                z = _zero_like(other.entries[0][0])
            return Matrix.zeros(self.rows, other.cols, z)
        zero = _zero_like(self.entries[0][0])
        nc = other.cols
        brows = other.entries
        out = []
        for r in self.entries:
            # skip zero left factors; these matrices are usually sparse
            nz = [(k, a) for k, a in enumerate(r) if a]
            row = [zero] * nc
            for k, a in nz:
                brow = brows[k]
                for j, b in enumerate(brow):
                    if b:
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix(out, cols=nc)

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def T(self) -> "Matrix":
        if self.rows == 0:
            return Matrix([[] for _ in range(self.cols)], cols=0) if self.cols else Matrix([])
        if self.cols == 0:
            return Matrix([], cols=self.rows)
        return Matrix(list(map(list, zip(*self.entries))))

    @property
    def H(self) -> "Matrix":
        """Conjugate transpose."""
        return self.T.map(lambda x: x.conjugate())

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; dims multiply."""
        if self.rows == 0 or other.rows == 0:
            return Matrix.zeros(self.rows * other.rows, self.cols * other.cols)
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return Matrix(out)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = self.entries[0][0] if self.rows else ZERO  # the empty sum
        for k in range(1, self.rows):
            acc = acc + self.entries[k][k]
        return acc

    def __pow__(self, k: int):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = Matrix.identity(
            self.rows,
            _one_like(self.entries[0][0]) if self.rows else ONE,
            _zero_like(self.entries[0][0]) if self.rows else ZERO,
        )
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    # -- block building -----------------------------------------------------

    @staticmethod
    def block(blocks) -> "Matrix":
        """Assemble from a 2D grid of matrices (shapes must tile)."""
        out = []
        width = None
        for brow in blocks:
            if not brow:
                continue
            width = sum(b.cols for b in brow)
            h = brow[0].rows
            for i in range(h):
                row = []
                for b in brow:
                    row.extend(b.entries[i])
                out.append(row)
        return Matrix(out, cols=width)

    @staticmethod
    def direct_sum(mats) -> "Matrix":
        mats = list(mats)
        zero = ZERO
        for m in mats:
            if m.rows and m.cols:
                zero = _zero_like(m.entries[0][0])
                break
        n = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        out = [[zero] * c for _ in range(n)]
        i0 = j0 = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    out[i0 + i][j0 + j] = m.entries[i][j]
            i0 += m.rows
            j0 += m.cols
        return Matrix(out, cols=c)

    def submatrix(self, rows, cols) -> "Matrix":
        return Matrix([[self.entries[i][j] for j in cols] for i in rows])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.entries) + "]"

    __repr__ = __str__


# -- elimination over the GRat field ------------------------------------------


def _sparse(row) -> dict:
    """A dense row as {col: value} over its nonzero entries."""
    return {k: x for k, x in enumerate(row) if x}


def _subtract(row, f, other):
    """row -= f * other on sparse rows, in place, dropping the zeros it makes."""
    for k, y in other.items():
        x = row.get(k, ZERO) - f * y
        if x:
            row[k] = x
        else:
            del row[k]


class _Echelon:
    """Sparse GRat rows {col: value} in reduced row echelon form: ``rows``
    maps each pivot column to a row that is 1 there, 0 in every other pivot
    column and 0 left of its pivot.  The reduced echelon form of a row
    space is unique, so it does not depend on the order rows are added."""

    def __init__(self, width, rows=()):
        self.width = width
        self.rows = {}
        for row in rows:
            self.add(row)

    def reduce(self, row) -> dict:
        """The residue of ``row`` modulo the held rows, empty iff it lies in
        their span.  One pass is enough: subtracting a held row clears its
        pivot and leaves the row's other pivot entries as they were."""
        row = dict(row)
        for c in [c for c in row if c in self.rows]:
            _subtract(row, row[c], self.rows[c])
        return row

    def add(self, row) -> bool:
        """Hold ``row``'s residue, if nonzero, as a new row: scaled to 1 at
        its first column, which is cleared from the rows already held."""
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        inv = row[c].inverse()
        row = {k: x * inv for k, x in row.items()}
        for r in self.rows.values():
            if c in r:
                _subtract(r, r[c], row)
        self.rows[c] = row
        return True

    def rref(self):
        """(R, pivot_columns): the held rows as a dense matrix, by pivot."""
        pivots = sorted(self.rows)
        return Matrix([[self.rows[c].get(k, ZERO) for k in range(self.width)]
                       for c in pivots], cols=self.width), pivots


def rref(m: Matrix):
    """Reduced row echelon form without its zero rows; returns
    (R, pivot_columns)."""
    return _Echelon(m.cols, map(_sparse, m.entries)).rref()


def rank(m: Matrix) -> int:
    """Exact rank: the number of pivots of ``rref`` (field entries)."""
    return len(rref(m)[1])


def _kernel(R: Matrix, pivots):
    """The canonical right-nullspace basis of a reduced echelon form: for
    each free column f, 1 at f and minus column f of R at the pivots."""
    basis = []
    for f in [c for c in range(R.cols) if c not in pivots]:
        v = [ZERO] * R.cols
        v[f] = ONE
        for row, c in zip(R.entries, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def nullspace(m: Matrix):
    """Exact right-nullspace basis as a list of column tuples (canonical)."""
    return _kernel(*rref(m))


def canonical_span(vectors, dim: int):
    """Unique reduced basis (rref rows) spanning the given vectors."""
    return rref(Matrix([list(v) for v in vectors], cols=dim))[0]


class SubspaceBasis:
    """A subspace of GRat^dim, held in canonical reduced echelon form."""

    def __init__(self, dim: int, vectors):
        self.dim = dim
        self._echelon = _Echelon(dim, map(_sparse, vectors))
        self.basis = self._echelon.rref()[0]

    @property
    def dimension(self) -> int:
        return self.basis.rows

    def contains(self, vec) -> bool:
        """Membership: the vector's residue modulo the echelon is zero."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.dim}")
        return not self._echelon.reduce(_sparse(v))

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, rank={self.dimension})"


def _coefficient_rows(p):
    """Real and imaginary coefficient rows {col: GRat} of a linear form."""
    if not isinstance(p, Poly):
        raise ValueError(f"affine term {p} in a homogeneous linear equation")
    re_row, im_row = {}, {}
    for e, c in p.terms.items():
        idx = [k for k, pw in enumerate(e) if pw]
        if not idx:
            raise ValueError(f"affine term {c} in a homogeneous linear equation")
        if len(idx) != 1 or e[idx[0]] != 1:
            raise ValueError(f"nonlinear term in a linear equation: {p}")
        for row, part in zip((re_row, im_row), c.re_im()):
            if part:
                row[idx[0]] = part
    return re_row, im_row


def linear_kernel(apply, shapes):
    """Basis of the real solutions of the linear matrix equation apply(*X) = 0.

    X is a tuple of real matrices, X[k] of shape shapes[k]; ``apply``
    returns an iterable of matrices that must all vanish and must be
    homogeneous linear in the entries of X.  It is evaluated once, on
    symbolic blocks over a PolyRing of the unknowns; every nonzero
    residual entry contributes its real and its imaginary coefficient
    row (ValueError if it is not linear).  Returns the canonical
    nullspace basis, each vector unflattened into a tuple of GRat
    matrices of the given shapes.
    """
    width = sum(r * c for r, c in shapes)
    if not width:
        return []
    ring = PolyRing([f"x{k}_{i}_{j}" for k, (r, c) in enumerate(shapes)
                     for i in range(r) for j in range(c)])
    echelon = _Echelon(width)
    for resid in apply(*_unflatten([ring.sym(n) for n in ring.names], shapes)):
        for row in resid.entries:
            for p in row:
                if p:
                    for coeffs in _coefficient_rows(p):
                        echelon.add(coeffs)
    return [_unflatten(v, shapes) for v in _kernel(*echelon.rref())]


def _unflatten(vec, shapes):
    """Row-major split of a flat sequence into matrices of the given shapes."""
    out = []
    k = 0
    for r, c in shapes:
        out.append(Matrix([vec[k + i * c:k + (i + 1) * c] for i in range(r)], cols=c))
        k += r * c
    return tuple(out)


def det(m: Matrix):
    """Determinant by expansion with subset memoisation (small matrices).

    Works over any commutative entry ring (GRat or Poly).
    """
    if m.rows != m.cols:
        raise ValueError("det of non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    zero = _zero_like(m.entries[0][0])
    # memo[mask] = det of submatrix using rows [n-popcount..] and columns in mask
    memo = {0: _one_like(m.entries[0][0])}
    full = (1 << n) - 1

    def rec(mask, row):
        if mask in memo:
            return memo[mask]
        acc = zero
        j = 0  # position of column c among the set bits of mask
        for c in range(n):
            bit = 1 << c
            if not (mask & bit):
                continue
            e = m.entries[row][c]
            if e:
                sub = rec(mask ^ bit, row + 1)
                term = e * sub
                acc = acc + term if j % 2 == 0 else acc - term
            j += 1
        memo[mask] = acc
        return acc

    return rec(full, 0)


class NotNilpotentError(ValueError):
    """An exponential series that had to terminate did not."""


# powers tried by a cut series before it gives up
_CUT_ORDER = 39


def nilpotent_exp(n: Matrix, t=None, cut=None) -> Matrix:
    """exp(t*n) as the exact finite sum of (t*n)^k / k!.

    The series stops at the first zero power.  Without ``cut``, n must be
    nilpotent: over a field, or over a domain such as the Weyl algebra
    (which embeds in a skew field), a nilpotent d x d matrix has n^d = 0,
    so a nonzero power d + 1 shows n is not nilpotent.  ``cut`` is a map
    applied to every entry of each power, such as a truncation to a window
    of small parameters; the series then stops at the first power the cut
    sends to zero.  Raises NotNilpotentError when the powers do not vanish.
    """
    one = _one_like(n.entries[0][0]) if n.rows else ONE
    zero = _zero_like(n.entries[0][0]) if n.rows else ZERO
    tn = n if t is None else n.map(lambda x: x * t)
    out = Matrix.identity(n.rows, one, zero)
    power = out
    fact = 1
    for k in range(1, (n.rows + 1 if cut is None else _CUT_ORDER) + 1):
        power = power @ tn
        if cut is not None:
            power = power.map(cut)
        if power.is_zero():
            return out
        fact *= k
        out = out + power.map(lambda x: x * GRat(Fraction(1, fact)))
    if cut is None:
        raise NotNilpotentError(
            f"matrix is not nilpotent: power {n.rows + 1} still nonzero "
            f"(checked up to dimension {n.rows})"
        )
    raise NotNilpotentError("truncated exponential did not terminate; widen the caps")


def dot(mats, coeffs, target) -> Matrix:
    """sum_k mats[k] * coeffs[k] over ``target``, for a nonempty ``mats``.

    One pass over the nonzero entries: each is lifted (``_lifter``) and,
    where its coefficient is nonzero, multiplied by it and added into a
    grid of ``target.zero``, so an entry no term reaches is
    ``target.zero`` itself.  The entries of a matrix whose coefficient is
    zero are still lifted, so they raise as ``Matrix.lift`` does.
    """
    rows, cols = mats[0].shape
    entry = _lifter(target)
    out = [[target.zero] * cols for _ in range(rows)]
    for mat, c in zip(mats, coeffs):
        if mat.shape != (rows, cols):
            raise ValueError(f"shape mismatch: {(rows, cols)} and {mat.shape}")
        for src, row in zip(mat.entries, out):
            for j, x in enumerate(src):
                if x:
                    x = entry(x)
                    if c:
                        row[j] = row[j] + x * c
    return Matrix(out, cols=cols)


def evaluate_matrix(m: Matrix, assignment: dict) -> Matrix:
    """Evaluate a Poly matrix at a rational point, yielding a GRat matrix."""
    return m.map(lambda p: p.eval(assignment) if hasattr(p, "eval") else p)
