"""Exact dense linear algebra over a prime field F_p.

Matrices are tuple-of-tuples (row major) and carry their modulus. They are
immutable by convention: every record class of the package is a plain
`__slots__` class deriving from `record.Record`, which gives it equality,
hash and repr from its fields. No guard stops assignment, so construction
stays cheap, and no code assigns to a record's field after `__init__`.
Everything downstream (edge maps, naturality systems, subspace enumeration)
runs through this module, so the pivot rule is fixed once and for all:
first nonzero entry in column order, no tie breaking needed since the
arithmetic is exact.
"""

from __future__ import annotations

import os
from operator import mul

from .errors import DependentBasis, Infeasible
from .record import Record

DEFAULT_PRIME = 2


def is_prime(p) -> bool:
    """Is p a prime integer? Everything here computes over F_p, and `_inv`
    is an inverse only when p is prime."""
    return isinstance(p, int) and p >= 2 and \
        all(p % q for q in range(2, int(p ** 0.5) + 1))


def default_prime() -> int:
    """Session default prime; PNOISE_FIELD overrides."""
    raw = os.environ.get("PNOISE_FIELD")
    if raw is None:
        return DEFAULT_PRIME
    p = int(raw)
    if not is_prime(p):
        raise ValueError(f"PNOISE_FIELD={raw} is not prime")
    return p


def _inv(a: int, p: int) -> int:
    return pow(a, p - 2, p)


class Mat(Record):
    """A rows x cols matrix over F_p. Immutable by convention."""
    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p, rows, cols, data):
        self.p = p
        self.rows = rows
        self.cols = cols
        self.data = data  # tuple of row tuples, entries in [0, p)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows, p):
        data = tuple(tuple(int(x) % p for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return Mat(p, r, c, data)

    @staticmethod
    def from_cols(cols, nrows, p):
        cols = list(cols)
        return Mat(p, nrows, len(cols),
                   tuple(tuple(int(col[i]) % p for col in cols) for i in range(nrows)))

    @staticmethod
    def identity(n, p):
        return Mat(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)))

    @staticmethod
    def zeros(rows, cols, p):
        return Mat(p, rows, cols, tuple((0,) * cols for _ in range(rows)))

    # -- basics ------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        assert self.cols == other.rows and self.p == other.p
        p = self.p
        cols = list(zip(*other.data)) if other.rows else [()] * other.cols
        return Mat(p, self.rows, other.cols, tuple(
            tuple(sum(map(mul, row, col)) % p for col in cols)
            for row in self.data))

    def __add__(self, other: "Mat") -> "Mat":
        assert (self.rows, self.cols, self.p) == (other.rows, other.cols, other.p)
        return Mat(self.p, self.rows, self.cols,
                   tuple(tuple((a + b) % self.p for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def __neg__(self) -> "Mat":
        return self.scale(self.p - 1)

    def scale(self, c: int) -> "Mat":
        c %= self.p
        return Mat(self.p, self.rows, self.cols,
                   tuple(tuple((c * a) % self.p for a in row) for row in self.data))

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def apply(self, vec) -> tuple:
        """Matrix-vector product."""
        assert len(vec) == self.cols
        p = self.p
        return tuple(sum(map(mul, row, vec)) % p for row in self.data)

    def transpose(self) -> "Mat":
        return Mat(self.p, self.cols, self.rows, tuple(zip(*self.data)) if self.rows
                   else tuple(() for _ in range(self.cols)))

    def hstack(self, other: "Mat") -> "Mat":
        assert self.rows == other.rows and self.p == other.p
        return Mat(self.p, self.rows, self.cols + other.cols,
                   tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)))

    def vstack(self, other: "Mat") -> "Mat":
        assert self.cols == other.cols and self.p == other.p
        return Mat(self.p, self.rows + other.rows, self.cols, self.data + other.data)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)


def block_diag(mats, p):
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    data = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            for j, a in enumerate(row):
                data[r0 + i][c0 + j] = a
        r0 += m.rows
        c0 += m.cols
    return Mat(p, rows, cols, tuple(tuple(r) for r in data))


# -- elimination -----------------------------------------------------------

def _reduce(a, ncols, p):
    """Bring the rows a, lists of entries in [0, p), to reduced row echelon
    form in place, and return the pivot columns. A pivot of 1 is not scaled,
    and a row with 0 in the pivot column is not touched."""
    pivots, n, r = [], len(a), 0
    for c in range(ncols):
        for i in range(r, n):
            if a[i][c]:
                break
        else:
            continue
        row = a[i]
        a[i] = a[r]
        if row[c] != 1:
            inv = _inv(row[c], p)
            row = [x * inv % p for x in row]
        a[r] = row
        for i in range(n):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def _row_echelon(m: Mat):
    """Return (reduced row echelon rows as list of lists, pivot column list)."""
    a = [list(row) for row in m.data]
    return a, _reduce(a, m.cols, m.p)


def rank(m: Mat) -> int:
    return len(_row_echelon(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of ker(m)."""
    p = m.p
    ech, pivots = _row_echelon(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-ech[r][fc]) % p
        cols.append(v)
    return Mat.from_cols(cols, m.cols, p)


def solve(m: Mat, b: Mat) -> Mat:
    """One solution x of m @ x == b (column-wise), or raise Infeasible."""
    assert m.rows == b.rows and m.p == b.p
    aug = m.hstack(b)
    ech, pivots = _row_echelon(aug)
    if any(c >= m.cols for c in pivots):
        raise Infeasible("b not in the column span")
    cols = []
    for k in range(b.cols):
        v = [0] * m.cols
        for r, pc in enumerate(pivots):
            v[pc] = ech[r][m.cols + k]
        cols.append(v)
    return Mat.from_cols(cols, m.cols, m.p)


def solvable(m: Mat, b: Mat) -> bool:
    try:
        solve(m, b)
        return True
    except Infeasible:
        return False


def column_reduce(m: Mat) -> Mat:
    """Canonical basis of the column space of m (`span_basis` of its
    columns)."""
    return span_basis(zip(*m.data), m.rows, m.p)


def span_basis(vecs, n, p) -> Mat:
    """Canonical basis of the span of the vectors vecs of F_p^n, entries in
    [0, p).

    Row-reduce the vectors as rows; the nonzero rows of that RREF are a
    canonical basis of their span. Deterministic, so two equal subspaces
    always get identical bases.
    """
    a = [list(x) for x in vecs]
    k = len(_reduce(a, n, p))
    return Mat(p, n, k, tuple(zip(*a[:k])) if k else ((),) * n)


def quotient_map(sub_basis: Mat, ambient_dim: int) -> Mat:
    """Surjection q: F_p^ambient -> F_p^(ambient-k) with ker q == span(sub_basis)."""
    p = sub_basis.p
    assert sub_basis.rows == ambient_dim
    if rank(sub_basis) != sub_basis.cols:
        raise DependentBasis("sub_basis columns are dependent")
    # Rows of q: basis of the left kernel of sub_basis.
    left = kernel_basis(sub_basis.transpose())
    q = left.transpose()
    assert q.rows == ambient_dim - sub_basis.cols
    return q


def pivot_rows(basis: Mat) -> list:
    """The pivot row of each column of a canonical basis (column_reduce
    form): its first nonzero entry, which is 1 and the only nonzero entry
    of that row."""
    return [col.index(1) for col in zip(*basis.data)]


def residue(basis: Mat, other: Mat) -> Mat:
    """other minus its component along colspan(basis), for a canonical
    basis: the component is read off the pivot rows, so other @ x lies in
    colspan(basis) exactly when residue(basis, other) @ x is zero."""
    if basis.cols == 0:
        return other
    top = Mat(other.p, basis.cols, other.cols,
              tuple(other.data[i] for i in pivot_rows(basis)))
    return other + -(basis @ top)


def span_contains(basis: Mat, other: Mat) -> bool:
    """Is colspan(other) inside colspan(basis)? basis must be canonical
    (column_reduce form); no elimination is done. Each column's residue
    (`residue`) is read off the pivot rows, where it is 0, up to its first
    nonzero entry."""
    if basis.cols == 0:
        return not any(map(any, other.data))
    p, pivots = basis.p, pivot_rows(basis)
    rest = [(i, row) for i, row in enumerate(basis.data) if i not in pivots]
    for col in zip(*other.data):
        top = [col[i] for i in pivots]
        for i, row in rest:
            if (col[i] - sum(map(mul, row, top))) % p:
                return False
    return True


def in_span(basis: Mat, vec) -> bool:
    """Is vec in the column span of basis?"""
    return solvable(basis, Mat.from_cols([vec], basis.rows, basis.p))
