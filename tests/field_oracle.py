"""The F_p kernels as first written, the oracle of `pnoise.field`: a
row echelon form that scales every pivot row and eliminates by comprehension,
a column reduction through the transpose and `Mat.from_cols`, a product by a
generator sum, a pivot search by generator, and a span test that builds
the residue matrix."""

from pnoise.field import Mat, _inv


def row_echelon(m: Mat):
    """(reduced row echelon rows as list of lists, pivot column list)."""
    p = m.p
    a = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = _inv(a[r][c], p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return a, pivots


def column_reduce(m: Mat) -> Mat:
    """Canonical basis of the column space of m: the nonzero rows of the
    RREF of its transpose."""
    ech, pivots = row_echelon(m.transpose())
    vecs = [ech[i] for i in range(len(pivots))]
    return Mat.from_cols(vecs, m.rows, m.p)


def matmul(a: Mat, b: Mat) -> Mat:
    assert a.cols == b.rows and a.p == b.p
    p = a.p
    bt = list(zip(*b.data)) if b.rows else [()] * b.cols
    data = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
        for row in a.data)
    if not a.rows:
        data = ()
    return Mat(p, a.rows, b.cols, data)


def pivot_rows(basis: Mat) -> list:
    """The first nonzero row of each column of a canonical basis."""
    return [next(i for i, row in enumerate(basis.data) if row[j])
            for j in range(basis.cols)]


def residue(basis: Mat, other: Mat) -> Mat:
    if basis.cols == 0:
        return other
    top = Mat(other.p, basis.cols, other.cols,
              tuple(other.data[i] for i in pivot_rows(basis)))
    return other + -matmul(basis, top)


def span_contains(basis: Mat, other: Mat) -> bool:
    """Is colspan(other) inside colspan(basis), basis canonical?"""
    return residue(basis, other).is_zero()
