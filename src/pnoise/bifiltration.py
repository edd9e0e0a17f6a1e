"""Two-parameter H0 modules from weighted point clouds.

At grid point (i, j) the complex has the points whose density value is at
most density_grid[j] as vertices and an edge between every vertex pair at
distance at most scale_grid[i].  F(i, j) is the free space on the connected
components; the edge maps merge components.  Distances compare exactly via
squared Euclidean distance over Fraction, so thresholds in scale_grid are
interpreted as squared distances when `points` are coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyGrid
from .field import Mat, is_prime
from .grid import GridModule, make_module


def _pairwise_sq_dist(points):
    pts = [tuple(Fraction(c) for c in row) for row in points]
    n = len(pts)
    d = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            s = sum((x - y) ** 2 for x, y in zip(pts[a], pts[b]))
            d[a][b] = d[b][a] = s
    return d


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _components(alive, dist, scale):
    uf = _UnionFind(len(alive))
    idx = [k for k, on in enumerate(alive) if on]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if dist[idx[a]][idx[b]] <= scale:
                uf.union(idx[a], idx[b])
    reps = []
    label = {}
    for k in idx:
        root = uf.find(k)
        if root not in label:
            label[root] = len(reps)
            reps.append(root)
    return [label[uf.find(k)] if alive[k] else None
            for k in range(len(alive))], len(reps)


def build_h0(points=None, density=None, scale_grid=(), density_grid=(),
             p=2, alpha=Fraction(1), distances=None) -> GridModule:
    """Assemble the H0 bifiltration module on the (scale, density) grid."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if distances is None:
        if points is None:
            raise ValueError("need points or a distance matrix")
        distances = _pairwise_sq_dist(points)
        npts = len(points)
    else:
        distances = [[Fraction(x) for x in row] for row in distances]
        npts = len(distances)
    scale_grid = [Fraction(s) for s in scale_grid]
    density_grid = [Fraction(s) for s in density_grid]
    if not scale_grid or not density_grid:
        raise EmptyGrid("scale and density grids must be nonempty")
    if any(b <= a for a, b in zip(scale_grid, scale_grid[1:])) or \
            any(b <= a for a, b in zip(density_grid, density_grid[1:])):
        raise ValueError("threshold grids must be strictly increasing")
    density = [Fraction(x) for x in (density or [0] * npts)]
    if len(density) != npts:
        raise ValueError("density length must match the point count")

    box = max(len(scale_grid), len(density_grid)) - 1
    # clamp threshold lookups to the last grid entry (stabilized tail)
    def scale_at(i):
        return scale_grid[min(i, len(scale_grid) - 1)]

    def dens_at(j):
        return density_grid[min(j, len(density_grid) - 1)]

    labels, counts = {}, {}
    for i in range(box + 1):
        for j in range(box + 1):
            alive = [density[k] <= dens_at(j) for k in range(npts)]
            labels[(i, j)], counts[(i, j)] = \
                _components(alive, distances, scale_at(i))

    dims = {v: counts[v] for v in labels}
    edges = {}
    for (i, j), lab in labels.items():
        for axis, w in (((0), (i + 1, j)), ((1), (i, j + 1))):
            if w[0] > box or w[1] > box:
                continue
            rows = [[0] * counts[(i, j)] for _ in range(counts[w])]
            for k in range(npts):
                if lab[k] is not None:
                    rows[labels[w][k]][lab[k]] = 1
            edges[((i, j), axis)] = Mat.from_rows(rows, p) if rows else \
                Mat.zeros(0, counts[(i, j)], p)
    return make_module(2, Fraction(alpha), box, p, dims, edges)
