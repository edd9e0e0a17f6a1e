"""Worked-example modules used by the demos and the acceptance tests.

Everything here is a plain GridModule built from small explicit data:
one-parameter modules with interesting barcodes, staircase-shaped planar
modules whose minimal denoisings are (non-)unique, a three-dimensional
module where no generator subset realizes the minimal rank, and the
union-of-axes / two-bar configurations that show why noise directions must
form a cone.
"""

from __future__ import annotations

from fractions import Fraction as Q

from . import field as fp
from .field import Mat
from .grid import (GridModule, add, box_points, indicator_module, leq,
                   make_module, unit)
from .structure import (minimal_generators, span_submodule,
                        submodule_to_module)


def line_module():
    """Rank-4 one-parameter module over F_3 with bars [0,1), [0,2), [2,3)
    and one infinite summand."""
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    return make_module(1, Q(1), 4, 3, dims, edges)


def hook_module(box=2, p=2):
    """Dimension 1 everywhere except the origin; two generators whose
    images merge immediately."""
    return indicator_module(lambda v: any(v), box, p, 2)


def region_module(gens, box, p=2):
    """K on the union of the up-sets of the given generator grades."""
    gens = [tuple(g) for g in gens]
    return indicator_module(
        lambda v: any(leq(g, v) for g in gens), box, p, len(gens[0]))


def staircase_module():
    """Rank-4 staircase; its minimal rank-2 denoising at level 2 is the
    unique inclusion-minimal one."""
    return region_module([(0, 3), (1, 2), (2, 1), (3, 0)], 3)


def wide_staircase_module():
    """Rank-4 staircase with two distinct inclusion-minimal rank-2
    denoisings at level 2."""
    return region_module([(0, 3), (1, 2), (3, 1), (5, 0)], 5)


def corner_complement(w, box, alpha, p, r):
    """K everywhere except on the up-set of the rational point w."""
    w = tuple(Q(c) for c in w)
    return indicator_module(
        lambda v: not all(Q(alpha) * c >= wi for c, wi in zip(v, w)),
        box, p, r, Q(alpha))


def band_union(box=3, p=2):
    """K on {v1 < 1 or v2 < 1}: in diagonal-cone noise at level 1, yet in
    neither single-axis cone at any level."""
    return indicator_module(lambda v: v[0] < 1 or v[1] < 1, box, p, 2)


def two_bar_modules():
    """The pair whose direct sum escapes Cone((1,0,1),(1/2,1,0)) at level 1
    even though both summands sit inside it."""
    A = corner_complement((1, 0, 1), 3, Q(1, 2), 2, 3)
    B = corner_complement((Q(1, 2), 1, 0), 3, Q(1, 2), 2, 3)
    return A, B


def plane_example_module():
    """Planar module of rank 2 (over F_2) where neither generator spans a
    1-close subfunctor but the element (1,0) at (1,1) does."""
    p = 2
    dims = {(1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1,
            (0, 2): 1, (1, 2): 1}
    edges = {((1, 0), 0): Mat.identity(1, p),
             ((1, 0), 1): Mat.from_cols([(1, 1)], 2, p),
             ((2, 0), 1): Mat.identity(1, p),
             ((0, 1), 0): Mat.from_cols([(0, 1)], 2, p),
             ((1, 1), 0): Mat.from_rows([[1, 0]], p),
             ((0, 1), 1): Mat.identity(1, p),
             ((1, 1), 1): Mat.from_rows([[1, 1]], p),
             ((0, 2), 0): Mat.identity(1, p)}
    return make_module(2, Q(1), 2, p, dims, edges)


# -- three-dimensional example via a pointwise colimit ---------------------


def _space_seed_diagram():
    """The printed commutative diagram on {v <= (1,1,1)} plus the three
    outer corners, over F_3."""
    p = 3
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    p12, p23, p13 = (1, 1, 0), (0, 1, 1), (1, 0, 1)
    top = (1, 1, 1)
    o1, o2, o3 = (2, 1, 1), (1, 2, 1), (1, 1, 2)
    dims = {(0, 0, 0): 0, e1: 1, e2: 1, e3: 1, p12: 2, p23: 2, p13: 2,
            top: 3, o1: 3, o2: 3, o3: 3}
    E = {(e1, p12): [[1], [0]], (e2, p12): [[0], [1]],
         (e2, p23): [[0], [1]], (e3, p23): [[1], [0]],
         (e1, p13): [[0], [1]], (e3, p13): [[1], [0]],
         (p12, top): [[1, 0], [0, 1], [0, 0]],
         (p23, top): [[0, 0], [0, 1], [1, 0]],
         (p13, top): [[0, 1], [0, 0], [1, 0]],
         (top, o1): [[1, 1, 0], [1, 0, 1], [0, 0, 0]],
         (top, o2): [[1, 1, 0], [0, 1, 1], [0, 0, 0]],
         (top, o3): [[1, 0, 1], [0, 1, 1], [0, 0, 0]]}
    covers = {k: Mat.from_rows(v, p) for k, v in E.items()}
    return p, dims, covers


def _poset_maps(dims, covers, p):
    """All composite maps between comparable points of the seed poset."""
    pts = sorted(dims, key=lambda v: (sum(v), v))
    maps = {(v, v): Mat.identity(dims[v], p) for v in pts}
    for (a, b), m in covers.items():
        maps[(a, b)] = m
    changed = True
    while changed:
        changed = False
        for (a, b), m1 in list(maps.items()):
            for (c, d), m2 in list(maps.items()):
                if c == b and (a, d) not in maps and a != d:
                    maps[(a, d)] = m2 @ m1
                    changed = True
    for a in pts:
        for b in pts:
            if leq(a, b) and (a, b) not in maps:
                maps[(a, b)] = Mat.zeros(dims[b], dims[a], p)
    return maps


def _pointwise_colimit(dims, maps, p, box):
    """Left Kan extension of the seed diagram to the full grid: at u take
    the colimit over the seed points below u."""
    pts = sorted(dims, key=lambda v: (sum(v), v))
    r = len(pts[0])
    proj = {}
    kan_dims, kan_edges = {}, {}

    def colim_at(u):
        below = [q for q in pts if leq(q, u)]
        offs, total = {}, 0
        for q in below:
            offs[q] = total
            total += dims[q]
        rel_cols = []
        for a in below:
            for b in below:
                if a == b or not leq(a, b):
                    continue
                m = maps[(a, b)]
                for j in range(dims[a]):
                    col = [0] * total
                    col[offs[a] + j] = (col[offs[a] + j] - 1) % p
                    for i in range(dims[b]):
                        col[offs[b] + i] = (col[offs[b] + i]
                                            + m.data[i][j]) % p
                    rel_cols.append(tuple(col))
        rel = fp.column_reduce(Mat.from_cols(rel_cols, total, p))
        q_map = fp.quotient_map(rel, total)
        return below, offs, total, q_map

    data = {}
    for u in box_points(r, box):
        below, offs, total, q_map = colim_at(u)
        data[u] = (below, offs, total, q_map)
        kan_dims[u] = q_map.rows
    for u in box_points(r, box):
        below_u, offs_u, total_u, q_u = data[u]
        for i in range(r):
            if u[i] == box:
                continue
            w = add(u, unit(i, r))
            below_w, offs_w, total_w, q_w = data[w]
            if total_u == 0:
                kan_edges[(u, i)] = Mat.zeros(kan_dims[w], 0, p)
                continue
            # summand inclusion then the quotient at w, through a section
            section = fp.solve(q_u, Mat.identity(kan_dims[u], p)) \
                if kan_dims[u] else Mat.zeros(total_u, 0, p)
            rows = []
            for rr in range(total_w):
                row = [0] * total_u
                for q in below_u:
                    if rr in range(offs_w[q], offs_w[q] + dims[q]):
                        row[offs_u[q] + rr - offs_w[q]] = 1
                rows.append(row)
            incl = Mat.from_rows(rows, p)
            kan_edges[(u, i)] = q_w @ incl @ section
    module = make_module(r, Q(1), box, p, kan_dims, kan_edges)
    for u in box_points(r, box):
        proj[u] = data[u][3]
    return module, data


def space_example_module():
    """Rank-3 module over F_3 on {0..2}^3 extending the seed diagram: the
    only rank-1 subfunctor that is 1-close is spanned by the sum of the
    three generator images at (1,1,1), not by any single generator."""
    p, dims, covers = _space_seed_diagram()
    maps = _poset_maps(dims, covers, p)
    kan, data = _pointwise_colimit(dims, maps, p, box=2)
    seeds = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        below, offs, total, q_map = data[e]
        vec = [0] * total
        vec[offs[e]] = 1
        seeds.append((e, q_map.apply(tuple(vec))))
    S = span_submodule(kan, seeds)
    M, _ = submodule_to_module(S)
    return M


def generator_sum_seed(F: GridModule):
    """The element of F at the top of the unit cube given by the sum of
    all minimal generator images there."""
    top = (1,) * F.r
    acc = [0] * F.dims[top]
    from .grid import evaluate_map
    for v, x in minimal_generators(F):
        img = evaluate_map(F, v, top).apply(x)
        acc = [(a + b) % F.p for a, b in zip(acc, img)]
    return top, tuple(acc)
