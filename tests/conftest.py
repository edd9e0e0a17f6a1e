"""Shared random generators for property tests.

r=1 modules can carry arbitrary edge matrices (no squares to satisfy);
r>=2 random modules are built as direct sums of interval/free summands, or
as quotients of sums of free modules, so commutativity holds by
construction.
"""

import random
from fractions import Fraction as Q

from pnoise import grid
from pnoise.field import Mat
from pnoise.grid import (Bar, direct_sum, make_bar, make_free, make_module,
                         zero_module)
from pnoise.structure import quotient_by_submodule, span_submodule


def random_line_module(rng, box=3, p=2, maxdim=2, alpha=Q(1), total_cap=None):
    dims = {}
    budget = total_cap if total_cap is not None else maxdim * (box + 1)
    for v in grid.box_points(1, box):
        d = rng.randrange(min(maxdim, budget) + 1)
        dims[v] = d
        budget -= d
    edges = {}
    for i in range(box):
        a, b = dims[(i,)], dims[(i + 1,)]
        edges[((i,), 0)] = Mat.from_rows(
            [[rng.randrange(p) for _ in range(a)] for _ in range(b)], p) \
            if a and b else Mat.zeros(b, a, p)
    return make_module(1, alpha, box, p, dims, edges)


def random_bar(rng, r, box):
    start = tuple(rng.randrange(box + 1) for _ in range(r))
    if rng.random() < 0.25:
        return Bar(start, None)
    end = tuple(min(box + 1, s + rng.randrange(1, box + 2)) for s in start)
    return Bar(start, end)


def random_sum_module(rng, r=2, box=2, p=2, summands=3, alpha=Q(1)):
    F = zero_module(r, alpha, box, p)
    for _ in range(summands):
        F = direct_sum(F, make_bar(random_bar(rng, r, box), box, alpha, p, r))
    return F


def random_presented_module(rng, r=2, box=3, p=2, alpha=Q(1)):
    """A module that is in general not a sum of intervals: the quotient of
    a sum of 2-4 free modules, at random points, by the span of one random
    vector at each of 1-4 random points where the sum is nonzero."""
    G = zero_module(r, alpha, box, p)
    for _ in range(rng.randint(2, 4)):
        v = tuple(rng.randrange(box + 1) for _ in range(r))
        G = direct_sum(G, make_free(v, box, alpha, p, r))
    relations = []
    for _ in range(rng.randint(1, 4)):
        u = tuple(rng.randrange(box + 1) for _ in range(r))
        if G.dims[u]:
            relations.append(
                (u, tuple(rng.randrange(p) for _ in range(G.dims[u]))))
    return quotient_by_submodule(G, span_submodule(G, relations))[0]


def seeded(seed):
    return random.Random(seed)
