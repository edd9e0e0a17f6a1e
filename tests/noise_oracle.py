"""The slow paths that `noise.contains`, `noise.noise_size` and
`noise._point_test` replace: membership by the rules on a built module,
one level at a time, with a cone-shaped level without a quiet corner
decided by listing every element of F(v); and the size as the first
candidate level at which membership holds. Also random specs of the three
kinds, for the differential tests."""

import itertools
from fractions import Fraction as Q

from pnoise import field as fp, grid
from pnoise import noise as ns
from pnoise.noise import INFINITE


def point_passes_by_enumeration(bases, v, paths, p):
    """`noise._point_test` without a quiet corner, by listing F(v): does
    every x in F(v) outside S(v) have a path (w, A) with A x in S(w)?"""
    for x in itertools.product(range(p), repeat=paths[0][1].cols):
        if fp.in_span(bases[v], x):
            continue
        if not any(fp.in_span(bases[w], A.apply(x)) for w, A in paths):
            return False
    return True


def cone_contains_by_enumeration(spec, F, eps):
    """Is F within level eps of a cone-shaped spec, that one level alone?
    A quiet corner c asks every map F(v <= v+c) to be zero; otherwise each
    nonzero x in F(v) must die along some maximal offset."""
    eps = Q(eps)
    if eps < 0:
        return False
    maximal, corner, corner_ok = ns._kill_offsets(spec, F.alpha, F.box, F.r,
                                                  eps)
    for v in F.points():
        if not F.dims[v]:
            continue
        maps = [grid.evaluate_map(F, v, grid.clip(grid.add(v, m), F.box))
                for m in ((corner,) if corner_ok else maximal)]
        if corner_ok:
            if not maps[0].is_zero():
                return False
            continue
        for x in itertools.product(range(F.p), repeat=F.dims[v]):
            if any(x) and all(any(A.apply(x)) for A in maps):
                return False
    return True


def contains_by_rules(spec, F, eps):
    eps = Q(eps)
    if eps < 0:
        return False
    if isinstance(spec, ns.DomainNoise):
        boxes = spec.region(eps)
        return all(ns._cell_covered(*ns._cell(F, v), boxes)
                   for v in F.points() if F.dims[v])
    if isinstance(spec, ns.DimensionNoise):
        return max(F.dims.values(), default=0) <= spec.threshold(eps)
    if isinstance(spec, ns.Intersection):
        return all(contains_by_rules(part, F, eps) for part in spec.parts)
    return cone_contains_by_enumeration(spec, F, eps)


def noise_size_by_candidates(spec, F):
    """Membership is monotone in eps and changes only at a candidate, so
    the size is the first candidate where F is contained."""
    if F.total_dim() == 0:
        return Q(0)
    for eps in ns.noise_candidates(spec, F):
        if contains_by_rules(spec, F, eps):
            return eps
    return INFINITE


LEVELS = (Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3))


def random_domain_spec(rng, r, box):
    """Nested regions: each step adds a half-open box, on the half-integer
    lattice, to the boxes of the step before."""
    boxes, steps = [], []
    for eps in sorted(rng.sample(LEVELS, rng.randint(1, 3))):
        lo = tuple(Q(rng.randrange(2 * box + 1), 2) for _ in range(r))
        hi = tuple(None if rng.random() < 0.25
                   else c + Q(rng.randrange(1, 2 * box + 3), 2) for c in lo)
        boxes.append((lo, hi))
        steps.append((eps, tuple(boxes)))
    return ns.DomainNoise(tuple(steps))


def random_dimension_spec(rng):
    while True:
        eps = sorted(rng.sample(LEVELS, rng.randint(1, 3)))
        thresholds = sorted(rng.randrange(5) for _ in eps)
        try:
            return ns.DimensionNoise(
                ((Q(0), 0),) + tuple(zip(eps, thresholds)))
        except ValueError:      # not superadditive
            continue


def random_specs(rng, r, box, cones, count):
    """count specs each of domain, dimension, and intersection kind; an
    intersection mixes two or three of a domain spec, a dimension spec and
    one of the given cone-shaped specs."""
    out = []
    for _ in range(count):
        domain = random_domain_spec(rng, r, box)
        dim = random_dimension_spec(rng)
        parts = [domain, dim, rng.choice(cones)]
        out += [domain, dim,
                ns.Intersection(tuple(rng.sample(parts, rng.randint(2, 3))))]
    return out
