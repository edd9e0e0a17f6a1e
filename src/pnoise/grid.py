"""Compact alpha-tame functors Q^r -> Vect_{F_p} stored on a finite box.

A module is kept as its restriction to the lattice alpha*{0..box}^r: a
dimension per lattice point and one matrix per lattice edge. Evaluation at
arbitrary (rational) points clips into the box; this is lossless for compact
tame functors, which stabilize beyond a large enough corner.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import field as fp
from .errors import (IncompatibleShape, NonCommutingSquare, NotComparable,
                     OutOfBox, ShapeMismatch)
from .field import Mat
from .record import Record


def box_points(r, box):
    """All lattice points of {0..box}^r in lexicographic order."""
    return itertools.product(range(box + 1), repeat=r)


def clip(v, box):
    return tuple(min(max(c, 0), box) for c in v)


def leq(v, w):
    return all(a <= b for a, b in zip(v, w))


def add(v, w):
    return tuple(a + b for a, b in zip(v, w))


class Bar(Record):
    """Interval summand [start, end); end=None encodes a free summand
    K(start,-). Immutable by convention."""
    __slots__ = ("start", "end")

    def __init__(self, start, end=None):
        if end is not None and not leq(start, end):
            raise NotComparable(f"bar start {start} not <= end {end}")
        self.start = start
        self.end = end


class GridModule(Record):
    """A module on the lattice alpha*{0..box}^r. Immutable by convention:
    no code changes its fields or its dicts after construction."""
    __slots__ = ("r", "alpha", "box", "p", "dims", "edges")

    def __init__(self, r, alpha, box, p, dims, edges):
        self.r = r
        self.alpha = alpha
        self.box = box
        self.p = p
        self.dims = dims      # point -> dim
        self.edges = edges    # (point, axis) -> Mat

    def __eq__(self, other):
        if not isinstance(other, GridModule):
            return NotImplemented
        return modules_equal(self, other)

    def __hash__(self):
        # equal modules share their shape; the dicts are not hashable
        return hash((self.r, self.alpha, self.box, self.p))

    def dim(self, v):
        return self.dims[clip(v, self.box)]

    def edge(self, v, i):
        return self.edges[(v, i)]

    def points(self):
        return box_points(self.r, self.box)

    def total_dim(self):
        return sum(self.dims.values())


def make_module(r, alpha, box, p, dims, edges=None):
    """Assemble a GridModule, filling forced (zero-sized) edge matrices."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not fp.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    full_dims = {}
    for v in box_points(r, box):
        full_dims[v] = int(dims.get(v, 0))
        if full_dims[v] < 0:
            raise ValueError(f"negative dim at {v}")
    full_edges = {}
    edges = edges or {}
    for v in box_points(r, box):
        for i in range(r):
            if v[i] == box:
                continue
            w = add(v, tuple(1 if j == i else 0 for j in range(r)))
            m = edges.get((v, i))
            if m is None:
                if full_dims[v] == 0 or full_dims[w] == 0:
                    m = Mat.zeros(full_dims[w], full_dims[v], p)
                else:
                    raise ShapeMismatch(v, i, "(missing edge)")
            full_edges[(v, i)] = m
    return GridModule(r, alpha, box, p, full_dims, full_edges)


def unit(i, r):
    return tuple(1 if j == i else 0 for j in range(r))


def validate(F: GridModule):
    """Check matrix shapes and all commutativity squares."""
    for (v, i), m in F.edges.items():
        w = add(v, unit(i, F.r))
        if (m.rows, m.cols) != (F.dims[w], F.dims[v]) or m.p != F.p:
            raise ShapeMismatch(v, i, f"got {m.rows}x{m.cols}")
    for v in F.points():
        for i in range(F.r):
            for j in range(i + 1, F.r):
                if v[i] == F.box or v[j] == F.box:
                    continue
                vi, vj = add(v, unit(i, F.r)), add(v, unit(j, F.r))
                a = F.edge(vi, j) @ F.edge(v, i)
                b = F.edge(vj, i) @ F.edge(v, j)
                if a.data != b.data:
                    raise NonCommutingSquare(v, i, j)
    return True


def evaluate_map(F: GridModule, v, w) -> Mat:
    """F(v <= w) as a matrix, after clipping both points to the box."""
    cv, cw = clip(v, F.box), clip(w, F.box)
    if not leq(cv, cw):
        raise NotComparable(f"{v} !<= {w}")
    m = Mat.identity(F.dims[cv], F.p)
    cur = list(cv)
    for i in range(F.r):
        while cur[i] < cw[i]:
            m = F.edge(tuple(cur), i) @ m
            cur[i] += 1
    return m


def anchor(F: GridModule, v) -> tuple:
    """Lattice anchor of a rational point: floor(v_i/alpha) clipped to box."""
    return clip(tuple(int(math.floor(Fraction(c) / F.alpha)) for c in v), F.box)


def evaluate_rational(F: GridModule, v):
    """Dimension of F at a rational point together with its lattice anchor."""
    a = anchor(F, v)
    return F.dims[a], a


def zero_module(r, alpha, box, p):
    return make_module(r, alpha, box, p, {})


def indicator_module(alive, box, p, r, alpha=Fraction(1)):
    """K on the lattice points where alive holds, identity maps inside."""
    dims = {v: 1 for v in box_points(r, box) if alive(v)}
    edges = {(v, i): Mat.identity(1, p) for v in dims for i in range(r)
             if v[i] < box and add(v, unit(i, r)) in dims}
    return make_module(r, alpha, box, p, dims, edges)


def make_free(v, box, alpha, p, r=None):
    """Free module K(v,-): dim 1 on the up-set of v, identity edges."""
    r = len(v) if r is None else r
    if len(v) != r or not leq(v, (box,) * r):
        raise OutOfBox(f"{v} outside box {box}")
    return indicator_module(lambda u: leq(v, u), box, p, r, alpha)


def make_bar(bar: Bar, box, alpha, p, r=None):
    """Interval module: dim 1 on {x >= start, x !>= end}, identity edges."""
    r = len(bar.start) if r is None else r
    if bar.end is None:
        return make_free(bar.start, box, alpha, p, r)
    if len(bar.start) != r or len(bar.end) != r or \
            not leq(bar.start, (box,) * r) or not leq(bar.end, (box + 1,) * r):
        raise OutOfBox(f"{bar} outside box {box}")
    return indicator_module(
        lambda u: leq(bar.start, u) and not leq(bar.end, u), box, p, r, alpha)


def require_same_shape(F: GridModule, G: GridModule):
    """Raise IncompatibleShape unless F and G share (r, alpha, box, p)."""
    if (F.r, F.alpha, F.box, F.p) != (G.r, G.alpha, G.box, G.p):
        raise IncompatibleShape(
            f"({F.r},{F.alpha},{F.box},{F.p}) vs ({G.r},{G.alpha},{G.box},{G.p})")


def direct_sum(F: GridModule, G: GridModule) -> GridModule:
    require_same_shape(F, G)
    dims = {v: F.dims[v] + G.dims[v] for v in F.points()}
    edges = {k: fp.block_diag([F.edges[k], G.edges[k]], F.p) for k in F.edges}
    return GridModule(F.r, F.alpha, F.box, F.p, dims, edges)


def rescale(F: GridModule, n: int) -> GridModule:
    """Refine the scale: alpha -> alpha/n, subdividing each cell with identities."""
    if n < 1:
        raise ValueError("divisor must be >= 1")
    if n == 1:
        return F
    box2 = F.box * n
    dims = {}
    edges = {}
    for u in box_points(F.r, box2):
        cell = tuple(c // n for c in u)
        dims[u] = F.dims[cell]
        for i in range(F.r):
            if u[i] == box2:
                continue
            if (u[i] + 1) % n == 0:
                edges[(u, i)] = F.edge(cell, i)
            else:
                edges[(u, i)] = Mat.identity(F.dims[cell], F.p)
    return GridModule(F.r, F.alpha / n, box2, F.p, dims, edges)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator,
                             b.numerator * a.denominator),
                    a.denominator * b.denominator)


def translate(F: GridModule, w) -> GridModule:
    """The w-translation v -> F(v+w), re-presented on a refined lattice."""
    w = tuple(Fraction(c) for c in w)
    if any(c < 0 for c in w):
        raise ValueError("translation must be non-negative")
    mu = F.alpha
    for c in w:
        if c:
            mu = _frac_gcd(mu, c)
    box2 = 1
    for c in w:
        need = (F.alpha * F.box - c) / mu
        box2 = max(box2, int(math.ceil(need)))

    def src(u):
        return anchor(F, tuple(mu * ui + wi for ui, wi in zip(u, w)))

    dims = {u: F.dims[src(u)] for u in box_points(F.r, box2)}
    edges = {}
    for u in box_points(F.r, box2):
        for i in range(F.r):
            if u[i] == box2:
                continue
            edges[(u, i)] = evaluate_map(F, src(u), src(add(u, unit(i, F.r))))
    return GridModule(F.r, mu, box2, F.p, dims, edges)


def modules_equal(F: GridModule, G: GridModule) -> bool:
    """Strict presentation equality (same dims and matrices everywhere)."""
    if (F.r, F.alpha, F.box, F.p) != (G.r, G.alpha, G.box, G.p):
        return False
    if F.dims != G.dims:
        return False
    return all(F.edges[k].data == G.edges[k].data for k in F.edges)


def modules_iso_rankwise(F: GridModule, G: GridModule) -> bool:
    """Equal dims everywhere and equal rank of F(v<=w) for all pairs v<=w.

    In one parameter this is a complete isomorphism invariant; in general it
    is the comparison the worked examples use for printed diagrams.
    """
    if (F.r, F.alpha, F.box) != (G.r, G.alpha, G.box) or F.dims != G.dims:
        return False
    pts = list(F.points())
    for v in pts:
        for w in pts:
            if leq(v, w):
                if fp.rank(evaluate_map(F, v, w)) != fp.rank(evaluate_map(G, v, w)):
                    return False
    return True
