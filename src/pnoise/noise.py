"""Noise systems: membership, size, closure under sums, maximal noise parts.

The cone-shaped systems are decided exactly by a finite reduction: for a
lattice offset m define cost(m) as the smallest norm of a cone vector
dominating alpha*m componentwise. Because kernels only grow along an axis
(F(u<=u+a) = 0 forces F(u<=u+a') = 0 for a <= a'), a module lies within
noise level eps iff every nonzero element at every lattice point is killed
by some offset of cost at most eps. All polyhedral questions are answered by
Fourier-Motzkin elimination over the rationals, so the answers are exact.

Cone and vnorm specs share one witness system, w = sum a_j d_j with a >= 0
dominating a target; they differ only in the linear forms whose maximum is
the witness's norm (w_i for cones, a_j for vnorm). Offset costs, feasible
offsets and the closure-under-sums test all start from it.

Their one kill test is `_point_test`: x in F(v) dies in F/S along m when
F(v <= v+m)x lies in S(v+m). It decides by linear algebra whether the
elements that die along some m cover F(v), listing no element: for a
closed S each of their subspaces contains S(v), so S(v) is not read.
`quotient_size` sizes F/S, F, or a closed K/0 (the kernel of a map out of
F) for every kind of spec, building no module: domain and dimension specs
read only the quotient's dimensions, an intersection its largest part
size. `noise_size` is the size of F/0, and membership reads it. One
`QuotientScorer` per (spec, F) decides the kind and holds the levels,
their kill offsets, the maps F(v <= w) and the verdicts found, each
reused for every S (and K) agreeing where the test reads.

When every level k has a quiet corner c_k (all of r=1, and e.g. cone:1,1),
F/S is within level k iff at every point w, colspan F(v* <= w) lies in
S(w), for v* = v*_k(w) the largest point whose corner shift clips to w:
v*_i = w_i - c_k,i off the box face, v*_i = w_i on it, and no point lands
on w (the test passes) when some v*_i < 0. Proof: every v landing on w is
<= v*, so F(v <= w) factors through F(v* <= w); the corners are nested, so
the test at w is monotone in k; S is closed, so points with S(v) = F(v)
pass anyway.

So F/S is within level k iff S contains the floor T_k, T_k(w) =
colspan F(v*_k(w) <= w) (0 where no point lands on w). T_k is closed, as
v*_k is monotone in w, so bar(F) just past levels[k] is the least rank of
a closed S containing T_k, and it lies between two bounds:
- UB_k = rank T_k, since T_k is itself such an S;
- LB_k = the largest rank of T_k restricted to a saturated chain C from 0
  to (box, ..., box). Each generator of S counts at the first point of C
  above it, so rank(S|C) <= rank S; over the PID F_p[t] a graded
  submodule of an n-generated module is n-generated, so rank(T_k|C) <=
  rank(S|C). rank(T_k|C) sums, over the points w of C, dim T_k(w) minus
  rank F(v*_k(u) <= w) for u the point before w on C (none at 0).
At r=1 the grid is one chain, and LB_k = UB_k.

Every cone-shaped size is one rule, `QuotientScorer.level`: the first
level >= k at which a point passes. The test is monotone in the level, so
F/S's size is the level reached by one pass over the points, each starting
from the level before. With quiet corners a point's first level is one
memoised lookup per (w, S(w)); otherwise, and for K/0, the levels are
walked from k with the kill test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce

from . import field as fp
from . import polyhedra as ph
from .errors import NotClosedUnderSums, ParseError, UnsupportedNoise
from .field import Mat
from .grid import GridModule, add, box_points, clip, evaluate_map, leq
from .record import Record
from .structure import Submodule, zero_submodule

INFINITE = float("inf")


# -- spec types ------------------------------------------------------------


class ConeNoise(Record):
    """Shifts along the cone spanned by the generators, sup-norm sized.
    Immutable by convention."""
    __slots__ = ("generators",)

    def __init__(self, generators):
        # tuples keep the spec hashable, and so a key of the cost-table memo;
        # entries are Fractions, componentwise >= 0
        generators = tuple(tuple(g) for g in generators)
        if not generators:
            raise ValueError("cone needs at least one generator")
        if len({len(g) for g in generators}) != 1:
            raise ValueError("cone generators must have one length")
        for g in generators:
            if all(c == 0 for c in g):
                raise ValueError("cone generators must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("cone generators must be componentwise >= 0")
        self.generators = generators

    @property
    def r(self):
        return len(self.generators[0])


class VNormNoise(Record):
    """Shifts measured by the smallest max-coefficient representation
    w = sum a_k v_k with a_k >= 0. Immutable by convention."""
    __slots__ = ("vectors",)

    def __init__(self, vectors):
        vectors = tuple(tuple(g) for g in vectors)
        if not vectors:
            raise ValueError("need at least one vector")
        if len({len(g) for g in vectors}) != 1:
            raise ValueError("vectors must have one length")
        for g in vectors:
            if all(c == 0 for c in g):
                raise ValueError("vectors must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("vectors must be componentwise >= 0")
        self.vectors = vectors

    @property
    def r(self):
        return len(self.vectors[0])


class DomainNoise(Record):
    """F is eps-small when its support sits inside the region at level eps.

    steps: ((eps, boxes), ...) sorted by eps; boxes are half-open
    (lo, hi) with hi component None meaning unbounded. Regions must be
    nested upward in eps. Immutable by convention.
    """
    __slots__ = ("steps",)

    def __init__(self, steps):
        eps_vals = [s[0] for s in steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        for (_, lo_boxes), (_, hi_boxes) in zip(steps, steps[1:]):
            for lo, hi in lo_boxes:
                if not _cell_covered(lo, hi, hi_boxes):
                    raise ValueError("domain regions must be nested in eps")
        self.steps = steps

    def region(self, eps):
        best = ()
        for e, boxes in self.steps:
            if e <= eps:
                best = boxes
        return best


class DimensionNoise(Record):
    """F is eps-small when dim F(v) <= n(eps) everywhere.

    steps: ((eps, n), ...) sorted; the threshold is the value at the largest
    breakpoint <= eps (0 before the first one). The thresholds must not
    decrease, so that the levels grow with eps, and must be superadditive:
    n(a) + n(b) <= n(a+b). Immutable by convention."""
    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = steps
        eps_vals = [s[0] for s in self.steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        if any(n < 0 for _, n in self.steps):
            raise ValueError("thresholds must be >= 0")
        if any(b < a for (_, a), (_, b) in zip(steps, steps[1:])):
            raise ValueError("thresholds must not decrease in eps")
        if self.threshold(0) != 0:
            raise ValueError("n(0) must be 0")
        top = self.steps[-1][0]
        for a, _ in self.steps:
            for b, _ in self.steps:
                if a + b > top:
                    continue  # beyond the represented breakpoints
                if self.threshold(a) + self.threshold(b) > self.threshold(a + b):
                    raise ValueError(
                        f"thresholds not superadditive at {a}+{b}")

    def threshold(self, eps):
        n = 0
        for e, val in self.steps:
            if e <= eps:
                n = val
        return n


class Intersection(Record):
    """eps-small for every part at once. Immutable by convention."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        if not parts:
            raise ValueError("need at least one part")
        self.parts = parts


# -- offset costs ----------------------------------------------------------


def _neg(row):
    return tuple(-c for c in row)


def _witness_system(spec, lo):
    """The witness w = sum_j a_j d_j over the directions d_j of a
    cone-shaped spec, with the coefficients a as variables.

    Returns (cons, w_rows, norm_rows): cons says a >= 0 and w >= lo;
    w_rows[i] is w_i as a linear form in a; the witness's norm is its
    largest norm row, which is w_i for cone specs and a_j for vnorm specs.
    A target whose length is not the spec's r is refused."""
    if isinstance(spec, ConeNoise):
        dirs = spec.generators
    elif isinstance(spec, VNormNoise):
        dirs = spec.vectors
    else:
        raise UnsupportedNoise(type(spec).__name__)
    if len(lo) != spec.r:
        raise UnsupportedNoise(
            f"noise directions have r={spec.r}, the module has r={len(lo)}")
    k = len(dirs)
    coeffs = [tuple(int(t == j) for t in range(k)) for j in range(k)]
    w_rows = [tuple(Fraction(d[i]) for d in dirs) for i in range(len(dirs[0]))]
    cons = [(_neg(row), Fraction(0), False) for row in coeffs]
    cons += [(_neg(row), -Fraction(c), False) for row, c in zip(w_rows, lo)]
    return cons, w_rows, (w_rows if isinstance(spec, ConeNoise) else coeffs)


def offset_cost(spec, m, alpha):
    """Smallest norm of a cone vector dominating alpha*m, or None."""
    cons, _, norm = _witness_system(spec, [Fraction(alpha) * c for c in m])
    # variables (t, a): every norm row is at most t
    cons = [((0,) + row, rhs, strict) for row, rhs, strict in cons]
    cons += [((-1,) + row, Fraction(0), False) for row in norm]
    return ph.minimize(cons, len(cons[0][0]), 0)


@lru_cache(maxsize=None)
def _cost_table(spec, alpha, box, r):
    """offset -> offset_cost for every in-box offset. The package reads
    lattice offset costs only from here; memoised, so callers must not
    mutate it."""
    return {m: offset_cost(spec, m, alpha) for m in box_points(r, box)}


@lru_cache(maxsize=None)
def _kill_offsets(spec, alpha, box, r, eps):
    """The in-box offsets of cost <= eps, which form a down-closed set:
    returns (maximal offsets, componentwise corner, corner_ok), where
    corner_ok says the corner itself costs at most eps."""
    costs = _cost_table(spec, alpha, box, r)
    good = [m for m, c in costs.items() if c is not None and c <= eps]
    maximal = tuple(m for m in good
                    if not any(m != m2 and leq(m, m2) for m2 in good))
    corner = tuple(max(m[i] for m in maximal) for i in range(r)) if maximal \
        else (0,) * r
    corner_cost = costs.get(corner)
    return maximal, corner, corner_cost is not None and corner_cost <= eps


@lru_cache(maxsize=None)
def _levels_and_kills(spec, alpha, box, r):
    """The levels of a cone-shaped spec on grids of one shape, and the kill
    data (`_kill_offsets`) of each: one memo lookup per scorer, and tuples,
    since every scorer of that shape shares them."""
    costs = _cost_table(spec, alpha, box, r)
    levels = tuple(sorted({c for c in costs.values() if c is not None}))
    return levels, tuple(_kill_offsets(spec, alpha, box, r, eps)
                         for eps in levels)


# -- feasible offsets (cell-exact witness sets) ----------------------------


def feasible_offsets(spec, eps, alpha, r):
    """Lattice cells {m : some witness w with norm exactly eps has
    floor(w_i/alpha) == m_i}."""
    eps, alpha = Fraction(eps), Fraction(alpha)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return {(0,) * r}
    top = -(-eps.numerator * alpha.denominator
            // (eps.denominator * alpha.numerator))  # ceil(eps/alpha)
    out = set()
    for m in box_points(r, top):
        cons, w_rows, norm = _witness_system(spec, [alpha * c for c in m])
        cons += [(row, alpha * (c + 1), True)                 # w_i < (m_i+1)a
                 for row, c in zip(w_rows, m)]
        cons += [(row, eps, False) for row in norm]          # norm <= eps
        # the norm reaches eps when some norm row does
        if any(ph.feasible(cons + [(_neg(row), -eps, False)], len(row))
               for row in norm):
            out.add(m)
    return out


# -- membership ------------------------------------------------------------


def _cell(F: GridModule, v):
    """The half-open rational cell [lo, hi) of lattice point v; cells on the
    box's upper face are unbounded (hi component None)."""
    return (tuple(F.alpha * c for c in v),
            tuple(None if c == F.box else F.alpha * (c + 1) for c in v))


def _cell_covered(lo, hi, boxes):
    """Is the half-open cell [lo, hi) inside the union of half-open boxes?
    hi components may be None (unbounded). Decided by subdividing the cell
    at every box boundary: a subcell never crosses a box face, so it lies in
    the union iff its low corner does."""
    if not boxes:
        return False
    r = len(lo)
    cuts = []
    for i in range(r):
        pts = {lo[i]}
        for blo, bhi in boxes:
            for c in (blo[i], bhi[i]):
                if c is None:
                    continue
                if c > lo[i] and (hi[i] is None or c < hi[i]):
                    pts.add(c)
        cuts.append(sorted(pts))
    for corner in itertools.product(*cuts):
        ok = False
        for blo, bhi in boxes:
            if all(blo[i] <= corner[i] and
                   (bhi[i] is None or corner[i] < bhi[i])
                   for i in range(r)):
                # the box must also reach the subcell's upper face
                def reaches(i):
                    nxt = [c for c in cuts[i] if c > corner[i]]
                    top = nxt[0] if nxt else hi[i]
                    if top is None:
                        return bhi[i] is None
                    return bhi[i] is None or bhi[i] >= top
                if all(reaches(i) for i in range(r)):
                    ok = True
                    break
        if not ok:
            return False
    return True


def _dims_within(spec, F: GridModule, dims, eps) -> bool:
    """Is a module on F's grid with dimension dims[v] at each point v within
    level eps of a domain or dimension spec? Neither reads anything else."""
    if isinstance(spec, DomainNoise):
        boxes = spec.region(eps)
        return all(_cell_covered(*_cell(F, v), boxes)
                   for v in F.points() if dims[v])
    return max(dims.values(), default=0) <= spec.threshold(eps)


def contains(spec, F: GridModule, eps) -> bool:
    """Is F within noise level eps? The levels are nested and membership
    changes only at a candidate, so F is within eps iff its size is at
    most eps."""
    return noise_size(spec, F) <= Fraction(eps)


def noise_size(spec, F: GridModule):
    """The first candidate level that F lies within, or INFINITE: the size
    of F/0 in a scorer of F, for every kind of spec."""
    return quotient_size(QuotientScorer(spec, F), zero_submodule(F))


class QuotientScorer:
    """What `quotient_size` needs of one spec and one module F, computed
    once per search: the spec's kind, a scorer per part of an intersection
    (`parts`), the levels where membership can change, and for a
    cone-shaped spec the kill data (`_kill_offsets`) of each level and
    lazily filled tables of the maps F(v <= w) and of the answers found.

    Each point's first passing level is `level`, and `reads` names the
    points whose bases it reads. When every level k has a quiet corner c_k,
    `corners` lists them: F/S is within level k iff colspan F(v* <= w) lies
    in S(w) at every w, v* = v*_k(w) the largest point whose corner shift
    clips to w (see the module docstring for the proof). The first passing
    level at w reads nothing of S but S(w), and every `Submodule` basis is
    canonical, so it is stored under (w, S(w).data). Otherwise `corners` is
    None and a point test's verdict, a pure function of v, the level and
    the bases of S it reads, is stored under (v, k, the data of those
    bases); kernels K are always sized that way."""

    def __init__(self, spec, F: GridModule):
        self.spec, self.F = spec, F
        self.parts = self.kills = self.corners = None
        if isinstance(spec, (ConeNoise, VNormNoise)):
            self.levels, self.kills = _levels_and_kills(spec, F.alpha, F.box,
                                                        F.r)
            self.corners = ([corner for _, corner, _ in self.kills]
                            if all(ok for _, _, ok in self.kills) else None)
        else:
            self.levels = noise_candidates(spec, F)
            if isinstance(spec, Intersection):
                self.parts = [QuotientScorer(part, F) for part in spec.parts]
        self.points = [w for w in F.points() if F.dims[w]]
        self._maps = {}
        self._paths = {}
        self._sources = {}
        self._first = {}
        self._verdicts = {}

    def map(self, v, w):
        """F(v <= w) for in-box points v <= w: the edge into w along the
        last axis where they differ, times the memoised map one step
        shorter, which is the product `evaluate_map` takes. The steps back
        to the first memoised map are walked, not recursed, so a long grid
        cannot exhaust the stack."""
        maps = self._maps
        hit = maps.get((v, w))
        if hit is not None:
            return hit
        u, steps = w, []
        while (v, u) not in maps:
            if u == v:
                maps[(v, v)] = Mat.identity(self.F.dims[v], self.F.p)
                break
            a = max(i for i, (s, e) in enumerate(zip(v, u)) if s < e)
            prev = u[:a] + (u[a] - 1,) + u[a + 1:]
            steps.append((prev, a, u))
            u = prev
        hit = maps[(v, u)]
        for prev, a, u in reversed(steps):
            hit = maps[(v, u)] = self.F.edge(prev, a) @ hit
        return hit

    def path(self, v, m):
        hit = self._paths.get((v, m))
        if hit is None:
            w = clip(add(v, m), self.F.box)
            hit = self._paths[(v, m)] = (w, self.map(v, w))
        return hit

    def sources(self, w):
        """(k, v*_k(w)) at each level k where v* moves, past the levels
        with v* = w (there the test asks S(w) = F(w), as level 0 does). The
        list ends with (k, None) once no point lands on w or F(v*) is zero:
        from level k on, w passes for every S."""
        out = self._sources.get(w)
        if out is None:
            box, out, last = self.F.box, [], w
            for k, corner in enumerate(self.corners):
                v = tuple(a if a == box else a - c for a, c in zip(w, corner))
                if v == last:
                    continue
                if min(v) < 0 or not self.F.dims[v]:
                    out.append((k, None))
                    break
                out.append((k, v))
                last = v
            self._sources[w] = out
        return out

    def reads(self, v):
        """The points whose bases `level` reads at v: v alone with quiet
        corners, else v and the ends of every level's kill paths."""
        if self.corners is not None:
            return (v,)
        ends = [clip(add(v, m), self.F.box) for maximal, corner, ok
                in self.kills for m in ((corner,) if ok else maximal)]
        return tuple(dict.fromkeys([v] + ends))

    def level(self, v, bases, k, K=None):
        """The index of the first level >= k at which the point v of F/S
        passes, S's canonical bases in `bases` (of K/0, K's bases given);
        len(levels) if none does. A point with S(v) = F(v) passes at k. With
        quiet corners, and no K, the first passing level reads only S(v) and
        is memoised on (v, S(v).data); otherwise the levels are walked from
        k (`_point_within`)."""
        B = bases[v]
        if B.cols == self.F.dims[v]:
            return k
        if K is None and self.corners is not None:
            key = (v, B.data)
            hit = self._first.get(key)
            if hit is None:
                hit = len(self.levels)
                for j, u in self.sources(v):
                    if u is None or fp.span_contains(B, self.map(u, v)):
                        hit = j
                        break
                self._first[key] = hit
            return max(k, hit)
        while k < len(self.levels) and not _point_within(self, bases, v, k, K):
            k += 1
        return k


def _point_within(scorer: QuotientScorer, bases, v, k, K=None):
    """Is the point v of F/S (of K/0, given K's bases) within level
    levels[k], S's bases in `bases`? The test reads S(w) at the end w of
    each kill path, the quiet corner's or each maximal offset's, and K(v)
    if given; its verdict is memoised in the scorer on those bases."""
    maximal, corner, corner_ok = scorer.kills[k]
    paths = [scorer.path(v, m) for m in ((corner,) if corner_ok else maximal)]
    key = (v, k, tuple(bases[w].data for w, _ in paths))
    if K is not None:
        key += (K[v].data,)
    hit = scorer._verdicts.get(key)
    if hit is None:
        if K is not None:   # the elements of K/0 at v are K(v)'s coordinates
            paths = [(w, A @ K[v]) for w, A in paths]
        hit = scorer._verdicts[key] = _point_test(bases, paths)
    return hit


def _point_test(bases, paths):
    """The kill test of a point v of F/S, S closed with its bases in
    `bases`, along the given paths (w_m, F(v <= w_m)), on the f
    coordinates of their columns.

    x dies along m iff R_m x = 0, R_m the residue of F(v <= w_m) modulo
    S(w_m); the point passes iff the kernels K_m cover F_p^f. Each K_m
    contains S(v), as S is closed, so this is the test on F(v)/S(v), and
    S(v) is not read. It passes when some R_m = 0, which decides a single
    path. It fails when n <= p kernels are proper: a space over F_p is not
    a union of p or fewer proper subspaces (P. L. Clark, Covering numbers
    in linear algebra, Amer. Math. Monthly 119, 2012). Else
    inclusion-exclusion counts the union, |K_T| = p^(f - rank of the R_m
    stacked over T) for each nonempty set T of them: 2^n - 1 ranks, and no
    element listed."""
    residues = []
    for w, A in paths:
        R = fp.residue(bases[w], A)
        if R.is_zero():
            return True
        residues.append(R)
    p, f = residues[0].p, residues[0].cols
    if len(residues) <= p:
        return False
    covered = 0
    for size in range(1, len(residues) + 1):
        for T in itertools.combinations(residues, size):
            stack = reduce(Mat.vstack, T)
            covered += (-1) ** (size + 1) * p ** (f - fp.rank(stack))
    return covered == p ** f


def quotient_size(scorer: QuotientScorer, S: Submodule, K=None):
    """noise_size(spec, F/S) for a closed submodule S of the scorer's F,
    read off S's canonical bases with no quotient built; given a closed K
    in F and S = 0, noise_size(spec, K), which sizes a kernel. A domain or
    dimension spec reads only dim F(v) - dim S(v) (dim K(v)): the size is
    the first level those dimensions pass. An intersection takes its
    largest part size, as each part's levels grow with eps.

    A cone-shaped spec's point v of F/S lies within level eps when every x
    in F(v) is carried into S(w), w = v+m clipped, by an offset m of cost
    at most eps. The test is monotone in eps, so one ascending pass over
    the points finds the size: each point's first passing level from the
    level so far (`QuotientScorer.level`). With quiet corners that level is
    memoised on (v, S(v).data); otherwise the kill test (`_point_test`)
    runs on all of F(v) (on K(v)'s coordinates for K/0)."""
    F, levels = scorer.F, scorer.levels
    if K is not None and any(S.basis[v].cols for v in F.points()):
        raise ValueError("a submodule K is sized only over S = 0")
    if scorer.kills is None:    # not cone-shaped
        if scorer.parts is not None:
            return max(quotient_size(part, S, K) for part in scorer.parts)
        dims = {v: F.dims[v] - S.basis[v].cols if K is None
                else K.basis[v].cols for v in F.points()}
        return next((eps for eps in levels
                     if _dims_within(scorer.spec, F, dims, eps)), INFINITE)
    k = 0
    for v in scorer.points:
        k = scorer.level(v, S.basis, k, None if K is None else K.basis)
        if k == len(levels):
            return INFINITE
    return levels[k]   # levels[0] is 0, the cost of no shift


# -- closure under direct sums --------------------------------------------


def _sup_norm(g):
    return max(Fraction(c) for c in g)


def closed_under_sums(spec, eps) -> bool:
    """Can any two eps-small pieces be summed without leaving level eps?
    Exact for single directions, for cone generators with one common norm
    whose sum keeps that norm, and for rationally independent vnorm
    vectors; otherwise decided on the directions' norm-eps representatives
    and their pairwise joins."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return True
    if isinstance(spec, ConeNoise):
        dirs = spec.generators
        norms = [_sup_norm(g) for g in dirs]
        total = tuple(sum(Fraction(g[i]) for g in dirs)
                      for i in range(spec.r))
        if len(set(norms)) == 1 and _sup_norm(total) == norms[0]:
            return True
    elif isinstance(spec, VNormNoise):
        dirs = spec.vectors
        norms = [1] * len(dirs)
        if _rationally_independent(dirs):
            return True
    else:
        raise UnsupportedNoise("closure test applies to cone-shaped specs")
    reps = [tuple(eps * Fraction(c) / n for c in d)
            for d, n in zip(dirs, norms)]
    for a, b in itertools.combinations(reps, 2):
        cost = offset_cost(spec, tuple(max(x, y) for x, y in zip(a, b)), 1)
        if cost is None or cost > eps:
            return False
    return True


def _rationally_independent(vecs):
    """Gaussian elimination over Q on the rows."""
    rows = [list(map(Fraction, v)) for v in vecs]
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(vecs)


# -- maximal noise subfunctors --------------------------------------------


def _intersect_bases(a: Mat, b: Mat) -> Mat:
    """Column-reduced basis of colspan(a) & colspan(b): the kernel of the
    two quotient maps stacked."""
    return fp.column_reduce(fp.kernel_basis(
        fp.quotient_map(a, a.rows).vstack(fp.quotient_map(b, b.rows))))


def max_noise_submodule(spec, F: GridModule, eps) -> Submodule:
    """The largest subfunctor of F lying within noise level eps."""
    eps = Fraction(eps)
    if isinstance(spec, (ConeNoise, VNormNoise)):
        if not closed_under_sums(spec, eps):
            raise NotClosedUnderSums(f"level {eps}")
        _, corner, corner_ok = _kill_offsets(spec, F.alpha, F.box, F.r, eps)
        if not corner_ok:
            raise NotClosedUnderSums(
                f"offset set at level {eps} has no componentwise maximum")
        basis = {v: fp.column_reduce(
                     fp.kernel_basis(evaluate_map(F, v, add(v, corner))))
                 for v in F.points()}
        return Submodule(F, basis)
    if isinstance(spec, DomainNoise):
        boxes = spec.region(eps)
        bad = [v for v in F.points()
               if F.dims[v] and not _cell_covered(*_cell(F, v), boxes)]
        basis = {}
        for v in F.points():
            block = None
            for w in bad:
                if leq(v, w):
                    m = evaluate_map(F, v, w)
                    block = m if block is None else block.vstack(m)
            if block is None:
                basis[v] = Mat.identity(F.dims[v], F.p)
            else:
                basis[v] = fp.column_reduce(fp.kernel_basis(block))
        return Submodule(F, basis)
    if isinstance(spec, Intersection):
        parts = [max_noise_submodule(part, F, eps) for part in spec.parts]
        basis = {}
        for v in F.points():
            cur = parts[0].basis[v]
            for s in parts[1:]:
                cur = _intersect_bases(cur, s.basis[v])
            basis[v] = cur
        return Submodule(F, basis)
    raise NotClosedUnderSums(
        f"{type(spec).__name__} has no maximal noise subfunctor")


def noise_candidates(spec, F: GridModule):
    """The finitely many eps values where membership can change for F."""
    if isinstance(spec, (ConeNoise, VNormNoise)):
        return list(_levels_and_kills(spec, F.alpha, F.box, F.r)[0])
    if isinstance(spec, (DomainNoise, DimensionNoise)):
        return sorted({e for e, _ in spec.steps} | {Fraction(0)})
    if isinstance(spec, Intersection):
        out = set()
        for part in spec.parts:
            out.update(noise_candidates(part, F))
        return sorted(out)
    raise UnsupportedNoise(type(spec).__name__)


def max_noise_below(spec, F: GridModule, t) -> Submodule:
    """Union over tau < t of the maximal tau-noise subfunctors; realized at
    the largest candidate level strictly below t."""
    t = Fraction(t)
    below = [c for c in noise_candidates(spec, F) if c < t]
    if not below:
        return zero_submodule(F)
    return max_noise_submodule(spec, F, max(below))


# -- CLI string form -------------------------------------------------------


def parse_noise_spec(text: str):
    """e.g. cone:1,1  vnorm:1,0;0,1  dim:0@0,2@1,4@2
    domain:@1=box(0,0,3,3)  parts joined with '&' intersect."""
    text = text.strip()
    if "&" in text:
        return Intersection(tuple(parse_noise_spec(p)
                                  for p in text.split("&")))
    if ":" not in text:
        raise ParseError(0, f"missing ':' in noise spec {text!r}")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind in ("cone", "vnorm"):
            vecs = tuple(tuple(Fraction(c) for c in part.split(","))
                         for part in body.split(";"))
            return ConeNoise(vecs) if kind == "cone" else VNormNoise(vecs)
        if kind == "dim":
            steps = []
            for part in body.split(","):
                n, _, e = part.partition("@")
                steps.append((Fraction(e), int(n)))
            return DimensionNoise(tuple(sorted(steps)))
        if kind == "domain":
            steps = []
            for part in body.split(";"):
                if not part.startswith("@"):
                    raise ValueError("domain steps look like @eps=box(...)")
                e, _, rest = part[1:].partition("=")
                boxes = []
                for b in rest.split("+"):
                    b = b.strip()
                    if not (b.startswith("box(") and b.endswith(")")):
                        raise ValueError(f"bad box {b!r}")
                    nums = b[4:-1].split(",")
                    if len(nums) % 2:
                        raise ValueError("box needs an even argument count")
                    r = len(nums) // 2
                    lo = tuple(Fraction(c) for c in nums[:r])
                    hi = tuple(None if c.strip() in ("inf", "none")
                               else Fraction(c) for c in nums[r:])
                    boxes.append((lo, hi))
                steps.append((Fraction(e), tuple(boxes)))
            return DomainNoise(tuple(sorted(steps)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(0, f"bad noise spec {text!r}: {exc}") from None
    raise ParseError(0, f"unknown noise kind {kind!r}")
