"""Noise systems: membership, size, closure under sums, maximal noise parts.

The cone-shaped systems are decided exactly by a finite reduction: for a
lattice offset m define cost(m) as the smallest norm of a cone vector
dominating alpha*m componentwise. Because kernels only grow along an axis
(F(u<=u+a) = 0 forces F(u<=u+a') = 0 for a <= a'), a module lies within
noise level eps iff every nonzero element at every lattice point is killed
by some offset of cost at most eps. All polyhedral questions are answered by
Fourier-Motzkin elimination over the rationals, so the answers are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import field as fp
from . import polyhedra as ph
from .errors import (ElementEnumerationTooLarge, NotClosedUnderSums,
                     ParseError, UnsupportedNoise)
from .field import Mat
from .grid import GridModule, add, box_points, evaluate_map, leq
from .structure import Submodule

INFINITE = float("inf")

ELEMENT_CAP = 2 ** 16


# -- spec types ------------------------------------------------------------


@dataclass(frozen=True)
class ConeNoise:
    """Shifts along the cone spanned by the generators, sup-norm sized."""
    generators: tuple  # tuple of tuples of Fraction, componentwise >= 0

    def __post_init__(self):
        # tuples keep the spec hashable, and so a key of the cost-table memo
        object.__setattr__(self, "generators",
                           tuple(tuple(g) for g in self.generators))
        if not self.generators:
            raise ValueError("cone needs at least one generator")
        for g in self.generators:
            if all(c == 0 for c in g):
                raise ValueError("cone generators must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("cone generators must be componentwise >= 0")

    @property
    def r(self):
        return len(self.generators[0])


@dataclass(frozen=True)
class VNormNoise:
    """Shifts measured by the smallest max-coefficient representation
    w = sum a_k v_k with a_k >= 0."""
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors",
                           tuple(tuple(g) for g in self.vectors))
        if not self.vectors:
            raise ValueError("need at least one vector")
        for g in self.vectors:
            if all(c == 0 for c in g):
                raise ValueError("vectors must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("vectors must be componentwise >= 0")

    @property
    def r(self):
        return len(self.vectors[0])


@dataclass(frozen=True)
class DomainNoise:
    """F is eps-small when its support sits inside the region at level eps.

    steps: ((eps, boxes), ...) sorted by eps; boxes are half-open
    (lo, hi) with hi component None meaning unbounded. Regions must be
    nested upward in eps.
    """
    steps: tuple

    def __post_init__(self):
        eps_vals = [s[0] for s in self.steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        for (_, lo_boxes), (_, hi_boxes) in zip(self.steps, self.steps[1:]):
            for lo, hi in lo_boxes:
                if not _cell_covered(lo, hi, hi_boxes):
                    raise ValueError("domain regions must be nested in eps")

    def region(self, eps):
        best = ()
        for e, boxes in self.steps:
            if e <= eps:
                best = boxes
        return best


@dataclass(frozen=True)
class DimensionNoise:
    """F is eps-small when dim F(v) <= n(eps) everywhere.

    steps: ((eps, n), ...) sorted; the threshold is the value at the largest
    breakpoint <= eps (0 before the first one). The sequence must be
    superadditive: n(a) + n(b) <= n(a+b)."""
    steps: tuple

    def __post_init__(self):
        eps_vals = [s[0] for s in self.steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        if any(n < 0 for _, n in self.steps):
            raise ValueError("thresholds must be >= 0")
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


@dataclass(frozen=True)
class Intersection:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("need at least one part")


# -- offset costs ----------------------------------------------------------


def _cone_cost_system(gens, target):
    """Constraints for: a >= 0, (sum_j a_j g_j)_i >= target_i, each
    component <= t, with variables (t, a_1..a_g). Returns constraints."""
    ng, r = len(gens), len(gens[0])
    cons = []
    for j in range(ng):
        cons.append((tuple(-1 if k == j + 1 else 0 for k in range(ng + 1)),
                     Fraction(0), False))
    for i in range(r):
        row = [Fraction(0)] * (ng + 1)
        for j, g in enumerate(gens):
            row[j + 1] = -Fraction(g[i])
        cons.append((tuple(row), -Fraction(target[i]), False))  # w_i >= target
        row2 = [Fraction(0)] * (ng + 1)
        row2[0] = Fraction(-1)
        for j, g in enumerate(gens):
            row2[j + 1] = Fraction(g[i])
        cons.append((tuple(row2), Fraction(0), False))          # w_i <= t
    return cons, ng + 1


def _vnorm_cost_system(vecs, target):
    """Variables (t, a_1..a_k): a >= 0, sum a_k v_k >= target, a_k <= t."""
    ng = len(vecs)
    r = len(vecs[0])
    cons = []
    for j in range(ng):
        cons.append((tuple(-1 if k == j + 1 else 0 for k in range(ng + 1)),
                     Fraction(0), False))
        row = [Fraction(0)] * (ng + 1)
        row[0], row[j + 1] = Fraction(-1), Fraction(1)
        cons.append((tuple(row), Fraction(0), False))           # a_j <= t
    for i in range(r):
        row = [Fraction(0)] * (ng + 1)
        for j, g in enumerate(vecs):
            row[j + 1] = -Fraction(g[i])
        cons.append((tuple(row), -Fraction(target[i]), False))
    return cons, ng + 1


def offset_cost(spec, m, alpha):
    """Smallest norm of a cone vector dominating alpha*m, or None."""
    target = tuple(Fraction(alpha) * c for c in m)
    if isinstance(spec, ConeNoise):
        cons, nv = _cone_cost_system(spec.generators, target)
    elif isinstance(spec, VNormNoise):
        cons, nv = _vnorm_cost_system(spec.vectors, target)
    else:
        raise UnsupportedNoise(type(spec).__name__)
    return ph.minimize(cons, nv, 0)


@lru_cache(maxsize=None)
def _cost_table(spec, alpha, box, r):
    """offset -> offset_cost for every in-box offset. The package reads
    offset costs only from here; memoised, so callers must not mutate it."""
    return {m: offset_cost(spec, m, alpha) for m in box_points(r, box)}


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
    if isinstance(spec, ConeNoise):
        dirs = spec.generators
    elif isinstance(spec, VNormNoise):
        dirs = spec.vectors
    else:
        raise UnsupportedNoise(type(spec).__name__)
    ng = len(dirs)
    for m in box_points(r, top):
        found = False
        for k in range(max(r, ng)):
            cons = []
            for j in range(ng):
                cons.append((tuple(-1 if t == j else 0 for t in range(ng)),
                             Fraction(0), False))
            for i in range(r):
                row = tuple(-Fraction(g[i]) for g in dirs)
                cons.append((row, -alpha * m[i], False))            # w_i >= m_i a
                cons.append((tuple(-c for c in row),
                             alpha * (m[i] + 1), True))             # w_i < (m_i+1)a
            if isinstance(spec, ConeNoise):
                if k >= r:
                    continue
                for i in range(r):
                    cons.append((tuple(Fraction(g[i]) for g in dirs),
                                 eps, False))                       # w_i <= eps
                cons.append((tuple(-Fraction(g[k]) for g in dirs),
                             -eps, False))                          # w_k >= eps
            else:
                if k >= ng:
                    continue
                for j in range(ng):
                    cons.append((tuple(1 if t == j else 0 for t in range(ng)),
                                 eps, False))                       # a_j <= eps
                cons.append((tuple(-1 if t == k else 0 for t in range(ng)),
                             -eps, False))                          # a_k >= eps
            if ph.feasible(cons, ng):
                found = True
                break
        if found:
            out.add(m)
    return out


# -- membership ------------------------------------------------------------


def _domain_cells(F: GridModule):
    cells = []
    for v in F.points():
        if F.dims[v] == 0:
            continue
        lo = tuple(F.alpha * c for c in v)
        hi = tuple(None if c == F.box else F.alpha * (c + 1) for c in v)
        cells.append((lo, hi))
    return cells


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


def _kill_offsets(spec, F, eps):
    """Down-closed set of in-box offsets of cost <= eps, as a cost table
    restriction; returns (all_offsets, maximal_offsets, corner_ok)."""
    costs = _cost_table(spec, F.alpha, F.box, F.r)
    good = [m for m, c in costs.items() if c is not None and c <= eps]
    maximal = [m for m in good
               if not any(m != m2 and leq(m, m2) for m2 in good)]
    corner = tuple(max(m[i] for m in good) for i in range(F.r)) if good \
        else (0,) * F.r
    corner_cost = costs.get(corner)
    corner_ok = corner_cost is not None and corner_cost <= eps
    return good, maximal, corner, corner_ok


def _elements(dim, p):
    if p ** dim > ELEMENT_CAP:
        raise ElementEnumerationTooLarge(
            f"{p}^{dim} exceeds the {ELEMENT_CAP} element cap")
    return itertools.product(range(p), repeat=dim)


def _cone_contains(spec, F, eps, want_certificate=False):
    _, maximal, corner, corner_ok = _kill_offsets(spec, F, eps)
    cert = {}
    if corner_ok and not want_certificate:
        for v in F.points():
            if F.dims[v] and not evaluate_map(F, v, add(v, corner)).is_zero():
                return False, None
        return True, None
    kills = {}
    for v in F.points():
        if F.dims[v] == 0:
            continue
        mats = [(m, evaluate_map(F, v, add(v, m))) for m in maximal]
        kills[v] = mats
    ok = True
    for v, mats in kills.items():
        for x in _elements(F.dims[v], F.p):
            if not any(x):
                continue
            hit = None
            for m, mat in mats:
                if not any(mat.apply(x)):
                    hit = m
                    break
            if hit is None:
                ok = False
                if want_certificate:
                    cert[(v, x)] = None
                else:
                    return False, None
            elif want_certificate:
                cert[(v, x)] = hit
    return ok, (cert if want_certificate else None)


def contains(spec, F: GridModule, eps) -> bool:
    """Is F within noise level eps?"""
    eps = Fraction(eps)
    if eps < 0:
        return False
    if isinstance(spec, (ConeNoise, VNormNoise)):
        ok, _ = _cone_contains(spec, F, eps)
        return ok
    if isinstance(spec, DomainNoise):
        boxes = spec.region(eps)
        return all(_cell_covered(lo, hi, boxes)
                   for lo, hi in _domain_cells(F))
    if isinstance(spec, DimensionNoise):
        n = spec.threshold(eps)
        return max(F.dims.values(), default=0) <= n
    if isinstance(spec, Intersection):
        return all(contains(part, F, eps) for part in spec.parts)
    raise UnsupportedNoise(type(spec).__name__)


def offset_certificate(spec, F: GridModule, eps):
    """Per nonzero element, a killing lattice offset of cost <= eps, or
    None when that element has no witness (cone-shaped specs only)."""
    if not isinstance(spec, (ConeNoise, VNormNoise)):
        raise UnsupportedNoise("certificates exist for cone-shaped specs only")
    _, cert = _cone_contains(spec, F, Fraction(eps), want_certificate=True)
    return cert


def noise_size(spec, F: GridModule):
    """Smallest eps with contains(spec, F, eps), or INFINITE."""
    if F.total_dim() == 0:
        return Fraction(0)
    if isinstance(spec, Intersection):
        sizes = [noise_size(part, F) for part in spec.parts]
        worst = max(sizes)
        # parts may attain their minima at different eps; re-check at the max
        if worst != INFINITE and not contains(spec, F, worst):
            cands = sorted({s for s in sizes if s != INFINITE})
            for e in cands:
                if contains(spec, F, e):
                    return e
            return INFINITE
        return worst
    for eps in noise_candidates(spec, F):
        if contains(spec, F, eps):
            return eps
    return INFINITE


# -- closure under direct sums --------------------------------------------


def _sup_norm(g):
    return max(Fraction(c) for c in g)


def closed_under_sums(spec, eps) -> bool:
    """Can any two eps-small pieces be summed without leaving level eps?
    Exact for single rays and for generator families with one common norm
    whose sum keeps that norm; otherwise decided on the generators' norm-eps
    representatives and their pairwise joins."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return True
    if isinstance(spec, ConeNoise):
        gens = spec.generators
        if len(gens) == 1:
            return True
        norms = [_sup_norm(g) for g in gens]
        total = tuple(sum(Fraction(g[i]) for g in gens)
                      for i in range(spec.r))
        if len(set(norms)) == 1 and _sup_norm(total) == norms[0]:
            return True
        reps = [tuple(eps * Fraction(c) / n for c in g)
                for g, n in zip(gens, norms)]
        for a, b in itertools.combinations(reps, 2):
            join = tuple(max(x, y) for x, y in zip(a, b))
            cons, nv = _cone_cost_system(gens, join)
            best = ph.minimize(cons, nv, 0)
            if best is None or best > eps:
                return False
        return True
    if isinstance(spec, VNormNoise):
        vecs = spec.vectors
        if len(vecs) == 1:
            return True
        if _rationally_independent(vecs):
            return True
        reps = [tuple(eps * Fraction(c) for c in v) for v in vecs]
        for a, b in itertools.combinations(reps, 2):
            join = tuple(max(x, y) for x, y in zip(a, b))
            cons, nv = _vnorm_cost_system(vecs, join)
            best = ph.minimize(cons, nv, 0)
            if best is None or best > eps:
                return False
        return True
    raise UnsupportedNoise("closure test applies to cone-shaped specs")


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
    """Column-reduced basis of colspan(a) & colspan(b)."""
    if a.cols == 0 or b.cols == 0:
        return Mat.zeros(a.rows, 0, a.p)
    joint = a.hstack(b.scale(-1))
    ker = fp.kernel_basis(joint)
    cols = []
    for j in range(ker.cols):
        coeffs = ker.col(j)[:a.cols]
        vec = [0] * a.rows
        for k, c in enumerate(coeffs):
            if c:
                col = a.col(k)
                vec = [(x + c * y) % a.p for x, y in zip(vec, col)]
        cols.append(tuple(vec))
    return fp.column_reduce(Mat.from_cols(cols, a.rows, a.p))


def max_noise_submodule(spec, F: GridModule, eps) -> Submodule:
    """The largest subfunctor of F lying within noise level eps."""
    eps = Fraction(eps)
    if isinstance(spec, (ConeNoise, VNormNoise)):
        if not closed_under_sums(spec, eps):
            raise NotClosedUnderSums(f"level {eps}")
        good, _, corner, corner_ok = _kill_offsets(spec, F, eps)
        if not corner_ok:
            raise NotClosedUnderSums(
                f"offset set at level {eps} has no componentwise maximum")
        basis = {v: fp.column_reduce(
                     fp.kernel_basis(evaluate_map(F, v, add(v, corner))))
                 for v in F.points()}
        return Submodule(F, basis)
    if isinstance(spec, DomainNoise):
        boxes = spec.region(eps)
        cells = {v: (tuple(F.alpha * c for c in v),
                     tuple(None if c == F.box else F.alpha * (c + 1)
                           for c in v))
                 for v in F.points()}
        bad = [v for v in F.points()
               if F.dims[v] and not _cell_covered(*cells[v], boxes)]
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
        costs = _cost_table(spec, F.alpha, F.box, F.r)
        return sorted({c for c in costs.values() if c is not None})
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
        from .structure import zero_submodule
        return zero_submodule(F)
    return max_noise_submodule(spec, F, max(below))


# -- union-of-rays demonstration helper ------------------------------------


def in_ray_union(F: GridModule, rays, eps) -> bool:
    """Does every nonzero element die along *some* single ray shift of norm
    eps? This set-valued variant is not a noise system (it fails additivity)
    and exists to demonstrate why cones are required."""
    eps = Fraction(eps)
    offsets = []
    for g in rays:
        n = _sup_norm(g)
        w = tuple(eps * Fraction(c) / n for c in g)
        offsets.append(tuple(int(c / F.alpha) for c in w))
    for v in F.points():
        if F.dims[v] == 0:
            continue
        mats = [evaluate_map(F, v, add(v, m)) for m in offsets]
        for x in _elements(F.dims[v], F.p):
            if not any(x):
                continue
            if not any(not any(mat.apply(x)) for mat in mats):
                return False
    return True


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
