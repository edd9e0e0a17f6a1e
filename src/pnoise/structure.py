"""Radical, 0-Betti diagram, minimal covers, and the calculus of natural
transformations (kernel / image / cokernel, submodules, quotients).

Conventions: a Submodule stores a column-reduced basis of the chosen subspace
at every lattice point, so equal submodules have bit-identical bases. All
quotient constructions use the deterministic quotient_map pivot rule and are
therefore reproducible.
"""

from __future__ import annotations

from . import field as fp
from .errors import NotClosed
from .field import Mat
from .grid import GridModule, add, evaluate_map, leq, unit
from .record import Record


class NatMap(Record):
    """A natural map source -> target, one matrix per lattice point.
    Immutable by convention; unhashable, since mats is a dict."""
    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = mats  # point -> Mat


class Submodule(Record):
    """A subfunctor of parent, one basis per lattice point. Immutable by
    convention; unhashable, since basis is a dict."""
    __slots__ = ("parent", "basis")

    def __init__(self, parent, basis):
        self.parent = parent
        self.basis = basis  # point -> Mat, independent column-reduced columns

    def dim(self, v):
        return self.basis[v].cols


def order(points):
    """Linear extension of the componentwise order: by coordinate sum, then lex."""
    return sorted(points, key=lambda v: (sum(v), v))


def identity_map(F: GridModule) -> NatMap:
    return NatMap(F, F, {v: Mat.identity(F.dims[v], F.p) for v in F.points()})


# -- submodule helpers -----------------------------------------------------


def zero_submodule(F: GridModule) -> Submodule:
    return Submodule(F, {v: Mat.zeros(F.dims[v], 0, F.p) for v in F.points()})


def full_submodule(F: GridModule) -> Submodule:
    return Submodule(F, {v: Mat.identity(F.dims[v], F.p) for v in F.points()})


def submodules_equal(S: Submodule, T: Submodule) -> bool:
    return all(S.basis[v].data == T.basis[v].data for v in S.parent.points())


# -- radical / betti -------------------------------------------------------


def predecessors(v):
    """(u, i) for each immediate predecessor u of v, one step below along
    axis i."""
    return [(tuple(c - 1 if k == i else c for k, c in enumerate(v)), i)
            for i in range(len(v)) if v[i]]


def predecessor_images(F: GridModule, v, basis=None) -> Mat:
    """Columns spanning the sum, in F(v), of the images of the r immediate
    predecessors' spaces: all of F(u), or span(basis[u]) when given."""
    block = Mat.zeros(F.dims[v], 0, F.p)
    for u, i in predecessors(v):
        e = F.edge(u, i)
        block = block.hstack(e if basis is None else e @ basis[u])
    return block


def radical(F: GridModule) -> Submodule:
    """rad(F)(v) = sum of the images of the r immediate predecessor edges."""
    return Submodule(F, {v: fp.column_reduce(predecessor_images(F, v))
                         for v in F.points()})


def betti0(F: GridModule) -> dict:
    """Multiset of generator grades at rational scale: {alpha*v: multiplicity}."""
    rad = radical(F)
    out = {}
    for v in F.points():
        m = F.dims[v] - rad.basis[v].cols
        if m > 0:
            out[tuple(F.alpha * c for c in v)] = m
    return out


def rank(F: GridModule) -> int:
    return sum(betti0(F).values())


def submodule_rank(S: Submodule) -> int:
    """rank of the closed submodule S, read off its bases: the sum over v of
    dim S(v) minus the dimension of the images of S at v's predecessors."""
    F = S.parent
    return sum(S.basis[v].cols - fp.rank(predecessor_images(F, v, S.basis))
               for v in F.points())


def support(F: GridModule):
    return set(betti0(F).keys())


# -- kernel / image / cokernel --------------------------------------------


def kernel(phi: NatMap) -> Submodule:
    return Submodule(phi.source,
                     {v: fp.column_reduce(fp.kernel_basis(phi.mats[v]))
                      for v in phi.source.points()})


def image(phi: NatMap) -> Submodule:
    return Submodule(phi.target,
                     {v: fp.column_reduce(phi.mats[v])
                      for v in phi.source.points()})


def cokernel(phi: NatMap):
    """Cokernel module plus the projection NatMap from the target."""
    G = phi.target
    im = image(phi)
    q = {v: fp.quotient_map(im.basis[v], G.dims[v]) for v in G.points()}
    dims = {v: q[v].rows for v in G.points()}
    edges = {}
    for (v, i), e in G.edges.items():
        w = add(v, unit(i, G.r))
        if dims[v] == 0:
            edges[(v, i)] = Mat.zeros(dims[w], 0, G.p)
            continue
        section = fp.solve(q[v], Mat.identity(dims[v], G.p))
        edges[(v, i)] = q[w] @ e @ section
    C = GridModule(G.r, G.alpha, G.box, G.p, dims, edges)
    return C, NatMap(G, C, q)


def submodule_to_module(S: Submodule):
    """Present a submodule abstractly; returns (module, inclusion NatMap)."""
    F = S.parent
    dims = {v: S.basis[v].cols for v in F.points()}
    edges = {}
    for (v, i), e in F.edges.items():
        w = add(v, unit(i, F.r))
        pushed = e @ S.basis[v]
        try:
            edges[(v, i)] = fp.solve(S.basis[w], pushed)
        except fp.Infeasible:
            raise NotClosed(f"submodule not closed under edge at {v} axis {i}")
    M = GridModule(F.r, F.alpha, F.box, F.p, dims, edges)
    return M, NatMap(M, F, dict(S.basis))


def quotient_by_submodule(F: GridModule, S: Submodule):
    """F / S with its projection; shorthand for cokernel of the inclusion."""
    _, incl = submodule_to_module(S)
    return cokernel(incl)


def span_submodule(F: GridModule, seeds) -> Submodule:
    """Smallest submodule containing the given (point, vector) seeds;
    ValueError for a seed off the box or of the wrong length."""
    at_point = {v: [] for v in F.points()}
    for v, vec in seeds:
        if v not in at_point or len(vec) != F.dims[v]:
            raise ValueError(f"seed {vec} at {v} is not a vector of F({v})")
        at_point[v].append(tuple(x % F.p for x in vec))
    basis = {}
    for v in order(F.points()):
        block = Mat.from_cols(at_point[v], F.dims[v], F.p)
        basis[v] = fp.column_reduce(
            block.hstack(predecessor_images(F, v, basis)))
    return Submodule(F, basis)


# -- minimal covers --------------------------------------------------------


def minimal_generators(F: GridModule):
    """Deterministic choice of representatives of F/rad: list of (point, vec)."""
    rad = radical(F)
    gens = []
    for v in order(F.points()):
        cur = rad.basis[v]
        for j in range(F.dims[v]):
            e = tuple(1 if k == j else 0 for k in range(F.dims[v]))
            if fp.in_span(cur, e):
                continue
            cur = cur.hstack(Mat.from_cols([e], F.dims[v], F.p))
            gens.append((v, e))
    return gens


def minimal_cover(F: GridModule) -> NatMap:
    """Epimorphism from a free module inducing an iso on semisimple quotients."""
    gens = minimal_generators(F)
    p, r, box = F.p, F.r, F.box
    dims = {v: sum(1 for g, _ in gens if leq(g, v)) for v in F.points()}
    edges = {}
    for v in F.points():
        for i in range(r):
            if v[i] == box:
                continue
            w = add(v, unit(i, r))
            idx_v = [k for k, (g, _) in enumerate(gens) if leq(g, v)]
            idx_w = [k for k, (g, _) in enumerate(gens) if leq(g, w)]
            rows = [[1 if kw == kv else 0 for kv in idx_v] for kw in idx_w]
            edges[(v, i)] = (Mat.from_rows(rows, p) if rows
                             else Mat.zeros(0, len(idx_v), p))
    H = GridModule(r, F.alpha, box, p, dims, edges)
    mats = {}
    for v in F.points():
        cols = []
        for g, vec in gens:
            if leq(g, v):
                cols.append(evaluate_map(F, g, v).apply(vec))
        mats[v] = Mat.from_cols(cols, F.dims[v], p)
    return NatMap(H, F, mats)

