"""Assertions the tests apply to library output: naturality of a map,
closedness of a submodule, and pointwise epi/mono."""

from pnoise import field as fp
from pnoise.errors import NonNatural
from pnoise.grid import add, unit
from pnoise.structure import NatMap, Submodule


def check_natural(phi: NatMap):
    F, G = phi.source, phi.target
    if (F.r, F.alpha, F.box, F.p) != (G.r, G.alpha, G.box, G.p):
        raise NonNatural("source/target presentations differ")
    for v in F.points():
        m = phi.mats[v]
        if (m.rows, m.cols) != (G.dims[v], F.dims[v]):
            raise NonNatural(f"shape mismatch at {v}")
        for i in range(F.r):
            if v[i] == F.box:
                continue
            w = add(v, unit(i, F.r))
            lhs = phi.mats[w] @ F.edge(v, i)
            rhs = G.edge(v, i) @ m
            if lhs.data != rhs.data:
                raise NonNatural(f"naturality fails at {v} axis {i}")
    return True


def is_closed(S: Submodule) -> bool:
    F = S.parent
    for v in F.points():
        for i in range(F.r):
            if v[i] == F.box:
                continue
            w = add(v, unit(i, F.r))
            if not fp.span_contains(S.basis[w], F.edge(v, i) @ S.basis[v]):
                return False
    return True


def is_epi(phi: NatMap) -> bool:
    return all(fp.rank(phi.mats[v]) == phi.target.dims[v]
               for v in phi.source.points())


def is_mono(phi: NatMap) -> bool:
    return all(fp.rank(phi.mats[v]) == phi.source.dims[v]
               for v in phi.source.points())
