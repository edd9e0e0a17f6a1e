"""Interval decomposition of one-parameter modules.

Multiplicities come from inclusion-exclusion over the ranks of the internal
maps, which is deterministic and never has to choose basis vectors. A bar
that is still alive at the box face counts as free (the stored data cannot
distinguish it from one that persists forever, and compact tame modules have
stabilized there).
"""

from __future__ import annotations

from . import field as fp
from .errors import NotOneDimensional
from .grid import Bar, GridModule, direct_sum, make_bar, zero_module


def _rank_table(F: GridModule):
    """(w, u) -> rank F(w <= u) for w <= u, each F(w <= u) one more edge on
    the running product from w."""
    n = F.box
    rk = {}
    for w in range(n + 1):
        rk[(w, w)] = F.dims[(w,)]
        m = None
        for u in range(w + 1, n + 1):
            edge = F.edge((u - 1,), 0)
            m = edge if m is None else edge @ m
            rk[(w, u)] = fp.rank(m)
    return rk


def decompose(F: GridModule) -> list[Bar]:
    """Interval summands of an r=1 module, with multiplicity, sorted."""
    if F.r != 1:
        raise NotOneDimensional(f"r={F.r}")
    n = F.box
    rk = _rank_table(F)

    def r(w, u):
        return rk[(w, u)] if w >= 0 else 0

    bars = []
    for w in range(n + 1):
        for u in range(w + 1, n + 1):
            mult = (r(w, u - 1) - r(w, u)) - (r(w - 1, u - 1) - r(w - 1, u))
            assert mult >= 0
            bars.extend([Bar((w,), (u,))] * mult)
        free = r(w, n) - r(w - 1, n)
        assert free >= 0
        bars.extend([Bar((w,), None)] * free)
    bars.sort(key=lambda b: (b.start, b.end is None, b.end or ()))
    return bars


def reconstruct(bars, box, alpha, p) -> GridModule:
    """Direct sum of interval modules on the given grid."""
    F = zero_module(1, alpha, box, p)
    for b in bars:
        F = direct_sum(F, make_bar(b, box, alpha, p))
    return F


def bar_lengths(F: GridModule):
    """Rational (length, None-for-infinite) per summand, sorted descending."""
    out = []
    for b in decompose(F):
        if b.end is None:
            out.append(None)
        else:
            out.append(F.alpha * (b.end[0] - b.start[0]))
    return sorted(out, key=lambda x: (x is None, x), reverse=True)
