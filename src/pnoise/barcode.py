"""Interval decomposition of one-parameter modules.

`decompose` is the standard persistence sweep (Zomorodian-Carlsson,
*Computing persistent homology*, DCG 2005), one pass along the edges. It
carries a basis of F(u) whose vectors are tagged with their births and kept
oldest first. At each edge the carried vectors are mapped into F(u+1) and
reduced left to right over F_p with the field's pivot rule (first nonzero
entry). A vector that falls into the span of older ones closes its bar at
u+1; the unit vectors off the surviving pivots complete a basis of F(u+1)
and are born at u+1. By the elder rule the carried vectors born at or before
w span im F(w <= u), so the bars are the ones inclusion-exclusion over the
ranks of the internal maps gives, for one reduction per edge instead of one
rank per pair w <= u. Which vectors are carried depends on the basis of each
F(u); the answer does not, because the barcode is unique.

A bar that is still alive at the box face counts as free (the stored data
cannot distinguish it from one that persists forever, and compact tame
modules have stabilized there).

`decompose` sweeps each module object once: it remembers the bars of the
last `_MEMO_SIZE` modules it swept, keyed by the identity of the module,
not by its content. A scan of `fcf.is_interleaved` over several tau asks
for the same two modules again and reuses both barcodes, while a module
that merely equals one swept before is swept afresh, so the work done for
a module does not depend on which modules came earlier. The memo holds
each module it names, so no other object can take its id; `GridModule` is
immutable by convention, so the bars cannot go stale. The bound keeps a
long run from holding on to the modules it has finished with.
"""

from __future__ import annotations

from operator import mul

from .errors import NotOneDimensional
from .grid import Bar, GridModule, direct_sum, make_bar, zero_module


def _born(u, d, pivots=()):
    """(u, e_i) for the unit vectors e_i of F_p^d off the given pivots."""
    return [(u, [int(i == j) for j in range(d)])
            for i in range(d) if i not in pivots]


# enough for the two modules of an interleaving scan, with room to spare
_MEMO_SIZE = 4
_memo = {}  # id(F) -> (F, bars as a tuple), oldest sweep first


def decompose(F: GridModule) -> list[Bar]:
    """Interval summands of an r=1 module, with multiplicity, sorted."""
    if F.r != 1:
        raise NotOneDimensional(f"r={F.r}")
    # Keyed by identity, not content: over F_2 with small dims few bases
    # exist, so a content key (dims and edge matrices) hits presentations
    # repeated across unrelated calls, a gain of the caller's inputs rather
    # than of this code. A barcode slot on GridModule would put a field of
    # this module into `grid` and change the records' fields.
    hit = _memo.get(id(F))
    if hit is None:
        if len(_memo) >= _MEMO_SIZE:
            # pop, not del: two threads may evict the same oldest entry
            _memo.pop(next(iter(_memo)), None)
        hit = _memo[id(F)] = (F, tuple(_sweep(F)))
    return list(hit[1])  # a fresh list: callers may change theirs


def _sweep(F: GridModule) -> list[Bar]:
    """The elder-rule sweep of an r=1 module, bars sorted."""
    p = F.p
    bars = []
    carried = _born(0, F.dims[(0,)])  # (birth, vector), oldest first
    for u in range(F.box):
        rows = F.edge((u,), 0).data
        kept, pivots = [], []  # each kept vector is 1 at its pivot
        for birth, x in carried:
            y = [sum(map(mul, row, x)) % p for row in rows]
            for (_, k), c in zip(kept, pivots):
                a = y[c]
                if a:
                    y = [(s - a * t) % p for s, t in zip(y, k)]
            c = next((i for i, s in enumerate(y) if s), None)
            if c is None:
                bars.append(Bar((birth,), (u + 1,)))
                continue
            inv = pow(y[c], p - 2, p)
            kept.append((birth, [s * inv % p for s in y]))
            pivots.append(c)
        carried = kept + _born(u + 1, F.dims[(u + 1,)], pivots)
    bars.extend(Bar((birth,), None) for birth, _ in carried)
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
