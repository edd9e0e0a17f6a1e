"""Denoising: replace a module by a t-close representative of minimal rank.

Two modes. Quotient mode divides out the maximal sub-t noise part; it is
always certified in one parameter but can overshoot the minimal rank in
higher dimensions. Subfunctor mode searches for a minimum-rank submodule
whose inclusion is quieter than t, then shrinks it to an inclusion-minimal
representative by pushing generators up the grid.
"""

from __future__ import annotations

from fractions import Fraction

from . import fcf as fc
from . import noise as ns
from . import structure as st
from .errors import SearchSpaceTooLarge, UnsupportedNoise
from .grid import GridModule, add, unit
from .record import Record


class Denoising(Record):
    """A denoised module at level t, with its mode, whether its rank is
    certified minimal, and that rank. Immutable by convention."""
    __slots__ = ("t", "module", "mode", "certified", "rank")

    def __init__(self, t, module, mode, certified, rank):
        self.t = t
        self.module = module
        self.mode = mode            # "quotient" | "subfunctor"
        self.certified = certified
        self.rank = rank


def _exact_bar_value(spec, F, t):
    try:
        return fc.bar_search(spec, F, [t], engine="exhaustive").value(t)
    except (SearchSpaceTooLarge, UnsupportedNoise):
        return None


def quotient_denoise(spec, F: GridModule, t) -> Denoising:
    t = Fraction(t)
    S = ns.max_noise_below(spec, F, t)
    C, _ = st.quotient_by_submodule(F, S)
    rank = st.rank(C)
    if F.r == 1:
        certified = True        # the quotient realizes the bar exactly here
    else:
        bar = _exact_bar_value(spec, F, t)
        certified = bar is not None and bar == rank
    return Denoising(t, C, "quotient", certified, rank)


def _seeds_of(S: st.Submodule):
    M, incl = st.submodule_to_module(S)
    return [(v, incl.mats[v].apply(x)) for v, x in st.minimal_generators(M)]


def _shrink(scorer: ns.QuotientScorer, S: st.Submodule, t, rank):
    """Greedy inclusion-minimization: drop redundant generators, then push
    surviving generators forward along axes while the span stays valid."""
    F = scorer.F
    seeds = _seeds_of(S)
    changed = True
    while changed:
        changed = False
        for k in range(len(seeds)):
            trial = seeds[:k] + seeds[k + 1:]
            S2 = st.span_submodule(F, trial)
            if ns.quotient_size(scorer, S2) < t and \
                    st.submodule_rank(S2) >= rank:
                seeds, S, changed = trial, S2, True
                break
        if changed:
            continue
        for k, (v, x) in enumerate(seeds):
            for i in range(F.r):
                if v[i] == F.box:
                    continue
                w = add(v, unit(i, F.r))
                y = F.edge(v, i).apply(x)
                if not any(y):
                    continue
                trial = seeds[:k] + [(w, y)] + seeds[k + 1:]
                S2 = st.span_submodule(F, trial)
                if st.submodules_equal(S2, S):
                    continue
                if ns.quotient_size(scorer, S2) >= t or \
                        st.submodule_rank(S2) != rank:
                    continue
                seeds, S, changed = trial, S2, True
                break
            if changed:
                break
    return S


def subfunctor_denoise(spec, F: GridModule, t, engine="exhaustive") \
        -> Denoising:
    t = Fraction(t)
    rank, S, exact = fc.minimal_rank_submodule(spec, F, t, engine)
    scorer = ns.QuotientScorer(spec, F)
    if rank > 0:
        S = _shrink(scorer, S, t, rank)
    M, _ = st.submodule_to_module(S)
    # the inclusion's kernel is 0: its budget is the size of F/S
    certified = exact and ns.quotient_size(scorer, S) < t
    return Denoising(t, M, "subfunctor", certified, st.submodule_rank(S))


def denoising_betti_sequence(spec, F: GridModule, t_values,
                             mode="quotient"):
    """beta_0 multisets of the denoised modules, one per t. Quotient-mode
    diagrams must nest downward as t grows."""
    out = []
    for t in sorted(Fraction(x) for x in t_values):
        if t == 0:
            out.append(st.betti0(F))
            continue
        if mode == "quotient":
            out.append(st.betti0(quotient_denoise(spec, F, t).module))
        elif mode == "subfunctor":
            out.append(st.betti0(subfunctor_denoise(spec, F, t).module))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    if mode == "quotient":
        for earlier, later in zip(out, out[1:]):
            for grade, mult in later.items():
                assert earlier.get(grade, 0) >= mult, \
                    "quotient denoising lost the nesting property"
    return out
