import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from pnoise import field as fp, structure as st
from pnoise.barcode import _rank_table, bar_lengths, decompose, reconstruct
from pnoise.errors import NotOneDimensional
from pnoise.field import Mat
from pnoise.grid import (Bar, evaluate_map, make_bar, make_free, make_module,
                         modules_iso_rankwise)

from conftest import random_line_module


def peel_oracle(F):
    """Independent decomposition: repeatedly split off the bar generated by
    the first basis vector at the earliest populated grade and quotient it
    away. Valid because every one-parameter module is a sum of intervals and
    the quotient of a sum of intervals by one generated cyclic piece drops
    exactly the longest interval that generator touches."""
    bars = []
    cur = F
    while cur.total_dim() > 0:
        w = min(v[0] for v in cur.points() if cur.dims[v] > 0)
        x = tuple(1 if i == 0 else 0 for i in range(cur.dims[(w,)]))
        death = None
        for u in range(w, cur.box + 1):
            if any(evaluate_map(cur, (w,), (u,)).apply(x)):
                death = u
        if death == cur.box:
            bars.append(Bar((w,), None))
        else:
            bars.append(Bar((w,), (death + 1,)))
        S = st.span_submodule(cur, [((w,), x)])
        cur, _ = st.quotient_by_submodule(cur, S)
    return Counter(bars)


def test_line_module_example():
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    F = make_module(1, Q(1), 4, 3, dims, edges)
    assert Counter(decompose(F)) == Counter({Bar((0,), (1,)): 1,
                                             Bar((0,), (2,)): 1,
                                             Bar((0,), None): 1,
                                             Bar((2,), (3,)): 1})


def test_bar_and_free():
    F = make_bar(Bar((1,), (3,)), 4, Q(1), 2)
    assert decompose(F) == [Bar((1,), (3,))]
    assert decompose(make_free((2,), 4, Q(1), 2)) == [Bar((2,), None)]


def test_requires_one_parameter():
    with pytest.raises(NotOneDimensional):
        decompose(make_free((0, 0), 1, Q(1), 2))


def test_reconstruct_round_trip_random():
    rng = random.Random(42)
    for _ in range(25):
        F = random_line_module(rng, box=4, p=rng.choice([2, 3, 5]))
        bars = decompose(F)
        G = reconstruct(bars, F.box, F.alpha, F.p)
        assert modules_iso_rankwise(F, G)


def test_matches_peeling_oracle():
    rng = random.Random(7)
    for _ in range(20):
        F = random_line_module(rng, box=3, p=rng.choice([2, 3]))
        assert Counter(decompose(F)) == peel_oracle(F)


def test_bar_lengths_respect_alpha():
    F = make_bar(Bar((1,), (3,)), 4, Q(1, 2), 2)
    assert bar_lengths(F) == [Q(1)]
    assert bar_lengths(make_free((0,), 2, Q(1, 2), 2)) == [None]


def test_total_dim_conserved():
    rng = random.Random(9)
    for _ in range(15):
        F = random_line_module(rng, box=4, p=2)
        bars = decompose(F)
        for v in F.points():
            alive = sum(1 for b in bars
                        if b.start[0] <= v[0] and
                        (b.end is None or v[0] < b.end[0]))
            assert alive == F.dims[v]


def _rank_table_by_pairs(F):
    """rank F(w <= u) from one `evaluate_map` per pair, the table the
    running products replace."""
    return {(w, u): fp.rank(evaluate_map(F, (w,), (u,)))
            for w in range(F.box + 1) for u in range(w, F.box + 1)}


def test_rank_table_matches_per_pair_maps():
    rng = random.Random(13)
    for _ in range(80):
        F = random_line_module(rng, box=rng.randrange(6),
                               p=rng.choice([2, 3]), maxdim=3)
        assert _rank_table(F) == _rank_table_by_pairs(F), (F.dims, F.p)
