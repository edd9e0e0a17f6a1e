import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from pnoise import barcode as bc, field as fp, structure as st
from pnoise.barcode import bar_lengths, decompose, reconstruct
from pnoise.errors import NotOneDimensional
from pnoise.field import Mat
from pnoise.grid import (Bar, evaluate_map, make_bar, make_free, make_module,
                         modules_iso_rankwise, zero_module)

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
    # refused before the memo is read: r >= 2 modules never enter it
    decompose(make_free((0,), 2, Q(1), 2))
    before = dict(bc._memo)
    with pytest.raises(NotOneDimensional):
        decompose(make_free((0, 0), 1, Q(1), 2))
    assert bc._memo == before


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


def decompose_by_ranks(F):
    """The sweep's oracle: rank F(w <= u) from one `evaluate_map` per pair,
    then each multiplicity by inclusion-exclusion over the ranks."""
    n = F.box
    rk = {(w, u): fp.rank(evaluate_map(F, (w,), (u,)))
          for w in range(n + 1) for u in range(w, n + 1)}

    def r(w, u):
        return rk[(w, u)] if w >= 0 else 0

    bars = []
    for w in range(n + 1):
        for u in range(w + 1, n + 1):
            mult = (r(w, u - 1) - r(w, u)) - (r(w - 1, u - 1) - r(w - 1, u))
            bars.extend([Bar((w,), (u,))] * mult)
        bars.extend([Bar((w,), None)] * (r(w, n) - r(w - 1, n)))
    bars.sort(key=lambda b: (b.start, b.end is None, b.end or ()))
    return bars


def change_basis(F, rng):
    """An isomorphic copy: edge u -> P_{u+1} E_u P_u^-1 for random
    invertible P_u."""
    P = {}
    for v, d in F.dims.items():
        while True:
            m = Mat.from_rows([[rng.randrange(F.p) for _ in range(d)]
                               for _ in range(d)], F.p)
            if fp.rank(m) == d:
                P[v] = m
                break
    edges = {}
    for (v, i), e in F.edges.items():
        inv = fp.solve(P[v], Mat.identity(P[v].rows, F.p))
        edges[(v, i)] = P[(v[0] + 1,)] @ e @ inv if e.rows and e.cols else e
    return make_module(1, F.alpha, F.box, F.p, F.dims, edges)


def test_sweep_matches_rank_inclusion_exclusion():
    rng = random.Random(13)
    for _ in range(400):
        F = random_line_module(rng, box=rng.randrange(9),
                               p=rng.choice([2, 3, 5, 7]),
                               maxdim=rng.randrange(1, 5))
        want = decompose_by_ranks(F)
        assert decompose(F) == want, (F.dims, F.p)
        assert decompose(change_basis(F, rng)) == want, (F.dims, F.p)


def _chain(dims, identities, p=3):
    """A line module with the given dims whose edges are identities between
    equal dims when identities is set, and zero maps otherwise."""
    box = len(dims) - 1
    edges = {}
    for u in range(box):
        a, b = dims[u], dims[u + 1]
        edges[((u,), 0)] = Mat.identity(a, p) if identities and a == b \
            else Mat.zeros(b, a, p)
    return make_module(1, Q(1), box, p,
                       {(u,): d for u, d in enumerate(dims)}, edges)


def test_sweep_edge_cases():
    cases = [
        # box 0: every vector is a free bar
        (make_module(1, Q(1), 0, 5, {(0,): 3}), [Bar((0,), None)] * 3),
        (zero_module(1, Q(1), 0, 2), []),
        # all-zero edges: every vector dies after one step
        (_chain([2, 1, 2], identities=False),
         [Bar((0,), (1,))] * 2 + [Bar((1,), (2,))] + [Bar((2,), None)] * 2),
        # an identity chain: only free bars
        (_chain([2, 2, 2, 2], identities=True), [Bar((0,), None)] * 2),
        # zero dims in the middle cut every bar there
        (_chain([2, 2, 0, 0, 1, 1], identities=True),
         [Bar((0,), (2,))] * 2 + [Bar((4,), None)]),
    ]
    for F, want in cases:
        assert decompose(F) == want, F.dims
        assert decompose_by_ranks(F) == want, F.dims


# -- the memo: each module object is swept once ----------------------------


def _copy(F):
    """An equal module that is a distinct object, as are its dicts."""
    return make_module(1, F.alpha, F.box, F.p, dict(F.dims), dict(F.edges))


def test_memo_matches_the_sweep():
    # each module is dropped after its check, so a later one may take its
    # id: a memo that does not hold its modules would answer with stale bars
    rng = random.Random(17)
    for _ in range(200):
        F = random_line_module(rng, box=rng.randrange(6),
                               p=rng.choice([2, 3]),
                               maxdim=rng.randrange(1, 4))
        want = bc._sweep(_copy(F))
        assert decompose(F) == want, (F.dims, F.p)
        assert decompose(F) == want, (F.dims, F.p)


def test_memo_hands_out_fresh_lists():
    F = make_module(1, Q(1), 3, 2, {(0,): 1, (1,): 1, (2,): 1, (3,): 1},
                    {((u,), 0): Mat.identity(1, 2) for u in range(3)})
    want = [Bar((0,), None)]
    bars = decompose(F)
    bars.clear()
    assert decompose(F) == want
    decompose(F).append(Bar((1,), (2,)))
    assert decompose(F) == want


def test_memo_is_keyed_by_identity(monkeypatch):
    swept, sweep = [], bc._sweep

    def counted(F):
        swept.append(F)
        return sweep(F)
    monkeypatch.setattr(bc, "_sweep", counted)
    rng = random.Random(23)
    F = random_line_module(rng, box=4, p=2)
    G = _copy(F)
    assert F == G and F is not G
    assert decompose(F) == decompose(G) == decompose(F) == decompose(G)
    assert len(swept) == 2 and swept[0] is F and swept[1] is G


def test_memo_stays_bounded():
    rng = random.Random(29)
    kept = [random_line_module(rng, box=3, p=3)
            for _ in range(bc._MEMO_SIZE + 3)]
    for F in kept:
        decompose(F)
    assert len(bc._memo) == bc._MEMO_SIZE
    assert [id(H) for H, _ in bc._memo.values()] == \
        [id(F) for F in kept[-bc._MEMO_SIZE:]]
