import random
from fractions import Fraction as Q

import pytest

from pnoise import field as fp
from pnoise import grid, structure as st
from pnoise.errors import NonNatural, NotClosed
from pnoise.field import Mat
from pnoise.grid import (Bar, evaluate_map, make_bar, make_free, make_module,
                         modules_equal, modules_iso_rankwise)

from conftest import random_line_module, random_sum_module
from module_checks import check_natural, is_closed, is_epi, is_mono


def line_module_f3():
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    return make_module(1, Q(1), 4, 3, dims, edges)


def hook_module():
    # dim 1 everywhere on {0..2}^2 except the origin, identity edges
    dims = {v: 0 if v == (0, 0) else 1 for v in grid.box_points(2, 2)}
    edges = {}
    for v in grid.box_points(2, 2):
        for i in range(2):
            if v[i] == 2:
                continue
            w = grid.add(v, grid.unit(i, 2))
            if dims[v] and dims[w]:
                edges[(v, i)] = Mat.identity(1, 2)
    return make_module(2, Q(1), 2, 2, dims, edges)


def test_radical_of_free():
    F = make_free((1, 0), 2, Q(1), 2)
    rad = st.radical(F)
    for v in F.points():
        want = 0 if v == (1, 0) else F.dims[v]
        assert rad.dim(v) == want
    assert is_closed(rad)


def test_betti0_line_module():
    F = line_module_f3()
    assert st.betti0(F) == {(Q(0),): 3, (Q(2),): 1}
    assert st.rank(F) == 4


def test_betti0_hook():
    F = hook_module()
    assert st.betti0(F) == {(Q(1), Q(0)): 1, (Q(0), Q(1)): 1}
    assert st.support(F) == {(1, 0), (0, 1)}
    assert st.rank(F) == 2


def test_betti0_respects_alpha():
    F = grid.rescale(make_free((1,), 2, Q(1), 2), 2)
    assert st.betti0(F) == {(Q(1),): 1}


def test_minimal_cover_is_epi_and_free():
    rng = random.Random(11)
    for _ in range(8):
        F = random_line_module(rng, box=3, p=3)
        cov = st.minimal_cover(F)
        check_natural(cov)
        assert is_epi(cov)
        assert st.betti0(cov.source) == st.betti0(F)
        # source is free: every edge has full column rank
        for m in cov.source.edges.values():
            assert fp.rank(m) == m.cols


def test_minimal_cover_hook():
    cov = st.minimal_cover(hook_module())
    assert cov.source.dims[(1, 1)] == 2
    assert cov.source.dims[(0, 0)] == 0
    assert is_epi(cov)


def test_kernel_image_rank_nullity():
    rng = random.Random(23)
    F = random_sum_module(rng, r=2, box=2, summands=4, p=3)
    cov = st.minimal_cover(F)
    ker, im = st.kernel(cov), st.image(cov)
    for v in F.points():
        assert ker.dim(v) + im.dim(v) == cov.source.dims[v]
    assert is_closed(ker)
    assert is_closed(im)


def test_cokernel_of_free_inclusion_is_bar():
    # K(u,-) inside K(w,-) with quotient the interval [w, u)
    w, u = (0, 1), (2, 2)
    big = make_free(w, 3, Q(1), 2)
    small = make_free(u, 3, Q(1), 2)
    mats = {v: (Mat.identity(1, 2) if grid.leq(u, v)
                else Mat.zeros(big.dims[v], small.dims[v], 2))
            for v in big.points()}
    incl = st.NatMap(small, big, mats)
    check_natural(incl)
    C, proj = st.cokernel(incl)
    check_natural(proj)
    assert modules_iso_rankwise(C, make_bar(Bar(w, u), 3, Q(1), 2))


def test_cokernel_edges_commute():
    rng = random.Random(5)
    for _ in range(6):
        F = random_sum_module(rng, r=2, box=2, summands=3, p=3)
        C, proj = st.cokernel(st.minimal_cover(F))
        grid.validate(C)
        check_natural(proj)
        assert C.total_dim() == 0 or is_epi(proj)


def test_submodule_round_trip():
    F = line_module_f3()
    rad = st.radical(F)
    M, incl = st.submodule_to_module(rad)
    check_natural(incl)
    assert is_mono(incl)
    assert st.submodules_equal(st.image(incl), rad)


def test_submodule_not_closed_raises():
    F = line_module_f3()
    basis = st.zero_submodule(F).basis.copy()
    basis[(0,)] = Mat.from_cols([(1, 0, 0)], 3, 3)
    S = st.Submodule(F, basis)
    assert not is_closed(S)
    with pytest.raises(NotClosed):
        st.submodule_to_module(S)


def test_span_submodule_of_generators_is_full():
    rng = random.Random(31)
    for _ in range(6):
        F = random_line_module(rng, box=3, p=2)
        S = st.span_submodule(F, st.minimal_generators(F))
        assert st.submodules_equal(S, st.full_submodule(F))


def test_span_submodule_single_seed():
    F = line_module_f3()
    # the vector that survives to the end: (1,0,0) at grade 0 maps to (1,1)
    S = st.span_submodule(F, [((0,), (1, 0, 0))])
    assert [S.dim((i,)) for i in range(5)] == [1, 1, 1, 1, 1]
    assert is_closed(S)


def test_span_submodule_refuses_malformed_seeds():
    # a check that stays under python -O: no seed is truncated or dropped
    F = make_bar(Bar((0,), (2,)), 2, Q(1), 2)
    assert F.dims[(0,)] == 1
    for seed in (((0,), (1, 1, 1)), ((0,), ()), ((3,), (1,))):
        with pytest.raises(ValueError):
            st.span_submodule(F, [seed])


def test_quotient_by_submodule_dims():
    F = line_module_f3()
    S = st.span_submodule(F, [((0,), (1, 0, 0))])
    C, proj = st.quotient_by_submodule(F, S)
    for v in F.points():
        assert C.dims[v] == F.dims[v] - S.dim(v)
    grid.validate(C)


def test_naturality_checked():
    F = hook_module()
    mats = {v: Mat.zeros(F.dims[v], F.dims[v], 2) for v in F.points()}
    mats[(1, 1)] = Mat.identity(1, 2)
    with pytest.raises(NonNatural):
        check_natural(st.NatMap(F, F, mats))


def test_identity_map_is_natural():
    F = hook_module()
    ident = st.identity_map(F)
    check_natural(ident)
    assert is_epi(ident) and is_mono(ident)


def test_submodule_rank_matches_module_rank():
    """The rank read off S's bases equals the rank of S built as a module."""
    rng = random.Random(23)
    for k in range(60):
        F = random_line_module(rng, box=3, p=2, maxdim=3) if k % 2 \
            else random_sum_module(rng, r=2, box=2, p=2, summands=3)
        seeds = [(v, tuple(rng.randrange(F.p) for _ in range(F.dims[v])))
                 for v in F.points() if F.dims[v] and rng.random() < 0.4]
        for S in (st.span_submodule(F, seeds), st.full_submodule(F),
                  st.zero_submodule(F)):
            assert st.submodule_rank(S) == \
                st.rank(st.submodule_to_module(S)[0]), (F.dims, seeds)
