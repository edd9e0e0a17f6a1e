import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from pnoise import barcode as bc, denoise as dn, fcf as fc
from pnoise import field as fp, gallery as ga, grid, noise as ns
from pnoise import structure as st
from pnoise.errors import (IncompatibleShape, NotOneDimensional,
                           SearchSpaceTooLarge, UnsupportedNoise)
from pnoise.fcf import (EquivalenceBudget, FeatureCountingFunction,
                        bar_r1, bar_search, bar_zero_check,
                        closeness_upper_bound, constant_fcf,
                        equivalence_budget, fcf_from_csv,
                        fcf_interleaving_distance, fcf_to_csv,
                        is_interleaved, make_fcf, minimal_rank_submodule,
                        natural_map_space)
from pnoise.field import Mat
from pnoise.grid import (Bar, direct_sum, make_bar, make_free, make_module,
                         zero_module)
from pnoise.noise import INFINITE, ConeNoise

import dp_oracle
from conftest import (random_bar, random_line_module,
                      random_presented_module, random_sum_module)
from module_checks import check_natural
from noise_oracle import noise_size_by_candidates, random_specs
from walk_oracle import enumerate_submodules, scored_submodules

RAY1 = ConeNoise(((Q(1),),))
DIAG2 = ConeNoise(((Q(1), Q(1)),))


def line_module_f3():
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    return make_module(1, Q(1), 4, 3, dims, edges)


def hook_module(box=2):
    dims = {v: 0 if v == (0, 0) else 1 for v in grid.box_points(2, box)}
    edges = {}
    for v in grid.box_points(2, box):
        for i in range(2):
            if v[i] == box:
                continue
            w = grid.add(v, grid.unit(i, 2))
            if dims[v] and dims[w]:
                edges[(v, i)] = Mat.identity(1, 2)
    return make_module(2, Q(1), box, 2, dims, edges)


# -- step function basics --------------------------------------------------


def test_fcf_value_semantics():
    f = FeatureCountingFunction(((Q(0), 4, False), (Q(1), 2, True),
                                 (Q(2), 1, True)))
    assert f.value(Q(1)) == 4      # drop applies only after t=1
    assert f.value(Q(3, 2)) == 2
    assert f.value(Q(2)) == 2
    assert f.value(Q(5)) == 1


def test_fcf_monotone_enforced():
    with pytest.raises(ValueError):
        FeatureCountingFunction(((Q(0), 1, False), (Q(1), 2, False)))
    with pytest.raises(ValueError):
        FeatureCountingFunction(((Q(1), 1, False),))


def test_fcf_csv_round_trip():
    f = make_fcf([(0, 4), (1, 2), (2, 1)], drops_after=True)
    g = fcf_from_csv(fcf_to_csv(f))
    assert g.breakpoints == f.breakpoints
    # rows may come in any order, and a repeated row is read once
    assert fcf_from_csv("t,value\n2,1\n0,4\n1,2\n1,2\n") == f


# -- distance --------------------------------------------------------------


def test_distance_identical():
    f = make_fcf([(0, 3), (2, 1)])
    assert fcf_interleaving_distance(f, f) == 0


def test_distance_terminal_mismatch():
    assert fcf_interleaving_distance(constant_fcf(0),
                                     constant_fcf(1)) == INFINITE


def test_distance_unit_blip():
    q = Q(7, 3)
    f = make_fcf([(0, 1), (q, 0)])
    assert fcf_interleaving_distance(f, constant_fcf(0)) == q


def test_distance_boundary_flavors_vanish():
    # same step, one dropping at 1 and one just after 1
    f = FeatureCountingFunction(((Q(0), 1, False), (Q(1), 0, True)))
    g = FeatureCountingFunction(((Q(0), 1, False), (Q(1), 0, False)))
    assert fcf_interleaving_distance(f, g) == 0


def random_fcf(rng, terminal):
    t, vals = Q(0), []
    v = terminal + rng.randrange(0, 4)
    while v > terminal:
        vals.append((t, v))
        t += Q(rng.randrange(1, 5), rng.randrange(1, 3))
        v -= rng.randrange(1, 3)
    vals.append((t, terminal))
    return make_fcf(vals)


def test_distance_metric_axioms():
    rng = random.Random(77)
    for _ in range(30):
        a, b, c = (random_fcf(rng, 1) for _ in range(3))
        dab = fcf_interleaving_distance(a, b)
        assert dab == fcf_interleaving_distance(b, a)
        assert fcf_interleaving_distance(a, a) == 0
        dac = fcf_interleaving_distance(a, c)
        dbc = fcf_interleaving_distance(b, c)
        assert dac <= dab + dbc


# -- budgets ---------------------------------------------------------------


def test_budget_of_iso():
    F = line_module_f3()
    b = equivalence_budget(RAY1, st.identity_map(F))
    assert (b.tau, b.mu) == (0, 0) and b.total() == 0


def test_budget_of_free_inclusion():
    big = make_free((0,), 4, Q(1), 2)
    small = make_free((2,), 4, Q(1), 2)
    mats = {v: (Mat.identity(1, 2) if v >= (2,)
                else Mat.zeros(1, 0, 2)) for v in big.points()}
    incl = st.NatMap(small, big, mats)
    check_natural(incl)
    b = equivalence_budget(RAY1, incl)
    assert (b.tau, b.mu) == (0, 2)


def _budget_by_modules(spec, phi):
    """The slow path the scorers replace: build ker phi and coker phi as
    modules and size each one (domain, dimension and intersection specs by
    the candidate loop)."""
    ker_mod, _ = st.submodule_to_module(st.kernel(phi))
    coker_mod, _ = st.cokernel(phi)
    return EquivalenceBudget(noise_size_by_candidates(spec, ker_mod),
                             noise_size_by_candidates(spec, coker_mod))


def _maps(src, dst):
    """The maps src -> dst that `closeness_upper_bound` tries."""
    pts = list(src.points())
    basis = [fc._flat([phi.mats[v] for v in pts])
             for phi in natural_map_space(src, dst)]
    length = sum(dst.dims[v] * src.dims[v] for v in pts)
    return [fc._nat_map(src, dst, vec)
            for vec in fc._combinations(basis, length, src.p)]


def _check_budgets(spec, pairs, most=40):
    """For each pair (F, G), one pair of scorers sizes the maps F -> G and
    G -> F (a seeded sample of `most` when there are more) as the module
    path does; returns the budgets."""
    rng = random.Random(43)
    seen = []
    for F, G in pairs:
        for src, dst in ((F, G), (G, F)):
            scorers = (ns.QuotientScorer(spec, src),
                       ns.QuotientScorer(spec, dst))
            maps = _maps(src, dst)
            if len(maps) > most:
                maps = rng.sample(maps, most)
            for phi in maps:
                want = _budget_by_modules(spec, phi)
                assert fc._budget(spec, phi, scorers) == want, \
                    (spec, src.dims, dst.dims, phi.mats)
                seen.append(want)
    return seen


def _kernels_and_cokernels_vary(budgets):
    sizes = {(b.tau, b.mu) for b in budgets}
    taus, mus = {t for t, _ in sizes}, {m for _, m in sizes}
    return 0 in taus and INFINITE in taus and len(taus) > 2 \
        and 0 in mus and len(mus) > 2


def test_budgets_match_module_path_r1():
    rng = random.Random(41)
    for p in (2, 3):
        pairs = []
        for _ in range(12):
            F = random_line_module(rng, box=3, p=p, maxdim=2, total_cap=4)
            bar = make_bar(random_bar(rng, 1, 3), 3, Q(1), p)
            G = random_line_module(rng, box=3, p=p, maxdim=2, total_cap=4)
            pairs += [(F, F), (F, direct_sum(F, bar)), (F, G)]
        for spec in (RAY1, ns.VNormNoise(((Q(1, 2),),))):
            assert _kernels_and_cokernels_vary(_check_budgets(spec, pairs))


def test_budgets_match_module_path_r2_r3():
    rng = random.Random(42)
    pairs = []
    for _ in range(5):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        G = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        pairs += [(F, F), (F, G)]
    for spec in (DIAG2, ConeNoise(((1, 2), (2, 1))),
                 ns.VNormNoise(((1, 0), (0, 1)))):
        assert _kernels_and_cokernels_vary(_check_budgets(spec, pairs))
    # level 1 has no quiet corner: the kill test runs on the elements of
    # K(v) and on the classes of G(v)/im phi(v). Bars from 0 that end at
    # e_2 and at e_3 die at level 1, each along one maximal offset, but
    # their sum dies only at level 2.
    ends = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2))
    sums = [direct_sum(*(make_bar(Bar((0, 0, 0), e), 1, Q(1), 2, 3)
                         for e in ends[1:3]))]
    for _ in range(6):
        F = zero_module(3, Q(1), 1, 2)
        for _ in range(rng.randrange(1, 4)):
            F = direct_sum(F, make_bar(Bar((0, 0, 0), rng.choice(ends)),
                                       1, Q(1), 2, 3))
        sums.append(F)
    pairs = [(F, G) for F, G in zip(sums, sums[1:] + sums[:1])]
    pairs += [(F, F) for F in sums]
    budgets = _check_budgets(NO_CORNER3, pairs)
    assert {b.tau for b in budgets} >= {0, 1, 2, INFINITE}
    assert {b.mu for b in budgets} >= {0, 1, 2, INFINITE}


def test_budgets_of_every_spec_kind_match_module_path():
    # domain and dimension specs read only the dimensions of K(v) and of
    # G(v)/im phi(v); an intersection takes the largest part size
    rng = random.Random(45)
    budgets = []
    for p in (2, 3):
        pairs = []
        for _ in range(4):
            F = random_line_module(rng, box=3, p=p, maxdim=2, total_cap=4)
            bar = make_bar(random_bar(rng, 1, 3), 3, Q(1), p)
            G = random_line_module(rng, box=3, p=p, maxdim=2, total_cap=4)
            pairs += [(F, F), (F, direct_sum(F, bar)), (F, G)]
        for spec in random_specs(rng, 1, 3, (RAY1,), 3):
            budgets += _check_budgets(spec, pairs, most=12)
    pairs = []
    for _ in range(3):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        G = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        pairs += [(F, F), (F, G)]
    for spec in random_specs(rng, 2, 2, (DIAG2, ns.parse_noise_spec(
            "cone:1,0")), 3):
        budgets += _check_budgets(spec, pairs, most=12)
    assert _kernels_and_cokernels_vary(budgets)


def _projection_and_inclusion():
    """The projection [0,2) + [0,inf) -> [0,inf), whose kernel is the bar
    [0,2), and the inclusion [2,inf) -> [0,inf), whose cokernel is it."""
    bar = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    free = make_free((0,), 4, Q(1), 2)
    proj = st.NatMap(direct_sum(bar, free), free, {
        v: Mat.from_rows([[0, 1]] if v < (2,) else [[1]], 2)
        for v in free.points()})
    small = make_free((2,), 4, Q(1), 2)
    incl = st.NatMap(small, free, {
        v: Mat.identity(1, 2) if v >= (2,) else Mat.zeros(1, 0, 2)
        for v in free.points()})
    return proj, incl


def test_budgets_of_specs_without_a_scorer():
    # the bar [0,2) has dimension 1, lies in [0,2), and dies after 2 along
    # the ray; the scorers size every kind without building the bar
    proj, incl = _projection_and_inclusion()
    check_natural(proj)
    check_natural(incl)
    dim = ns.DimensionNoise(((Q(0), 0), (Q(1), 1)))
    domain = ns.DomainNoise(((Q(1), (((Q(0),), (Q(2),)),)),
                             (Q(3), (((Q(0),), (None,)),))))
    for spec, size in ((dim, 1), (domain, 1),
                       (ns.Intersection((RAY1, dim)), 2),
                       (ns.Intersection((dim, domain)), 1)):
        assert equivalence_budget(spec, proj) == EquivalenceBudget(size, 0)
        assert equivalence_budget(spec, incl) == EquivalenceBudget(0, size)
    assert equivalence_budget(RAY1, proj) == EquivalenceBudget(2, 0)
    assert equivalence_budget(RAY1, incl) == EquivalenceBudget(0, 2)


def test_submodule_is_sized_only_over_zero():
    proj, _ = _projection_and_inclusion()
    F, K = proj.source, st.kernel(proj)
    scorer = ns.QuotientScorer(RAY1, F)
    assert ns.quotient_size(scorer, st.zero_submodule(F), K) == 2
    with pytest.raises(ValueError, match="S = 0"):
        ns.quotient_size(scorer, K, K)


def test_budgets_build_no_module(monkeypatch):
    def refuse(*args):
        raise AssertionError("a module was built or sized to score a map")

    rng = random.Random(88)     # the pairs of criterion 8
    pairs = []
    for _ in range(12):
        F = random_line_module(rng, box=3, p=2, maxdim=2, total_cap=5)
        start = rng.randrange(3)
        B = make_bar(Bar((start,), (start + rng.randrange(1, 3),)),
                     3, Q(1), 2)
        pairs.append((F, direct_sum(F, B)))
    want = [_closeness_by_map_sums(RAY1, F, G)[0] for F, G in pairs]
    stairs = [(F, engine) for F in (ga.staircase_module(),
                                    ga.wide_staircase_module())
              for engine in ("exhaustive", "orbit")]
    denoised = [dn.subfunctor_denoise(DIAG2, F, Q(2), engine)
                for F, engine in stairs]
    # one spec of each kind that the scorer sizes by dimensions
    dim = ns.DimensionNoise(((Q(0), 0), (Q(1), 1), (Q(2), 2)))
    domain = ns.DomainNoise(((Q(1), (((Q(0),), (Q(2),)),)),
                             (Q(2), (((Q(0),), (Q(3),)),))))
    kinds = [(spec, [_closeness_by_map_sums(spec, F, G)[0]
                     for F, G in pairs[:4]])
             for spec in (dim, domain, ns.Intersection((RAY1, dim)))]
    assert len({b for _, bounds in kinds for b in bounds}) > 2
    monkeypatch.setattr(st, "cokernel", refuse)
    monkeypatch.setattr(ns, "noise_size", refuse)
    # the denoised output is a module, built by submodule_to_module
    assert [dn.subfunctor_denoise(DIAG2, F, Q(2), engine)
            for F, engine in stairs] == denoised
    assert all(d.rank == 2 for d in denoised)
    monkeypatch.setattr(st, "submodule_to_module", refuse)
    assert [closeness_upper_bound(RAY1, F, G)[0] for F, G in pairs] == want
    for spec, bounds in kinds:
        assert [closeness_upper_bound(spec, F, G)[0]
                for F, G in pairs[:4]] == bounds, spec


# -- bar through the barcode -----------------------------------------------


def test_bar_r1_line_example():
    f = bar_r1(RAY1, line_module_f3())
    assert f.value(Q(0)) == 4
    assert f.value(Q(1)) == 4
    assert f.value(Q(3, 2)) == 2
    assert f.value(Q(2)) == 2
    assert f.value(Q(5, 2)) == 1
    assert f.value(Q(100)) == 1


def test_bar_r1_trivial_cases():
    assert bar_r1(RAY1, zero_module(1, Q(1), 2, 2)).value(Q(5)) == 0
    f = bar_r1(RAY1, make_free((0,), 3, Q(1), 2))
    assert f.value(Q(0)) == 1 and f.value(Q(50)) == 1


def test_bar_r1_requires_r1():
    with pytest.raises(NotOneDimensional):
        bar_r1(DIAG2, make_free((0, 0), 1, Q(1), 2))


def test_bar_r1_refuses_a_spec_that_is_not_cone_shaped():
    # three copies of [0, 2): the closed form read 0 at t=2, while the
    # smallest rank whose quotient is under 2 is 2
    F = zero_module(1, Q(1), 2, 2)
    for _ in range(3):
        F = direct_sum(F, make_bar(Bar((0,), (2,)), 2, Q(1), 2))
    spec = ns.DimensionNoise(((Q(0), 0), (Q(1), 1)))
    assert min(rk for rk, basis in enumerate_submodules(F)
               if _quotient_size(spec, F, st.Submodule(F, basis)) < 2) == 2
    with pytest.raises(UnsupportedNoise, match="cone-shaped"):
        bar_r1(spec, F)


def _bar_r1_by_bar_modules(spec, F):
    """The slow path of `bar_r1`: size each bar as its own module."""
    sizes = [ns.noise_size(spec, make_bar(b, F.box, F.alpha, F.p))
             for b in bc.decompose(F)]
    bps = [(Q(0), len(sizes), False)]
    for s in sorted({s for s in sizes if s != INFINITE}):
        remaining = sum(1 for x in sizes if x == INFINITE or x > s)
        if remaining != bps[-1][1]:
            bps.append((s, remaining, True))
    return FeatureCountingFunction(tuple(bps))


def test_bar_r1_sizes_match_bar_modules():
    rng = random.Random(21)
    for _ in range(100):
        dirs = [(Q(rng.randrange(1, 7), rng.randrange(1, 4)),)
                for _ in range(rng.randrange(1, 4))]
        spec = rng.choice([ConeNoise, ns.VNormNoise])(dirs)
        alpha = Q(rng.randrange(1, 6), rng.randrange(1, 4))
        F = random_line_module(rng, box=rng.randrange(1, 8),
                               p=rng.choice([2, 3]), maxdim=3, alpha=alpha)
        assert bar_r1(spec, F) == _bar_r1_by_bar_modules(spec, F), \
            (spec, alpha, F.dims)


def test_bar_zero_check_cases():
    assert bar_zero_check(RAY1, make_bar(Bar((0,), (1,)), 3, Q(1), 2), Q(2))
    assert not bar_zero_check(RAY1, make_free((0,), 3, Q(1), 2), Q(10))


# -- searches --------------------------------------------------------------


def test_bar_search_hook_exhaustive():
    F = hook_module()
    res = bar_search(DIAG2, F, [Q(0), Q(1), Q(2)], engine="exhaustive")
    assert res.value(Q(0)) == 2
    assert res.value(Q(1)) == 2
    assert res.value(Q(3, 2)) == 1
    assert res.value(Q(2)) == 1
    assert all(exact for _, exact in res.flags)


def test_bar_search_requires_cone():
    with pytest.raises(UnsupportedNoise):
        bar_search(ns.DimensionNoise(((Q(0), 0), (Q(1), 1))),
                   hook_module(), [Q(1)])


def test_bar_r1_matches_exhaustive_random():
    rng = random.Random(5)
    for _ in range(12):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        f1 = bar_r1(RAY1, F)
        f2 = bar_search(RAY1, F, [], engine="exhaustive").fcf
        cands = {bp[0] for bp in f1.breakpoints} | \
            {bp[0] for bp in f2.breakpoints}
        for c in sorted(cands):
            for t in (c, c + Q(1, 2)):
                assert f1.value(t) == f2.value(t), (F.dims, t)


def test_bar_orbit_upper_bounds_exhaustive():
    rng = random.Random(6)
    for _ in range(8):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        exact = bar_search(RAY1, F, [], engine="exhaustive").fcf
        for t in (Q(1, 2), Q(1), Q(2), Q(3)):
            orbit = bar_search(RAY1, F, [t], engine="orbit")
            assert orbit.value(t) >= exact.value(t)


def test_orbit_flags_no_wrong_value_exact():
    # the orbit pool is not exhaustive, so a value of rank(F) is only an
    # upper bound: on this sum of five bars (#14 of 40 seeded cone:1,1
    # draws) the orbit engine returns 5 at t = 3, the exhaustive one 4;
    # both orbit entry points flag exact only a value of 0
    spec = ns.parse_noise_spec("cone:1,1")
    F = zero_module(2, Q(1), 3, 2)
    for bar in (Bar((0, 1)), Bar((0, 0), (1, 1)), Bar((3, 2), (4, 4)),
                Bar((3, 3), (4, 4)), Bar((1, 3))):
        F = direct_sum(F, make_bar(bar, 3, Q(1), 2, 2))
    assert minimal_rank_submodule(spec, F, 3, engine="orbit")[::2] == \
        (st.rank(F), False) == (5, False)
    assert minimal_rank_submodule(spec, F, 3)[0] == 4
    flagged = 0
    for G in (ga.hook_module(), ga.staircase_module(),
              ga.plane_example_module()):
        for t in (Q(1), Q(2), Q(3)):
            val, _, flag = minimal_rank_submodule(spec, G, t, engine="orbit")
            (_, bar_flag), = bar_search(spec, G, [t], engine="orbit").flags
            assert flag == bar_flag == (val == 0)
            assert not flag or val == minimal_rank_submodule(spec, G, t)[0]
            flagged += flag
    assert flagged > 0


def test_direct_sum_bounds():
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    G = make_bar(Bar((1,), (2,)), 4, Q(1), 2)
    bf, bg = bar_r1(RAY1, F), bar_r1(RAY1, G)
    bs = bar_r1(RAY1, direct_sum(F, G))
    for t in (Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)):
        assert max(bf.value(t), bg.value(t)) <= bs.value(t)
        assert bs.value(t) <= bf.value(t) + bg.value(t)


def test_epi_domination():
    F = line_module_f3()
    C, _ = st.quotient_by_submodule(
        F, st.span_submodule(F, [((0,), (1, 0, 0))]))
    bf, bq = bar_r1(RAY1, F), bar_r1(RAY1, C)
    for t in (Q(0), Q(1), Q(3, 2), Q(5, 2), Q(4)):
        assert bf.value(t) >= bq.value(t)


# -- scoring without quotients ----------------------------------------------


NO_CORNER3 = ConeNoise(((1, 1, 0), (1, 0, 1)))


def _quotient_size(spec, F, S):
    """The slow path the scorer replaces: build F/S and size it (domain,
    dimension and intersection specs by the candidate loop)."""
    return noise_size_by_candidates(spec, st.quotient_by_submodule(F, S)[0])


def _check_scorer_and_walk(spec, F):
    """The scorer's size and the walk's rank against the slow paths, on
    every closed submodule of F; returns how many sizes were infinite."""
    scorer = ns.QuotientScorer(spec, F)
    infinite = 0
    for rank, basis in enumerate_submodules(F):
        S = st.Submodule(F, basis)
        size = ns.quotient_size(scorer, S)
        assert size == _quotient_size(spec, F, S), (spec, F.dims, basis)
        assert rank == st.submodule_rank(S), (F.dims, basis)
        infinite += size == INFINITE
    return infinite


def test_scorer_matches_quotient_sizes_r1():
    rng = random.Random(31)
    specs = (RAY1, ConeNoise(((2,),)), ns.VNormNoise(((Q(1, 2),),)))
    for p in (2, 3):
        for _ in range(25):
            F = random_line_module(rng, box=rng.randrange(1, 6), p=p,
                                   maxdim=2, total_cap=7 if p == 2 else 5)
            for spec in specs:
                _check_scorer_and_walk(spec, F)


def test_scorer_matches_quotient_sizes_r2_r3():
    # cones containing the diagonal cost offsets by their sup norm, so
    # every r=2 level has a quiet corner; the r=3 cone has levels without
    # one and runs the kill test on quotient classes
    assert not ns._kill_offsets(NO_CORNER3, Q(1), 1, 3, Q(1))[2]
    rng = random.Random(32)
    infinite = 0
    specs = (DIAG2, ConeNoise(((1, 2), (2, 1))), ns.VNormNoise(((1, 0),
                                                              (0, 1))))
    for _ in range(6):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        for spec in specs:
            infinite += _check_scorer_and_walk(spec, F)
    for _ in range(10):
        F = random_sum_module(rng, r=3, box=1, p=2, summands=2)
        infinite += _check_scorer_and_walk(NO_CORNER3, F)
    assert infinite > 0


def test_scorer_matches_quotient_sizes_of_every_spec_kind():
    rng = random.Random(34)
    sizes = set()
    for p in (2, 3):
        for _ in range(6):
            F = random_line_module(rng, box=3, p=p, maxdim=2,
                                   total_cap=5 if p == 2 else 4)
            for spec in random_specs(rng, 1, 3, (RAY1,), 1):
                _check_scorer_and_walk(spec, F)
                sizes.add(ns.noise_size(spec, F))
    for _ in range(4):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        for spec in random_specs(rng, 2, 2, (DIAG2,), 1):
            _check_scorer_and_walk(spec, F)
            sizes.add(ns.noise_size(spec, F))
    assert len(sizes - {INFINITE}) > 2 and INFINITE in sizes


def test_scorer_sizes_large_quotient_points():
    # r=3 and no quiet corner at level 1: F/S is sized by the level walk,
    # whose kill test lists no element of F(v)/S(v); the oracle lists all
    # 2^17 of them
    F = make_module(3, Q(1), 1, 2, {(0, 0, 0): 17})
    S = st.zero_submodule(F)
    assert ns.QuotientScorer(NO_CORNER3, F).corners is None
    assert ns.quotient_size(ns.QuotientScorer(NO_CORNER3, F), S) == \
        _quotient_size(NO_CORNER3, F, S) == 1
    # a one-dimensional quotient of the same point
    S = st.span_submodule(F, [((0, 0, 0), tuple(int(i == j)
                                                for i in range(17)))
                              for j in range(16)])
    assert ns.quotient_size(ns.QuotientScorer(NO_CORNER3, F), S) == \
        _quotient_size(NO_CORNER3, F, S) == 1
    # r=1 always has a quiet corner
    F = make_module(1, Q(1), 1, 2, {(0,): 17})
    S = st.zero_submodule(F)
    assert ns.quotient_size(ns.QuotientScorer(RAY1, F), S) == \
        _quotient_size(RAY1, F, S) == 1


def test_searches_build_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("a quotient was built while scoring")

    F1 = random_line_module(random.Random(33), box=3, p=2, maxdim=2)
    monkeypatch.setattr(st, "cokernel", refuse)
    for spec, F in ((DIAG2, ga.hook_module()), (RAY1, F1)):
        for engine in ("exhaustive", "orbit"):
            bar_search(spec, F, [Q(1), Q(2)], engine=engine)
            fc.minimal_rank_submodule(spec, F, Q(2), engine=engine)


def test_superspaces_match_filtered_subspaces():
    # the walk's choices at a point, in the order of the full enumeration
    rng = random.Random(34)
    for p, top in ((2, 5), (3, 3), (5, 2)):
        for d in range(top + 1):
            for _ in range(12):
                U = fp.column_reduce(Mat.from_cols(
                    [[rng.randrange(p) for _ in range(d)]
                     for _ in range(rng.randrange(d + 1))], d, p))
                want = [s for s in fc._all_subspaces(p, d)
                        if fp.span_contains(s, U)]
                assert [s.data for s in fc._superspaces(U)] == \
                    [s.data for s in want]


def _dp_steps(monkeypatch, scorer):
    """(n, v): the most search steps `fc._least_rank_by_level` takes at one
    point on the scorer, and the first point v where it takes them. A
    point's steps are the lengths of the `_superspaces` tuples it is handed
    while `_fix_point` fixes that point, summed."""
    fix, lists, steps = fc._fix_point, fc._superspaces, {}
    point = []

    def at(scorer, v, *rest):
        point[:] = [v]
        return fix(scorer, v, *rest)

    def counted(U):
        out = lists(U)
        steps[point[0]] = steps.get(point[0], 0) + len(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(fc, "_fix_point", at)
        m.setattr(fc, "_superspaces", counted)
        fc._least_rank_by_level(scorer)
    v = max(steps, key=steps.get)   # the first point of most steps
    return steps[v], v


def test_work_cap_counts_search_steps_per_point(monkeypatch):
    # the points have 1,638,400 combinations of subspaces, the edges leave
    # 1,845 closed submodules, and the DP takes at most 461 steps at a point
    rng = random.Random(3)
    for _ in range(4):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=3)
    assert sorted(F.dims.values()) == [0, 0, 0, 2, 2, 3, 3, 3, 3]
    assert sum(1 for _ in enumerate_submodules(F)) == 1845
    n, v = _dp_steps(monkeypatch, ns.QuotientScorer(DIAG2, F))
    assert n == 461
    # at the cap the minimal-rank search answers; one step over it, it
    # refuses. F's floor bounds agree at every level, so bar_search runs
    # no DP and answers at any cap
    want = bar_search(DIAG2, F, [Q(1)])
    monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n)
    minimal_rank_submodule(DIAG2, F, Q(1))
    monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n - 1)
    with pytest.raises(SearchSpaceTooLarge) as e:
        minimal_rank_submodule(DIAG2, F, Q(1))
    assert str(e.value) == \
        f"at least {n} search steps at {v}, over the cap {n - 1} per point"
    assert bar_search(DIAG2, F, [Q(1)]) == want
    # with the hook added on the same box, the bounds differ at level 1
    # (4 against 5), so bar_search runs the DP and its cap
    monkeypatch.undo()
    G = direct_sum(F, hook_module())
    assert fc._floor_bounds(ns.QuotientScorer(DIAG2, G))[1] == (4, 5)
    n, v = _dp_steps(monkeypatch, ns.QuotientScorer(DIAG2, G))
    assert (n, v) == (11028, (2, 1))
    want = bar_search(DIAG2, G, [Q(1)])
    assert want.engine == "exhaustive" and want.value(Q(1)) == 5
    monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n)
    assert bar_search(DIAG2, G, [Q(1)]) == want
    monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n - 1)
    with pytest.raises(SearchSpaceTooLarge) as e:
        bar_search(DIAG2, G, [Q(1)])
    assert str(e.value) == \
        f"at least {n} search steps at {v}, over the cap {n - 1} per point"


def test_work_cap_is_charged_before_the_subspaces_are_listed(monkeypatch):
    # F_2^8 has 417,199 subspaces: one point past the cap is refused
    # before any of them is built
    assert fc._subspace_count(2, 8) == 417199
    subspaces = fc._all_subspaces

    def listed(p, d):
        if d == 8:
            raise AssertionError("the subspaces of F_2^8 were listed")
        return subspaces(p, d)

    monkeypatch.setattr(fc, "_all_subspaces", listed)
    fc._superspaces.cache_clear()
    F = make_module(1, Q(1), 0, 2, {(0,): 8})
    with pytest.raises(SearchSpaceTooLarge,
                       match="at least 417199 search steps"):
        minimal_rank_submodule(RAY1, F, Q(1))
    # bar_search answers F from its floor bounds, listing nothing; beside
    # the hook, whose bounds differ at level 1, the DP's first point is
    # the 8-dimensional origin
    assert bar_search(RAY1, F, [Q(1)]).fcf == constant_fcf(8)
    G = direct_sum(hook_module(), make_module(2, Q(1), 2, 2, {(0, 0): 8}))
    with pytest.raises(SearchSpaceTooLarge) as e:
        bar_search(DIAG2, G, [Q(1)])
    assert str(e.value) == "at least 417199 search steps at (0, 0), over " \
        f"the cap {fc.EXHAUSTIVE_WORK_CAP} per point"


# -- memoised scoring and walking against the unmemoised paths -------------


def _point_within_unmemoised(spec, F, S, v, eps):
    """The point test with no scorer state: the kill offsets are looked up
    and the maps F(v <= w) built for every test."""
    maximal, corner, corner_ok = ns._kill_offsets(spec, F.alpha, F.box, F.r,
                                                  eps)

    def path(m):
        w = grid.clip(grid.add(v, m), F.box)
        return w, grid.evaluate_map(F, v, w)

    if corner_ok:
        w, A = path(corner)
        return fp.span_contains(S.basis[w], A)
    pivots = fp.pivot_rows(S.basis[v])
    free = [i for i in range(F.dims[v]) if i not in pivots]
    residues = []
    for m in maximal:
        w, A = path(m)
        R = fp.residue(S.basis[w], A)
        residues.append(Mat(F.p, R.rows, len(free), tuple(
            tuple(row[i] for i in free) for row in R.data)))
    return all(any(not any(R.apply(x)) for R in residues)
               for x in itertools.product(range(F.p), repeat=len(free))
               if any(x))


def _quotient_size_unmemoised(spec, F, S):
    levels = ns.noise_candidates(spec, F)
    k = 0
    for v in F.points():
        if S.basis[v].cols == F.dims[v]:
            continue
        while not _point_within_unmemoised(spec, F, S, v, levels[k]):
            k += 1
            if k == len(levels):
                return INFINITE
    return levels[k]


def _enumerate_submodules_unmemoised(F):
    """The exhaustive walk with every image reduced, and the subspaces
    above it listed, once per partial choice."""
    def images_at(v, layer):
        out, total = [], 0
        for rank, assign in layer:
            pushed = fp.column_reduce(st.predecessor_images(F, v, assign))
            total += fc._subspace_count(F.p, F.dims[v] - pushed.cols)
            if total > fc.EXHAUSTIVE_WORK_CAP:
                raise SearchSpaceTooLarge(
                    f"at least {total} closed submodules, over the cap "
                    f"{fc.EXHAUSTIVE_WORK_CAP}")
            out.append((rank - pushed.cols, assign, pushed))
        return out

    *head, last = st.order(F.points())
    layer = [(0, {})]
    for v in head:
        layer = [(rank + s.cols, {**assign, v: s})
                 for rank, assign, pushed in images_at(v, layer)
                 for s in fc._superspaces(pushed)]
    for rank, assign, pushed in images_at(last, layer):
        for s in fc._superspaces(pushed):
            yield rank + s.cols, {**assign, last: s}


def _check_scorer_memo(spec, F):
    """One scorer sizes every closed submodule of F, in walk order and in
    reverse, as the unmemoised test does."""
    subs = [st.Submodule(F, basis)
            for _, basis in _enumerate_submodules_unmemoised(F)]
    want = [_quotient_size_unmemoised(spec, F, S) for S in subs]
    for step in (1, -1):
        scorer = ns.QuotientScorer(spec, F)
        assert [ns.quotient_size(scorer, S)
                for S in subs[::step]] == want[::step], (spec, F.dims)
    return want


def test_scorer_memo_matches_unmemoised_test():
    rng = random.Random(35)
    for p in (2, 3):
        for _ in range(12):
            F = random_line_module(rng, box=rng.randrange(1, 6), p=p,
                                   maxdim=2, total_cap=6 if p == 2 else 4)
            for spec in (RAY1, ConeNoise(((2,),)),
                         ns.VNormNoise(((Q(1, 2),),))):
                _check_scorer_memo(spec, F)
    for _ in range(6):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        for spec in (DIAG2, ConeNoise(((1, 2), (2, 1)))):
            _check_scorer_memo(spec, F)
    # the r=3 levels without a quiet corner run the kill test on the
    # classes of F(v)/S(v), and its verdicts are memoised on the bases of S
    # it reads
    sizes = set()
    modules = [make_module(3, Q(1), 1, 2, {(0, 0, 0): 2})]
    modules += [random_sum_module(rng, r=3, box=1, p=2, summands=2)
                for _ in range(8)]
    for F in modules:
        sizes.update(_check_scorer_memo(NO_CORNER3, F))
    assert len(sizes - {INFINITE}) > 1 and INFINITE in sizes


def test_per_point_sizes_match_the_level_walk(monkeypatch):
    # every level of these specs has a quiet corner, so F/S is sized point
    # by point and the level walk never runs; the closed submodules that
    # `_check_scorer_memo` sizes include S = 0 and S = F
    def refuse(*args):
        raise AssertionError("the level walk ran for a spec with corners")

    monkeypatch.setattr(ns, "_point_within", refuse)
    rng = random.Random(37)
    cases = []
    for p in (2, 3):
        for alpha in (Q(1), Q(1, 2)):
            for box in range(7):
                F = random_line_module(rng, box=box, p=p, maxdim=2,
                                       alpha=alpha,
                                       total_cap=6 if p == 2 else 4)
                cases += [(spec, F) for spec in (
                    RAY1, ConeNoise(((2,),)), ns.VNormNoise(((Q(1, 2),),)))]
    for _ in range(5):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        cases += [(ns.parse_noise_spec(text), F) for text in (
            "cone:1,1", "cone:1,0", "cone:1,2", "vnorm:1,0;0,1")]
    for _ in range(4):
        F = random_sum_module(rng, r=3, box=1, p=2, summands=2)
        cases.append((ns.parse_noise_spec("cone:1,1,1"), F))
    sizes = set()
    for spec, F in cases:
        assert ns.QuotientScorer(spec, F).corners is not None, spec
        sizes.update(_check_scorer_memo(spec, F))
    assert {Q(0), Q(1, 2), Q(1), Q(2), INFINITE} <= sizes


def _bar_by_pairs(spec, F):
    """bar_search's breakpoints as the smallest rank over every scored
    submodule of size at most each finite size."""
    full_rank = st.rank(F)
    pairs = [(rk, sg) for rk, sg, _ in scored_submodules(
                 ns.QuotientScorer(spec, F))
             if sg != INFINITE]
    bps = [(Q(0), full_rank, False)]
    for c in sorted({sg for _, sg in pairs}):
        best = min((rk for rk, sg in pairs if sg <= c), default=full_rank)
        if best != bps[-1][1]:
            bps.append((c, best, True))
    return FeatureCountingFunction(tuple(bps))


def test_bar_search_matches_the_minimum_over_pairs():
    rng = random.Random(38)
    modules = [(spec, random_line_module(rng, box=rng.randrange(1, 6), p=p,
                                         maxdim=2, total_cap=5))
               for p in (2, 3) for _ in range(10)
               for spec in (RAY1, ns.VNormNoise(((Q(1, 2),),)))]
    modules += [(spec, random_sum_module(rng, r=2, box=2, p=2, summands=3))
                for _ in range(3)
                for spec in (DIAG2, ConeNoise(((1, 2), (2, 1))))]
    modules += [(NO_CORNER3, random_sum_module(rng, r=3, box=1, p=2,
                                               summands=2))
                for _ in range(4)]
    modules += [(DIAG2, F) for F in (ga.hook_module(), ga.staircase_module(),
                                     ga.plane_example_module())]
    drops = 0
    for spec, F in modules:
        got = bar_search(spec, F, [Q(1)]).fcf
        assert got == _bar_by_pairs(spec, F), (spec, F.dims)
        drops += len(got.breakpoints) > 2
    assert drops > 0


def test_walk_memo_matches_unmemoised_walk(monkeypatch):
    rng = random.Random(36)
    modules = [random_line_module(rng, box=rng.randrange(1, 6), p=p,
                                  maxdim=2, total_cap=7 if p == 2 else 5)
               for p in (2, 3) for _ in range(12)]
    modules += [random_sum_module(rng, r=2, box=2, p=p, summands=3)
                for p in (2, 3) for _ in range(4)]
    for F in modules:
        want = [(rank, {v: s.data for v, s in basis.items()})
                for rank, basis in _enumerate_submodules_unmemoised(F)]
        got = [(rank, {v: s.data for v, s in basis.items()})
               for rank, basis in enumerate_submodules(F)]
        assert got == want, F.dims
        # one closed submodule over the cap: both walks refuse alike
        monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", len(want) - 1)
        messages = []
        for walk in (_enumerate_submodules_unmemoised,
                     enumerate_submodules):
            with pytest.raises(SearchSpaceTooLarge) as e:
                next(walk(F))
            messages.append(str(e.value))
        assert messages[0] == messages[1]
        monkeypatch.undo()


# -- the frontier DP against the walk --------------------------------------


CORNER_SPECS = {1: ("cone:1", "cone:2", "vnorm:1"),
                2: ("cone:1,1", "cone:1,0", "cone:1,2", "vnorm:1,0;0,1",
                    "cone:1,2;2,1")}


def _least_rank_by_walk(scorer):
    """The oracle of `fc._least_rank_by_level`: the least rank at each
    finite size over every closed submodule the walk scores."""
    least = {}
    for rk, sg, _ in scored_submodules(scorer):
        if sg != INFINITE and rk < least.get(sg, rk + 1):
            least[sg] = rk
    return least


def _least_rank_by_dp(scorer):
    return {size: rank for size, (rank, _)
            in fc._least_rank_by_level(scorer).items()}


def _least_or_refusal(search, spec, F):
    try:
        return search(ns.QuotientScorer(spec, F))
    except SearchSpaceTooLarge as e:
        return str(e)


def test_least_rank_by_level_matches_the_walk(monkeypatch):
    rng = random.Random(39)
    modules = [random_line_module(rng, box=rng.randrange(1, 7), p=p,
                                  maxdim=3, total_cap=7 if p == 2 else 5)
               for p in (2, 3) for _ in range(8)]
    modules += [random_sum_module(rng, r=2, box=rng.randrange(1, 3), p=p,
                                  summands=rng.randrange(1, 4))
                for p in (2, 3) for _ in range(4)]
    modules += [random_sum_module(rng, r=2, box=3, p=2, summands=2)
                for _ in range(2)]
    sizes, refused = set(), 0
    for F in modules:
        for spec in map(ns.parse_noise_spec, CORNER_SPECS[F.r]):
            scorer = ns.QuotientScorer(spec, F)
            assert scorer.corners is not None, spec
            want = _least_or_refusal(_least_rank_by_walk, spec, F)
            got = _least_or_refusal(_least_rank_by_dp, spec, F)
            assert got == want, (spec, F.dims)
            # only S = F has size 0
            assert got[Q(0)] == st.rank(F)
            sizes.update(got)
            # one step over the cap at a point is refused, the point's
            # steps next to the cap
            n, v = _dp_steps(monkeypatch, scorer)
            monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n)
            assert _least_or_refusal(_least_rank_by_dp, spec, F) == want
            monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", n - 1)
            with pytest.raises(SearchSpaceTooLarge) as e:
                fc._least_rank_by_level(scorer)
            assert str(e.value) == f"at least {n} search steps at {v}, " \
                f"over the cap {n - 1} per point"
            refused += 1
            monkeypatch.undo()
    assert {Q(0), Q(1), Q(2), Q(3)} <= sizes and refused > 50


def test_least_rank_by_level_refuses_by_its_steps(monkeypatch):
    # at a low cap the DP answers some modules whose partial submodules at
    # a point number more than the cap, and refuses only where the walk
    # refuses too: a point's steps are at most the partial submodules the
    # walk counts there. Where both answer, they agree.
    rng = random.Random(40)
    modules = [random_sum_module(rng, r=2, box=2, p=2, summands=3)
               for _ in range(12)]
    kinds = set()
    for F in modules:
        for spec in map(ns.parse_noise_spec, CORNER_SPECS[2]):
            n, _ = _dp_steps(monkeypatch, ns.QuotientScorer(spec, F))
            monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", 60)
            want = _least_or_refusal(_least_rank_by_walk, spec, F)
            got = _least_or_refusal(_least_rank_by_dp, spec, F)
            assert isinstance(got, str) == (n > 60), (spec, F.dims)
            assert isinstance(want, str) or got == want, (spec, F.dims)
            kinds.add((type(got), type(want)))
            monkeypatch.undo()
    assert kinds == {(str, str), (dict, str), (dict, dict)}


def test_least_rank_by_level_answers_under_the_closed_submodule_count():
    # one 7-dimensional point at (0,0): 29,212 closed submodules, under the
    # cap, so the walk answers. (0,0) stays on the frontier up to (1,1), so
    # each later point takes a step per state, and summed over the points
    # the steps would pass the cap; the cap is per point, and at no point
    # do they pass it.
    F = make_module(2, Q(1), 1, 2, {(0, 0): 7})
    assert fc._subspace_count(2, 7) == 29212 < fc.EXHAUSTIVE_WORK_CAP
    scorer = ns.QuotientScorer(DIAG2, F)
    assert _least_rank_by_dp(scorer) == _least_rank_by_walk(scorer) == \
        {Q(0): 7, Q(1): 0}


def test_least_rank_by_level_answers_past_the_walks_cap(monkeypatch):
    # three draws with more closed submodules than the cap (43,088, 56,203
    # and 39,854) whose DP takes fewer steps than it at each point: the
    # walk, its cap lifted, agrees
    rng = random.Random(7)
    draws = [random_sum_module(rng, r=2, box=3, p=2,
                               summands=rng.randrange(3, 6))
             for _ in range(35)]
    spec = ns.parse_noise_spec("cone:1,1")
    for F in (draws[7], draws[31], draws[34]):
        got = _least_or_refusal(_least_rank_by_dp, spec, F)
        assert "closed submodules" in \
            _least_or_refusal(_least_rank_by_walk, spec, F)
        monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", 2 ** 16)
        assert _least_rank_by_walk(ns.QuotientScorer(spec, F)) == got
        monkeypatch.undo()


def test_specs_without_a_corner_run_the_dp(monkeypatch):
    # a point's level is read once the ends of its kill paths are fixed
    dp, scorers = fc._least_rank_by_level, []
    monkeypatch.setattr(fc, "_least_rank_by_level",
                        lambda scorer: scorers.append(scorer) or dp(scorer))
    rng = random.Random(41)
    drops = 0
    for _ in range(6):
        F = random_sum_module(rng, r=3, box=1, p=2, summands=2)
        got = bar_search(NO_CORNER3, F, [Q(1)]).fcf
        assert got == _bar_by_pairs(NO_CORNER3, F), F.dims
        drops += len(got.breakpoints) > 1
    assert drops > 0 and len(scorers) == 6
    assert all(s.corners is None for s in scorers)
    assert any(len(s.reads(v)) > 1 for s in scorers for v in s.points)


def test_least_rank_by_level_matches_the_frontier_bases_dp():
    # states keyed on pending images merge partial submodules whose
    # futures agree: each size keeps the least rank and, on a tie, the
    # first choices, so every witness is the frontier-bases DP's
    rng = random.Random(46)
    cases = [(spec, random_line_module(rng, box=rng.randrange(1, 7), p=p,
                                       maxdim=3, total_cap=7 if p == 2 else 5))
             for p in (2, 3) for _ in range(8)
             for spec in map(ns.parse_noise_spec, CORNER_SPECS[1])]
    cases += [(spec, random_sum_module(rng, r=2, box=rng.randrange(1, 3),
                                       p=p, summands=rng.randrange(1, 5 - p)))
              for p in (2, 3) for _ in range(4)
              for spec in map(ns.parse_noise_spec, CORNER_SPECS[2])]
    cases += [(NO_CORNER3, random_sum_module(rng, r=3, box=1, p=2,
                                             summands=rng.randrange(1, 4)))
              for _ in range(8)]
    cases += [(spec, F) for F in (ga.hook_module(), ga.staircase_module(),
                                  ga.plane_example_module())
              for spec in map(ns.parse_noise_spec, CORNER_SPECS[2])]
    ts = (Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3))
    sizes, witnesses = set(), 0
    for spec, F in cases:
        want = dp_oracle.least_rank_by_frontier_bases(
            ns.QuotientScorer(spec, F))
        assert fc._least_rank_by_level(ns.QuotientScorer(spec, F)) == want, \
            (spec, F.dims)
        sizes.update(want)
        for t in ts:
            hits = [hit for size, hit in want.items() if size < t]
            if hits:
                rk, T, _ = minimal_rank_submodule(spec, F, t)
                S = fc._submodule_at(F, min(hits)[1])
                assert rk == min(hits)[0] and {
                    v: b.data for v, b in T.basis.items()} == {
                    v: b.data for v, b in S.basis.items()}, (spec, F.dims, t)
                witnesses += 0 < rk < st.rank(F)
    assert {Q(0), Q(1), Q(2), Q(3)} <= sizes and witnesses > 100


def test_both_dps_refuse_a_point_past_the_cap_alike():
    # two 6-dimensional points joined by an identity edge: each of the
    # 2825 subspaces at (0,) is its own pending image at (1,), so neither
    # key merges a state, and the subspaces above them are 32819 steps
    F = make_module(1, Q(1), 1, 2, {(0,): 6, (1,): 6},
                    {((0,), 0): Mat.identity(6, 2)})
    for search in (fc._least_rank_by_level,
                   dp_oracle.least_rank_by_frontier_bases):
        with pytest.raises(SearchSpaceTooLarge) as e:
            search(ns.QuotientScorer(ns.parse_noise_spec("vnorm:1"), F))
        assert str(e.value) == "at least 32819 search steps at (1,), " \
            f"over the cap {fc.EXHAUSTIVE_WORK_CAP} per point"


def test_pending_images_answer_where_frontier_bases_refuse():
    # two 6-dimensional points at (1,0) and (0,1) with (1,1) = 0: the
    # frontier-bases DP keeps S(1,0) up to (1,1) and refuses at (0,1) with
    # 2825 states, but S(1,0)'s image at (1,1) is 0, so the pending-image
    # DP keeps one state there. Every pair of subspaces is a closed
    # submodule, and at size 1 S = 0 suffices
    F = make_module(2, Q(1), 1, 2, {(1, 0): 6, (0, 1): 6})
    spec = ns.parse_noise_spec("vnorm:1,0;0,1")
    with pytest.raises(SearchSpaceTooLarge, match="at least 33900 search"):
        dp_oracle.least_rank_by_frontier_bases(ns.QuotientScorer(spec, F))
    assert _least_rank_by_dp(ns.QuotientScorer(spec, F)) == \
        {Q(0): 12, Q(1): 0}


def _walk_witnesses(spec, F, ts):
    """The oracle of the exhaustive `minimal_rank_submodule`: at each t, the
    least rank and the first closed submodule of that rank in walk order
    among those whose quotient is quieter than t (S = F if none is), and
    how many submodules tie with it."""
    scored = list(scored_submodules(ns.QuotientScorer(spec, F)))
    out = []
    for t in ts:
        hits = [(rk, S) for rk, sg, S in scored if sg < t]
        rk, S = min(hits, key=lambda hit: hit[0],
                    default=(st.rank(F), st.full_submodule(F)))
        out.append((rk, S, sum(1 for r, _ in hits if r == rk)))
    return out


def test_minimal_rank_witness_is_the_walks_first():
    # the DP keeps, per state, the least rank and on a tie the smaller
    # tuple of choices: the first such S in walk order, basis by basis
    rng = random.Random(44)
    cases = [(spec, random_line_module(rng, box=rng.randrange(1, 6), p=p,
                                       maxdim=2, total_cap=6 if p == 2 else 4))
             for p in (2, 3) for _ in range(8)
             for spec in map(ns.parse_noise_spec, CORNER_SPECS[1])]
    cases += [(spec, random_sum_module(rng, r=2, box=2, p=p, summands=5 - p))
              for p in (2, 3) for _ in range(3)
              for spec in map(ns.parse_noise_spec, CORNER_SPECS[2])]
    cases += [(NO_CORNER3, random_sum_module(rng, r=3, box=1, p=2,
                                             summands=rng.randrange(1, 4)))
              for _ in range(8)]
    cases += [(spec, F) for F in (ga.hook_module(), ga.staircase_module(),
                                  ga.plane_example_module())
              for spec in map(ns.parse_noise_spec, CORNER_SPECS[2])]
    ts = (Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3))
    ties = moved = 0
    for spec, F in cases:
        for t, (rk, S, tied) in zip(ts, _walk_witnesses(spec, F, ts)):
            got, T, exact = minimal_rank_submodule(spec, F, t)
            assert exact and got == rk, (spec, F.dims, t)
            assert {v: b.data for v, b in T.basis.items()} == \
                {v: b.data for v, b in S.basis.items()}, (spec, F.dims, t)
            ties += tied > 1
            # a rebuild that reads the points out of `order` shows on grids
            # where `order` is not the point order
            moved += st.order(F.points()) != list(F.points()) and \
                0 < rk < st.rank(F)
    assert ties > 100 and moved > 20


def test_exhaustive_bar_search_reads_the_full_rank_off_its_sizes(
        monkeypatch):
    # S = F is the only closed submodule of size 0, in both branches
    rng = random.Random(42)
    cases = [(RAY1, random_line_module(rng, box=4, p=p, maxdim=2))
             for p in (2, 3) for _ in range(4)]
    cases += [(DIAG2, random_sum_module(rng, r=2, box=2, p=2, summands=3))
              for _ in range(3)]
    cases += [(NO_CORNER3, random_sum_module(rng, r=3, box=1, p=2,
                                             summands=2))
              for _ in range(3)]
    cases += [(DIAG2, ga.hook_module()), (DIAG2, ga.staircase_module())]
    want = [_bar_by_pairs(spec, F) for spec, F in cases]

    def refuse(*args):
        raise AssertionError("the exhaustive search asked for rank(F)")

    monkeypatch.setattr(st, "rank", refuse)
    assert [bar_search(spec, F, [Q(1)]).fcf for spec, F in cases] == want


# -- the floor bounds against the DP ---------------------------------------


def _draws40():
    """The 40 draws: random r=2 sums at box 3 and p=2 of 3-5 summands."""
    rng = random.Random(7)
    return [random_sum_module(rng, r=2, box=3, p=2,
                              summands=rng.randint(3, 5)) for _ in range(40)]


def _bound_sets():
    """{set: [(spec, F)]} for the five module sets the floor bounds are
    checked on: the 40 draws, r=3 and p=3 sums, the gallery and the
    presented family."""
    P = ns.parse_noise_spec
    two = [P("cone:1,1"), P("vnorm:1,0;0,1")]
    rng = random.Random(11)
    r3 = [random_sum_module(rng, r=3, box=rng.randint(1, 2), p=2,
                            summands=rng.randint(2, 4)) for _ in range(60)]
    p3 = [random_sum_module(rng, r=2, box=2, p=3, summands=rng.randint(2, 4))
          for _ in range(40)]
    cycle = [P("cone:1,1"), P("vnorm:1,0;0,1"), P("cone:2,1;1,2")]
    presented = []
    for seed, box, p in ((1, 3, 2), (2, 2, 3)):
        rng = random.Random(seed)
        presented += [(cycle[i % 3], random_presented_module(rng, box=box,
                                                             p=p))
                      for i in range(80)]
    gallery = [ga.hook_module(), ga.hook_module(box=3, p=3),
               ga.staircase_module(), ga.wide_staircase_module(),
               ga.plane_example_module(), ga.band_union()]
    return {"draws": [(spec, F) for F in _draws40() for spec in two],
            "sums": [(spec, F) for F in r3 for spec in (
                         P("vnorm:1,0,0;0,1,0;0,0,1"), P("cone:1,1,1"))]
                    + [(P("cone:1,1"), F) for F in p3],
            "gallery": [(spec, F) for F in gallery for spec in two],
            "presented": presented}


def _bar_of_least(least):
    """bar(F) as bar_search builds it from {size: least rank}."""
    bps = [(Q(0), least[Q(0)], False)]
    for size in sorted(least):
        if least[size] < bps[-1][1]:
            bps.append((size, least[size], True))
    return FeatureCountingFunction(tuple(bps))


def test_floor_bounds_bracket_the_dp(monkeypatch):
    # LB_J <= the least rank over sizes up to levels[J] <= UB_J at every
    # level, and bar_search is the DP's running minimum; the DP's cap is
    # lowered to keep the test short, so it answers a subset. The bounds
    # agree past level 0 on every draw and sum, and not on most of the
    # gallery, whose modules are not sums of intervals
    monkeypatch.setattr(fc, "EXHAUSTIVE_WORK_CAP", 2 ** 10)
    agreed, checked = {}, 0
    for name, cases in _bound_sets().items():
        agreed[name] = 0
        for spec, F in cases:
            scorer = ns.QuotientScorer(spec, F)
            bounds = fc._floor_bounds(scorer)
            assert len(bounds) == len(scorer.levels)
            agreed[name] += all(lb == ub for lb, ub in bounds[1:])
            try:
                least = _least_rank_by_dp(ns.QuotientScorer(spec, F))
            except SearchSpaceTooLarge:
                continue
            for size, (lb, ub) in zip(scorer.levels, bounds):
                value = min(rk for sg, rk in least.items() if sg <= size)
                assert lb <= value <= ub, (name, spec, F.dims, size)
            assert bar_search(spec, F, [Q(1)]).fcf == _bar_of_least(least), \
                (name, spec, F.dims)
            checked += 1
    assert agreed == {"draws": 80, "sums": 160, "gallery": 2,
                      "presented": 154}
    assert checked > 300


def _no_dp(scorer):
    raise AssertionError("the frontier DP ran")


def test_bounds_answer_every_r1_module_without_the_dp(monkeypatch):
    # one chain: LB_J = UB_J at every level of every r=1 module, so the
    # criterion 6 modules never reach the DP, and their bar is the
    # barcode's
    monkeypatch.setattr(fc, "_least_rank_by_level", _no_dp)
    rng = random.Random(42)
    for _ in range(200):
        box = rng.randrange(1, 7)
        F = random_line_module(rng, box=box, p=2, maxdim=3, total_cap=7)
        for spec in (RAY1, ns.VNormNoise(((Q(1, 2),),))):
            assert bar_search(spec, F, [Q(1)]).fcf == bar_r1(spec, F), F.dims
    with pytest.raises(AssertionError, match="the frontier DP ran"):
        bar_search(DIAG2, ga.hook_module(), [Q(1)])


def test_bounds_answer_draws_the_dp_refuses(monkeypatch):
    # draws #13 and #24 pass the DP's cap at (2, 1). Their bounds agree at
    # every level, and the values are those of the DP with its cap lifted
    draws = _draws40()
    spec = ns.parse_noise_spec("cone:1,1")
    with pytest.raises(SearchSpaceTooLarge) as e:
        fc._least_rank_by_level(ns.QuotientScorer(spec, draws[24]))
    assert str(e.value) == "at least 32783 search steps at (2, 1), over " \
        f"the cap {fc.EXHAUSTIVE_WORK_CAP} per point"
    monkeypatch.setattr(fc, "_least_rank_by_level", _no_dp)
    ts = [Q(1), Q(2), Q(3)]
    for spec in map(ns.parse_noise_spec, ("cone:1,1", "vnorm:1,0;0,1")):
        for i, want in ((13, [5, 5, 4]), (24, [5, 5, 5])):
            got = bar_search(spec, draws[i], ts)
            assert [got.value(t) for t in ts] == want, (spec, i)
            assert got.flags == tuple((t, True) for t in ts)


# -- natural maps, closeness, interleavings --------------------------------


def test_natural_map_space_is_natural():
    F = line_module_f3()
    for phi in natural_map_space(F, F):
        check_natural(phi)


def test_closeness_identical():
    F = hook_module()
    d, wit = closeness_upper_bound(DIAG2, F, F)
    assert d == 0 and wit is not None


def test_closeness_split_summand():
    F = make_bar(Bar((0,), (3,)), 4, Q(1), 2)
    B = make_bar(Bar((1,), (2,)), 4, Q(1), 2)
    d, wit = closeness_upper_bound(RAY1, F, direct_sum(F, B))
    assert d <= ns.noise_size(RAY1, B) == 1


def test_lipschitz_spot_checks():
    rng = random.Random(8)
    for _ in range(10):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        B = make_bar(Bar((rng.randrange(2),), (rng.randrange(2, 4),)),
                     3, Q(1), 2)
        G = direct_sum(F, B)
        eps, _ = closeness_upper_bound(RAY1, F, G)
        assert eps <= ns.noise_size(RAY1, B)
        d = fcf_interleaving_distance(bar_r1(RAY1, F), bar_r1(RAY1, G))
        assert d <= eps


def test_interleaved_identity():
    F = hook_module()
    assert is_interleaved(F, F, (0, 0))


def test_interleaved_with_zero():
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    Z = zero_module(1, Q(1), 4, 2)
    assert is_interleaved(F, Z, (1,))     # 2-shift of the bar is zero
    assert not is_interleaved(make_free((0,), 4, Q(1), 2), Z, (1,))


def _coefficient_vectors(n, p):
    """The coefficient vectors over a basis of n maps that the searches
    try: all p**n of them, or only the n unit vectors past the cap."""
    if p ** n > fc.ORBIT_COMBO_CAP:
        return [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return itertools.product(range(p), repeat=n)


def _combinations_of_maps(basis, F, G):
    """Those combinations of a basis of Hom(F, G), summed as maps."""
    for coeffs in _coefficient_vectors(len(basis), F.p):
        mats = {v: Mat.zeros(G.dims[v], F.dims[v], F.p) for v in F.points()}
        for c, bmap in zip(coeffs, basis):
            if c:
                for v in F.points():
                    mats[v] = mats[v] + bmap.mats[v].scale(c)
        yield st.NatMap(F, G, mats)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_combinations_match_coefficient_vectors(monkeypatch, p):
    rng = random.Random(p)
    for n in range(6):
        for length in (0, 1, 4):
            vecs = [tuple(rng.randrange(p) for _ in range(length))
                    for _ in range(n)]
            for cap in (p ** n - 1, p ** n):
                monkeypatch.setattr(fc, "ORBIT_COMBO_CAP", cap)
                want = [tuple(sum(c * vec[k] for c, vec in zip(cs, vecs)) % p
                              for k in range(length))
                        for cs in _coefficient_vectors(n, p)]
                assert list(fc._combinations(vecs, length, p)) == want, \
                    (n, length, cap)


def _closeness_by_map_sums(spec, F, G):
    """closeness_upper_bound with its candidates summed as maps."""
    if grid.modules_equal(F, G):
        return Q(0), st.identity_map(F)
    best, wit = INFINITE, None
    for src, dst in ((F, G), (G, F)):
        basis = natural_map_space(src, dst)
        for phi in _combinations_of_maps(basis, src, dst):
            b = _budget_by_modules(spec, phi).total()
            if b < best:
                best, wit = b, phi
    return best, wit


def test_closeness_bound_matches_map_sums(monkeypatch):
    # a cap of 8 puts some Hom bases past it, where only the basis is tried
    rng = random.Random(9)
    for cap in (fc.ORBIT_COMBO_CAP, 8):
        monkeypatch.setattr(fc, "ORBIT_COMBO_CAP", cap)
        for _ in range(15):
            F = random_line_module(rng, box=3, p=2, maxdim=2, total_cap=4)
            G = direct_sum(F, make_bar(random_bar(rng, 1, 3), 3, Q(1), 2)) \
                if rng.random() < 0.5 else \
                random_line_module(rng, box=3, p=2, maxdim=2, total_cap=4)
            got, wit = closeness_upper_bound(RAY1, F, G)
            want, want_wit = _closeness_by_map_sums(RAY1, F, G)
            assert got == want, (F.dims, G.dims, cap)
            assert (wit is None) == (want_wit is None)
            if wit is not None:
                assert (wit.source, wit.target) == \
                    (want_wit.source, want_wit.target)
                assert {v: m.data for v, m in wit.mats.items()} == \
                    {v: m.data for v, m in want_wit.mats.items()}


def test_closeness_bound_reduces_each_point_matrix_once(monkeypatch):
    # the maps of one Hom space share most of their point matrices; each
    # distinct one has its kernel reduced once per call
    rng = random.Random(88)
    F = random_line_module(rng, box=3, p=2, maxdim=2, total_cap=5)
    G = direct_sum(F, make_bar(Bar((1,), (3,)), 3, Q(1), 2))
    want, want_wit = _closeness_by_map_sums(RAY1, F, G)
    maps = [phi for src, dst in ((F, G), (G, F)) for phi in _maps(src, dst)]
    seen = []
    kernel_basis = fp.kernel_basis

    def counted(A):
        seen.append(A)
        return kernel_basis(A)

    monkeypatch.setattr(fp, "kernel_basis", counted)
    got, wit = closeness_upper_bound(RAY1, F, G)
    assert got == want
    assert {v: m.data for v, m in wit.mats.items()} == \
        {v: m.data for v, m in want_wit.mats.items()}
    # at most one reduction per (direction, point, matrix), besides the
    # one Hom system per direction; without the memo, one per map and point
    distinct = len({(phi.source.dims == F.dims, v, m.data)
                    for phi in maps for v, m in phi.mats.items()})
    assert len(seen) <= distinct + 2 < len(maps) * len(wit.mats)


def _interleaved_by_brute_force(F, G, tau):
    """Try every pair phi: F -> G(-+tau), psi: G -> F(-+tau) and compare
    both composites with the internal 2*tau shifts."""
    two = tuple(2 * c for c in tau)
    sF, sG = fc._shift_module(F, tau), fc._shift_module(G, tau)
    phis = list(_combinations_of_maps(natural_map_space(F, sG), F, sG))
    psis = list(_combinations_of_maps(natural_map_space(G, sF), G, sF))

    def composes(a, b, X):
        return all(
            (b.mats[grid.clip(grid.add(v, tau), X.box)] @ a.mats[v]).data
            == grid.evaluate_map(X, v, grid.add(v, two)).data
            for v in X.points())

    return any(composes(phi, psi, F) and composes(psi, phi, G)
               for phi in phis for psi in psis)


def _naturality_rows(F, G):
    """Rows of phi_w @ F(v<w) - G(v<w) @ phi_v == 0 over every lattice
    edge v<w, in the entries of the maps phi_v, each stored row-major from
    offs[v]; total counts the entries."""
    offs, total = {}, 0
    for v in F.points():
        offs[v] = total
        total += G.dims[v] * F.dims[v]
    rows = []
    for (v, i), a in F.edges.items():
        w = grid.add(v, grid.unit(i, F.r))
        b = G.edge(v, i)
        for rr in range(G.dims[w]):
            for cc in range(F.dims[v]):
                row = [0] * total
                for k in range(F.dims[w]):
                    row[offs[w] + rr * F.dims[w] + k] += a.data[k][cc]
                for k in range(G.dims[v]):
                    row[offs[v] + k * F.dims[v] + cc] -= b.data[rr][k]
                rows.append(row)
    return rows, offs, total


def _interleaved_by_phi_systems(F, G, tau, cap=fc.ORBIT_COMBO_CAP):
    """The per-phi path the Hom-basis table replaces. Candidates phi are
    every combination of a basis of Hom(F, G(-+tau)), or only the basis
    maps past cap; each gets one linear system in psi's entries: psi's
    naturality rows, psi_{v+tau} phi_v == F(v <= v+2tau) and
    phi_{v+tau} psi_v == G(v <= v+2tau)."""
    if grid.modules_equal(F, G):
        return True
    two = tuple(2 * c for c in tau)
    sF, sG = fc._shift_module(F, tau), fc._shift_module(G, tau)
    nat_rows, offs, total = _naturality_rows(G, sF)
    target_F = {v: grid.evaluate_map(F, v, grid.add(v, two))
                for v in F.points()}
    target_G = {v: grid.evaluate_map(G, v, grid.add(v, two))
                for v in G.points()}
    basis = natural_map_space(F, sG)
    if F.p ** len(basis) > cap:
        phis = basis
    else:
        phis = []
        for coeffs in itertools.product(range(F.p), repeat=len(basis)):
            mats = {v: Mat.zeros(sG.dims[v], F.dims[v], F.p)
                    for v in F.points()}
            for c, bmap in zip(coeffs, basis):
                for v in F.points():
                    mats[v] = mats[v] + bmap.mats[v].scale(c)
            phis.append(st.NatMap(F, sG, mats))
    for phi in phis:
        rows, rhs = list(nat_rows), [0] * len(nat_rows)
        for v in F.points():
            vt = grid.clip(grid.add(v, tau), F.box)
            pv, target, n = phi.mats[v], target_F[v], G.dims[vt]
            for rr in range(target.rows):
                for cc in range(F.dims[v]):
                    row = [0] * total
                    for k in range(n):
                        row[offs[vt] + rr * n + k] = pv.data[k][cc]
                    rows.append(row)
                    rhs.append(target.data[rr][cc])
        for v in G.points():
            vt = grid.clip(grid.add(v, tau), G.box)
            pm, target, n = phi.mats[vt], target_G[v], G.dims[v]
            for rr in range(target.rows):
                for cc in range(n):
                    row = [0] * total
                    for k in range(sF.dims[v]):
                        row[offs[v] + k * n + cc] = pm.data[rr][k]
                    rows.append(row)
                    rhs.append(target.data[rr][cc])
        if total == 0 or not rows:
            ok = not any(rhs)
        else:
            ok = fp.solvable(Mat.from_rows(rows, F.p),
                             Mat.from_cols([rhs], len(rows), F.p))
        if ok:
            return True
    return False


def test_is_interleaved_matches_brute_force():
    rng = random.Random(5)
    answers = []
    while len(answers) < 60:
        F = random_line_module(rng, box=3, p=2, maxdim=2, total_cap=3)
        if rng.random() < 0.5:
            start = rng.randrange(3)
            G = direct_sum(F, make_bar(Bar((start,), (start + 1,)),
                                       3, Q(1), 2))
        else:
            G = random_line_module(rng, box=3, p=2, maxdim=2, total_cap=3)
        tau = (rng.randrange(3),)
        sF, sG = fc._shift_module(F, tau), fc._shift_module(G, tau)
        n = len(natural_map_space(F, sG)) + len(natural_map_space(G, sF))
        if 2 ** n > fc.ORBIT_COMBO_CAP:
            continue        # past the cap the phi walk is not exhaustive
        got = is_interleaved(F, G, tau)
        assert got == _interleaved_by_brute_force(F, G, tau), \
            (F.dims, G.dims, tau)
        answers.append(got)
    assert True in answers and False in answers


def test_interleaved_with_itself_past_the_combination_cap():
    # 3^8 combinations of phi's basis at tau 0: the walk tries only the
    # basis maps, none of which is the identity
    F = make_module(1, Q(1), 3, 3, {(0,): 2, (2,): 2})
    n = len(natural_map_space(F, fc._shift_module(F, (0,))))
    assert F.p ** n > fc.ORBIT_COMBO_CAP
    for t in range(3):
        assert is_interleaved(F, F, (t,))


def test_interleaved_two_bars():
    # bars [0,1) and [0,3): interleaving distance 3/2 (half-step lattice)
    box = 7
    F = make_bar(Bar((0,), (2,)), box, Q(1, 2), 2)
    G = make_bar(Bar((0,), (6,)), box, Q(1, 2), 2)
    assert not is_interleaved(F, G, (2,))   # shift 1
    assert is_interleaved(F, G, (3,))       # shift 3/2
    assert is_interleaved(F, G, (4,))       # shift 2


def _interleave_pairs_r1(rng, count, primes=(2, 3)):
    """Random r=1 pairs at p 2 and 3 (or the given primes), box 0 to 4,
    each with a tau up to box + 1: F against F plus one bar, or against
    another module."""
    for _ in range(count):
        p, box = rng.choice(primes), rng.randrange(5)
        F = random_line_module(rng, box=box, p=p, maxdim=2,
                               total_cap=rng.randrange(1, 6))
        if rng.random() < 0.5:
            start = rng.randrange(box + 1)
            end = min(start + rng.randrange(1, 3), box + 1)
            G = direct_sum(F, make_bar(Bar((start,), (end,)), box, Q(1), p))
        else:
            G = random_line_module(rng, box=box, p=p, maxdim=2,
                                   total_cap=rng.randrange(1, 6))
        yield F, G, (rng.randrange(box + 2),)


def test_is_interleaved_matches_phi_systems_r1(monkeypatch):
    # a cap of 8 puts most walks past it, where only unit vectors are
    # tried; r=1 queries to is_interleaved never walk, so that half calls
    # the Hom-basis walk itself
    rng = random.Random(41)
    seen = set()
    caps = (fc.ORBIT_COMBO_CAP, 8)
    decide = dict(zip(caps, (is_interleaved, fc._interleaved_by_hom_bases)))
    for F, G, tau in _interleave_pairs_r1(rng, 150):
        for cap in caps:
            monkeypatch.setattr(fc, "ORBIT_COMBO_CAP", cap)
            got = decide[cap](F, G, tau)
            assert got == _interleaved_by_phi_systems(F, G, tau, cap), \
                (F.dims, G.dims, tau, cap)
            n = len(natural_map_space(F, fc._shift_module(G, tau)))
            seen.add((cap, got, F.p ** n > cap))
    # both answers occur within each cap, and past the small one
    assert {(cap, got, past) for cap in caps
            for got in (True, False) for past in (False, cap == 8)} <= seen


def test_is_interleaved_matches_phi_systems_past_the_cap():
    F = make_module(1, Q(1), 3, 3, {(0,): 2, (2,): 2})
    seen = set()
    for other in (F, make_bar(Bar((0,), (1,)), 3, Q(1), 3),
                  make_free((2,), 3, Q(1), 3)):
        G = direct_sum(F, other)
        for t in range(3):
            n = len(natural_map_space(F, fc._shift_module(G, (t,))))
            got = is_interleaved(F, G, (t,))
            assert got == _interleaved_by_phi_systems(F, G, (t,)), \
                (other.dims, t)
            seen.add((got, F.p ** n > fc.ORBIT_COMBO_CAP))
    assert {(True, True), (False, True), (True, False)} <= seen


def test_is_interleaved_matches_phi_systems_r2():
    rng = random.Random(42)
    answers = []
    for _ in range(8):
        F = random_sum_module(rng, r=2, box=2, p=2, summands=2)
        G = direct_sum(F, make_bar(random_bar(rng, 2, 2), 2, Q(1), 2)) \
            if rng.random() < 0.5 else \
            random_sum_module(rng, r=2, box=2, p=2, summands=2)
        for tau in itertools.product(range(3), repeat=2):
            got = is_interleaved(F, G, tau)
            assert got == _interleaved_by_phi_systems(F, G, tau), \
                (F.dims, G.dims, tau)
            answers.append(got)
    assert True in answers and False in answers


def test_interleaving_scan_sweeps_each_module_once(monkeypatch):
    # a scan over tau 0, 1, 2 sweeps F and G once each and answers as fresh
    # sweeps do; each pair is dropped after its scan, so later modules may
    # take the ids of earlier ones
    rng = random.Random(43)
    swept, sweep = [], bc._sweep

    def counted(H):
        swept.append(H)
        return sweep(H)
    monkeypatch.setattr(bc, "_sweep", counted)
    answers = set()
    for F, G, _ in _interleave_pairs_r1(rng, 80):
        if grid.modules_equal(F, G):
            continue
        swept.clear()
        got = [is_interleaved(F, G, (t,)) for t in range(3)]
        assert len(swept) == 2 and swept[0] is F and swept[1] is G, \
            (F.dims, G.dims)
        fs, gs = sweep(F), sweep(G)
        assert got == [fc._barcodes_match(fs, gs, t) for t in range(3)], \
            (F.dims, G.dims)
        answers.update(got)
    assert answers == {True, False}


def _snapshot(F):
    return (F.r, F.alpha, F.box, F.p, dict(F.dims),
            {k: (e.rows, e.cols, e.data) for k, e in F.edges.items()})


def test_readers_leave_their_modules_unchanged():
    # the barcode memo, and the searches' memos keyed by bases, rely on
    # GridModule being immutable by convention
    rng = random.Random(47)
    line = [tuple(random_line_module(rng, box=3, p=p, maxdim=2)
                  for _ in range(2)) for p in (2, 2, 3, 3)]
    plane = [tuple(random_sum_module(rng, r=2, box=2, p=2, summands=2)
                   for _ in range(2)) for _ in range(2)] + \
        [(hook_module(), hook_module())]
    modules = [F for pair in line + plane for F in pair]
    before = [_snapshot(F) for F in modules]
    for F, G in line:
        bc.decompose(F)
        bar_r1(RAY1, F)
        for t in range(3):
            is_interleaved(F, G, (t,))
        bar_search(RAY1, F, [0, 1, 2], engine="exhaustive")
        direct_sum(F, G)
    for F, G in plane:
        for tau in ((0, 0), (1, 0), (1, 1)):
            is_interleaved(F, G, tau)
        bar_search(DIAG2, F, [0, 1, 2], engine="exhaustive")
        direct_sum(F, G)
    assert [_snapshot(F) for F in modules] == before


def _count_solvable(monkeypatch):
    calls = []
    solvable = fp.solvable

    def counted(*args):
        calls.append(args)
        return solvable(*args)

    monkeypatch.setattr(fp, "solvable", counted)
    return calls


def test_interleaved_with_an_empty_hom_basis(monkeypatch):
    # Hom(F, G(-+1)) is zero and so are both 2-shifts: True, no system
    F = make_module(1, Q(1), 3, 3, {(0,): 2, (2,): 2})
    G = direct_sum(F, make_bar(Bar((1,), (3,)), 3, Q(1), 3))
    assert natural_map_space(F, fc._shift_module(G, (1,))) == []
    calls = _count_solvable(monkeypatch)
    assert is_interleaved(F, G, (1,))
    assert fc._interleaved_by_hom_bases(F, G, (1,))
    assert calls == []


def test_false_past_the_cap_is_certified_by_the_span_test(monkeypatch):
    # 3^10 combinations of phi's basis; one span test refuses them all
    F = make_module(1, Q(1), 3, 3, {(0,): 2, (2,): 2})
    G = direct_sum(F, make_bar(Bar((0,), (1,)), 3, Q(1), 3))
    n = len(natural_map_space(F, fc._shift_module(G, (0,))))
    assert F.p ** n > fc.ORBIT_COMBO_CAP
    calls = _count_solvable(monkeypatch)
    assert not fc._interleaved_by_hom_bases(F, G, (0,))
    assert len(calls) == 1


# -- r=1 interleavings from the barcodes --------------------------------------


def _bar(start, end=None):
    return Bar((start,), None if end is None else (end,))


def test_barcode_matching_rules():
    match = fc._barcodes_match
    # a bar alive at the box face matches only another such bar ...
    assert not match([_bar(0, 5)], [_bar(0)], 9)
    assert match([_bar(0)], [_bar(3)], 3)
    assert not match([_bar(0)], [_bar(4)], 3)
    # ... and is never left unmatched
    assert not match([_bar(0)], [], 9)
    assert not match([], [_bar(2)], 9)
    # an unmatched finite bar is at most 2*tau long
    assert match([_bar(1, 3)], [], 1) and match([], [_bar(1, 3)], 1)
    assert not match([_bar(1, 4)], [], 1)
    assert not match([], [_bar(1, 4)], 1)
    # matched finite bars: starts within tau and ends within tau
    assert match([_bar(0, 4)], [_bar(1, 5)], 1)
    assert not match([_bar(0, 4)], [_bar(0, 6)], 1)
    assert not match([_bar(0, 6)], [_bar(2, 6)], 1)
    # a bar may take its partner only if what it displaces can go unmatched
    assert match([_bar(0, 4), _bar(1, 3)], [_bar(1, 4)], 1)
    assert not match([_bar(0, 4), _bar(0, 5)], [_bar(1, 4)], 1)
    assert match([_bar(0), _bar(0, 9)], [_bar(1, 9), _bar(1)], 1)
    # through the modules: a finite bar never stands in for a free one
    box = 4
    assert not is_interleaved(make_bar(_bar(0, 2), box, Q(1), 2),
                              make_free((0,), box, Q(1), 2), (3,))
    assert is_interleaved(make_bar(_bar(0, 2), box, Q(1), 2),
                          make_bar(_bar(0, 4), box, Q(1), 2), (3,))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_barcode_matching_matches_the_walk_within_the_cap(p):
    rng = random.Random(60 + p)
    seen = set()
    for F, G, tau in _interleave_pairs_r1(rng, 120, primes=(p,)):
        n = len(natural_map_space(F, fc._shift_module(G, tau)))
        if p ** n > fc.ORBIT_COMBO_CAP:
            continue
        got = is_interleaved(F, G, tau)
        assert got == (grid.modules_equal(F, G)
                       or fc._interleaved_by_hom_bases(F, G, tau)), \
            (F.dims, G.dims, tau)
        m = len(natural_map_space(G, fc._shift_module(F, tau)))
        if p ** (n + m) <= 256:
            assert got == _interleaved_by_brute_force(F, G, tau), \
                (F.dims, G.dims, tau)
            seen.add(got)
    assert seen == {True, False}


def test_barcode_matching_agrees_with_certified_walk_answers(monkeypatch):
    # past a cap of 8 the walk tries unit vectors only: its True and a
    # False from its span test (at most one span test run) are certified
    monkeypatch.setattr(fc, "ORBIT_COMBO_CAP", 8)
    calls = _count_solvable(monkeypatch)
    rng = random.Random(43)
    seen = set()
    for F, G, tau in _interleave_pairs_r1(rng, 150):
        n = len(natural_map_space(F, fc._shift_module(G, tau)))
        if F.p ** n <= 8:
            continue
        calls.clear()
        walk = fc._interleaved_by_hom_bases(F, G, tau)
        got = is_interleaved(F, G, tau)
        if walk:
            assert got, (F.dims, G.dims, tau)
        elif len(calls) <= 1:
            assert not got, (F.dims, G.dims, tau)
        seen.add((walk, len(calls) <= 1))
    assert {(True, False), (False, True)} <= seen


def test_barcode_matching_finds_the_walks_false_negative(monkeypatch):
    # two free bars at 2 against [0,2) plus two free bars at 2, tau 3: the
    # walk past a cap of 8 tries only unit vectors and misses the pair
    F = make_module(1, Q(1), 2, 2, {(2,): 2})
    G = make_module(1, Q(1), 2, 2, {(0,): 1, (1,): 1, (2,): 2},
                    {((0,), 0): Mat.identity(1, 2),
                     ((1,), 0): Mat.zeros(2, 1, 2)})
    assert fc._interleaved_by_hom_bases(F, G, (3,))
    monkeypatch.setattr(fc, "ORBIT_COMBO_CAP", 8)
    assert not fc._interleaved_by_hom_bases(F, G, (3,))
    assert is_interleaved(F, G, (3,))


def test_r1_interleavings_build_no_hom_basis(monkeypatch):
    pairs = [(F, G, tau) for F, G, tau in
             _interleave_pairs_r1(random.Random(44), 40)
             if F.p ** len(natural_map_space(F, fc._shift_module(G, tau)))
             <= fc.ORBIT_COMBO_CAP]
    want = [grid.modules_equal(F, G) or fc._interleaved_by_hom_bases(F, G, tau)
            for F, G, tau in pairs]

    def refuse(*args):
        raise AssertionError("an r=1 query built a Hom basis")

    monkeypatch.setattr(fc, "natural_map_space", refuse)
    assert [is_interleaved(F, G, tau) for F, G, tau in pairs] == want
    assert True in want and False in want


def test_hom_spaces_need_one_shape():
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    H = make_bar(Bar((0,), (2,)), 4, Q(1, 2), 2)
    assert not grid.modules_equal(F, H)
    with pytest.raises(IncompatibleShape,
                       match=r"\(1,1,4,2\) vs \(1,1/2,4,2\)"):
        natural_map_space(F, H)
    with pytest.raises(IncompatibleShape):
        closeness_upper_bound(RAY1, F, H)
    with pytest.raises(IncompatibleShape):
        is_interleaved(make_free((0,), 4, Q(1), 2),
                       make_free((0,), 3, Q(1), 2), (1,))


def test_is_interleaved_rejects_malformed_shifts():
    hook, Z2 = hook_module(), zero_module(2, Q(1), 2, 2)
    F, Z1 = make_bar(Bar((0,), (2,)), 4, Q(1), 2), zero_module(1, Q(1), 4, 2)
    for X, Y, tau in ((hook, Z2, (1, 1, 1)), (hook, Z2, (1,)),
                      (F, Z1, (1, 2)), (F, Z1, (Q(3, 2),)), (F, Z1, (1.0,)),
                      (F, Z1, (-1,)), (F, F, (-1,))):
        with pytest.raises(ValueError, match="nonnegative integer"):
            is_interleaved(X, Y, tau)
    assert is_interleaved(F, Z1, (Q(2, 2),))
    assert not is_interleaved(hook, Z2, (1, 1))


def test_bar_search_refuses_a_spec_of_another_r():
    with pytest.raises(UnsupportedNoise, match="r=1"):
        bar_search(RAY1, hook_module(), [1])
    with pytest.raises(UnsupportedNoise, match="r=2"):
        bar_r1(DIAG2, line_module_f3())


def test_searches_refuse_a_spec_of_another_r_at_entry():
    # t <= 0 answers before any offset cost is asked for
    hook, line = hook_module(), line_module_f3()
    for spec, F in ((RAY1, hook), (DIAG2, line),
                    (ns.VNormNoise(((Q(1),),)), hook)):
        for engine in ("exhaustive", "orbit"):
            with pytest.raises(UnsupportedNoise, match="noise directions"):
                bar_search(spec, F, [0], engine=engine)
            with pytest.raises(UnsupportedNoise, match="noise directions"):
                minimal_rank_submodule(spec, F, 0, engine=engine)


def test_zero_hom_space_has_the_empty_basis():
    Z = zero_module(1, Q(1), 3, 2)
    F = make_free((0,), 3, Q(1), 2)
    B = make_bar(Bar((0,), (1,)), 3, Q(1), 2)
    assert natural_map_space(Z, F) == []      # no unknowns
    assert natural_map_space(B, F) == []      # unknowns, trivial kernel
    maps = list(_combinations_of_maps([], B, F))
    assert len(maps) == 1 and all(m.is_zero() for m in maps[0].mats.values())


# -- subspace enumeration ----------------------------------------------------


def _subspaces_by_growth(p, d):
    """Every subspace of F_p^d, grown one vector at a time from zero and
    deduplicated by canonical basis."""
    zero = fp.column_reduce(Mat.zeros(d, 0, p))
    seen = {zero.data: zero}
    frontier = [zero]
    vectors = [v for v in itertools.product(range(p), repeat=d) if any(v)]
    while frontier:
        nxt = []
        for s in frontier:
            for v in vectors:
                if fp.in_span(s, v):
                    continue
                bigger = fp.column_reduce(s.hstack(Mat.from_cols([v], d, p)))
                if bigger.data not in seen:
                    seen[bigger.data] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return set(seen)


def _gaussian_binomial(d, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


CASES = [(2, d) for d in range(6)] + [(3, d) for d in range(4)] + \
    [(5, d) for d in range(3)]


def test_all_subspaces_counts():
    assert [len(fc._all_subspaces(2, d)) for d in range(6)] == \
        [1, 2, 5, 16, 67, 374]
    for p, d in CASES:
        assert len(fc._all_subspaces(p, d)) == fc._subspace_count(p, d) == \
            sum(_gaussian_binomial(d, k, p) for k in range(d + 1))


def test_all_subspaces_match_growth_oracle():
    for p, d in CASES:
        got = fc._all_subspaces(p, d)
        assert all(fp.column_reduce(s) == s for s in got)
        assert {s.data for s in got} == _subspaces_by_growth(p, d)


def test_all_subspaces_fast():
    fc._all_subspaces.cache_clear()
    start = time.perf_counter()
    assert len(fc._all_subspaces(2, 6)) == 2825
    assert time.perf_counter() - start < 1
