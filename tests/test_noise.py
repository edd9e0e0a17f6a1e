import itertools
import random
from fractions import Fraction as Q

import pytest

from pnoise import field as fp, grid, noise, polyhedra as ph
from pnoise import structure as st
from pnoise.errors import NotClosedUnderSums, ParseError, UnsupportedNoise
from pnoise.field import Mat
from pnoise.grid import (Bar, GridModule, direct_sum, make_bar, make_free,
                         make_module, modules_iso_rankwise, zero_module)
from pnoise.noise import (INFINITE, ConeNoise, DimensionNoise, DomainNoise,
                          Intersection, VNormNoise, closed_under_sums,
                          contains, feasible_offsets, max_noise_below,
                          max_noise_submodule, noise_size, parse_noise_spec)

from conftest import random_line_module, random_sum_module
from module_checks import is_closed
from noise_oracle import (contains_by_rules, noise_size_by_candidates,
                          point_passes_by_enumeration, random_specs)
from walk_oracle import enumerate_submodules

RAY1 = ConeNoise(((Q(1),),))
DIAG2 = ConeNoise(((Q(1), Q(1)),))


def corner_complement(w, box, alpha, p, r):
    """K everywhere except on the up-set of the rational point w."""
    def alive(v):
        return not all(Q(alpha) * c >= Q(wi) for c, wi in zip(v, w))
    dims = {v: 1 for v in grid.box_points(r, box) if alive(v)}
    edges = {}
    for v in grid.box_points(r, box):
        for i in range(r):
            if v[i] == box:
                continue
            u = grid.add(v, grid.unit(i, r))
            if alive(v) and alive(u):
                edges[(v, i)] = Mat.identity(1, p)
    return make_module(r, alpha, box, p, dims, edges)


def band_union(box, p):
    """K on {v1 < 1 or v2 < 1}: the union of the two axis bands."""
    def alive(v):
        return v[0] < 1 or v[1] < 1
    dims = {v: 1 for v in grid.box_points(2, box) if alive(v)}
    edges = {}
    for v in grid.box_points(2, box):
        for i in range(2):
            if v[i] == box:
                continue
            u = grid.add(v, grid.unit(i, 2))
            if alive(v) and alive(u):
                edges[(v, i)] = Mat.identity(1, p)
    return make_module(2, Q(1), box, p, dims, edges)


# -- feasible offsets ------------------------------------------------------


def test_feasible_offsets_ray():
    assert feasible_offsets(DIAG2, Q(1), Q(1), 2) == {(1, 1)}


def test_feasible_offsets_eps_zero():
    assert feasible_offsets(DIAG2, Q(0), Q(1), 2) == {(0, 0)}


def test_feasible_offsets_ray_fine_lattice():
    # w = (1,1) on a half-step lattice sits in the cell (2,2)
    assert feasible_offsets(DIAG2, Q(1), Q(1, 2), 2) == {(2, 2)}


def test_feasible_offsets_vnorm_axes():
    spec = VNormNoise(((Q(1), Q(0)), (Q(0), Q(1))))
    assert feasible_offsets(spec, Q(1), Q(1), 2) == {(1, 0), (0, 1), (1, 1)}


def test_feasible_offsets_two_generator_cone_disjoint():
    # no common offset covers both generators at norm 1
    spec = ConeNoise(((Q(1), Q(0), Q(1)), (Q(1, 2), Q(1), Q(0))))
    offs = feasible_offsets(spec, Q(1), Q(1, 2), 3)
    need_w = (2, 0, 2)    # lattice cell of the shift killing the first bar
    need_wp = (1, 2, 0)
    assert not any(grid.leq(need_w, m) and grid.leq(need_wp, m) for m in offs)


# -- membership and size ---------------------------------------------------


def test_zero_module_everywhere():
    Z = zero_module(2, Q(1), 2, 2)
    for spec in (DIAG2, VNormNoise(((Q(1), Q(1)),)),
                 DimensionNoise(((Q(0), 0), (Q(1), 1)))):
        assert contains(spec, Z, Q(0))
        assert noise_size(spec, Z) == 0


def test_bar_ray_noise_size():
    for k in (1, 2, 3):
        F = make_bar(Bar((0,), (k,)), 4, Q(1), 2)
        assert noise_size(RAY1, F) == k
        assert contains(RAY1, F, Q(k))
        assert not contains(RAY1, F, Q(k) - Q(1, 7))


def test_bar_ray_noise_size_fine_alpha():
    F = make_bar(Bar((0,), (3,)), 4, Q(1, 2), 2)
    assert noise_size(RAY1, F) == Q(3, 2)


def test_free_module_is_infinitely_noisy():
    assert noise_size(RAY1, make_free((0,), 3, Q(1), 2)) == INFINITE
    assert noise_size(DIAG2, make_free((1, 0), 2, Q(1), 2)) == INFINITE


def test_contains_monotone_and_attained():
    rng = random.Random(12)
    for _ in range(10):
        F = random_line_module(rng, box=3, p=2)
        s = noise_size(RAY1, F)
        if s == INFINITE:
            assert not contains(RAY1, F, Q(100))
            continue
        assert contains(RAY1, F, s)
        if s > 0:
            assert not contains(RAY1, F, s - Q(1, 9))
        assert contains(RAY1, F, s + 1)


def test_direct_sum_rule_for_ray():
    rng = random.Random(13)
    for _ in range(8):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        G = random_line_module(rng, box=3, p=2, maxdim=2)
        s = noise_size(RAY1, direct_sum(F, G))
        assert s == max(noise_size(RAY1, F), noise_size(RAY1, G))


def kill_table(F, offsets):
    """(v, x) -> the first of the offsets m with F(v <= v+m)x == 0, or None,
    for every nonzero element x of every F(v): the element-by-element
    enumeration that `contains` decides membership by."""
    out = {}
    for v in F.points():
        mats = [(m, grid.evaluate_map(F, v, grid.add(v, m))) for m in offsets]
        for x in itertools.product(range(F.p), repeat=F.dims[v]):
            if any(x):
                out[(v, x)] = next(
                    (m for m, mat in mats if not any(mat.apply(x))), None)
    return out


def offset_certificate(spec, F, eps):
    """Per nonzero element, a killing lattice offset of cost <= eps, or
    None when that element has no witness (cone-shaped specs only)."""
    maximal, _, _ = noise._kill_offsets(spec, F.alpha, F.box, F.r, Q(eps))
    return kill_table(F, maximal)


def in_ray_union(F, rays, eps):
    """Does every nonzero element die along *some* single ray shift of norm
    eps? This set-valued variant is not a noise system (it fails
    additivity); it shows why cones are required."""
    eps = Q(eps)
    offsets = [tuple(int(eps * Q(c) / max(map(Q, g)) / F.alpha) for c in g)
               for g in rays]
    return all(m is not None for m in kill_table(F, offsets).values())


def test_certificate_kills():
    rng = random.Random(14)
    F = random_line_module(rng, box=3, p=3)
    s = noise_size(RAY1, F)
    if s == INFINITE:
        s = Q(2)
    cert = offset_certificate(RAY1, F, s)
    for (v, x), m in cert.items():
        if m is None:
            continue
        img = grid.evaluate_map(F, v, grid.add(v, m)).apply(x)
        assert not any(img)


def test_fast_path_matches_enumeration():
    rng = random.Random(15)
    cases = [(DIAG2, random_sum_module(rng, r=2, box=2, summands=3, p=2))
             for _ in range(10)]
    # r=3 levels without a quiet corner enumerate F(v) in the kill test
    no_corner3 = ConeNoise(((1, 1, 0), (1, 0, 1)))
    assert not noise._kill_offsets(no_corner3, Q(1), 1, 3, Q(1))[2]
    rng = random.Random(16)
    cases += [(spec, random_line_module(rng, box=3, p=p, maxdim=2))
              for p in (2, 3) for _ in range(6)
              for spec in (RAY1, VNormNoise(((Q(1, 2),),)))]
    cases += [(VNormNoise(((1, 0), (0, 1))),
               random_sum_module(rng, r=2, box=2, summands=3, p=2))
              for _ in range(4)]
    cases += [(no_corner3, random_sum_module(rng, r=3, box=1, summands=3,
                                             p=2)) for _ in range(6)]
    sizes = set()
    for spec, F in cases:
        levels = noise.noise_candidates(spec, F)
        slow = [all(m is not None for m in offset_certificate(
            spec, F, eps).values()) for eps in levels]
        assert [contains(spec, F, eps) for eps in levels] == slow, spec
        size = next((eps for eps, ok in zip(levels, slow) if ok), INFINITE)
        assert noise_size(spec, F) == size, (spec, F.dims)
        sizes.add(size)
    assert len(sizes) > 2 and INFINITE in sizes


# -- the union-of-axes story ----------------------------------------------


def test_axis_band_modules():
    F = corner_complement((1, 0), 3, Q(1), 2, 2)   # support v1 < 1
    H = corner_complement((0, 1), 3, Q(1), 2, 2)   # support v2 < 1
    G = band_union(3, 2)
    e1, e2 = ConeNoise(((Q(1), Q(0)),)), ConeNoise(((Q(0), Q(1)),))
    assert noise_size(e1, F) == 1
    assert noise_size(e2, H) == 1
    # the band union escapes both axis noises at every level
    for eps in (Q(1), Q(2), Q(5)):
        assert not contains(e1, G, eps)
        assert not contains(e2, G, eps)
    assert noise_size(e1, G) == INFINITE
    # elementwise union-of-rays membership also fails for the direct sum
    assert in_ray_union(F, [(Q(1), Q(0))], Q(1))
    assert in_ray_union(G, [(Q(1), Q(0)), (Q(0), Q(1))], Q(1)) is False
    # but the diagonal cone does absorb the union band
    assert noise_size(DIAG2, G, ) == 1


def test_two_bar_counterexample():
    spec = ConeNoise(((Q(1), Q(0), Q(1)), (Q(1, 2), Q(1), Q(0))))
    A = corner_complement((1, 0, 1), 3, Q(1, 2), 2, 3)
    B = corner_complement((Q(1, 2), 1, 0), 3, Q(1, 2), 2, 3)
    assert noise_size(spec, A) == 1
    assert noise_size(spec, B) == 1
    S = direct_sum(A, B)
    assert not contains(spec, S, Q(1))
    assert noise_size(spec, S) == Q(3, 2)
    assert not closed_under_sums(spec, Q(1))


# -- other noise variants --------------------------------------------------


def test_dimension_noise():
    spec = DimensionNoise(((Q(0), 0), (Q(1), 2), (Q(2), 4)))
    F = random_sum_module(random.Random(1), r=2, box=2, summands=3)
    top = max(F.dims.values())
    s = noise_size(spec, F)
    if top == 0:
        assert s == 0
    elif top <= 2:
        assert s == 1
    elif top <= 4:
        assert s == 2
    else:
        assert s == INFINITE
    assert contains(spec, zero_module(2, Q(1), 2, 2), Q(0))


def test_dimension_noise_superadditive_enforced():
    with pytest.raises(ValueError):
        DimensionNoise(((Q(0), 0), (Q(1), 3), (Q(2), 4)))


def test_dimension_noise_thresholds_must_not_decrease():
    # 2+2 and 2+3 pass the last breakpoint, so superadditivity never reads
    # the drop from 5 to 1; the levels would shrink from eps 2 to eps 3
    with pytest.raises(ValueError, match="not decrease"):
        DimensionNoise(((Q(0), 0), (Q(2), 5), (Q(3), 1)))
    with pytest.raises(ParseError, match="not decrease"):
        parse_noise_spec("dim:0@0,5@2,1@3")
    assert DimensionNoise(((Q(0), 0), (Q(2), 5), (Q(3), 5))).threshold(4) \
        == 5


def test_domain_noise():
    spec = DomainNoise(((Q(1), (((Q(0), Q(0)), (Q(3), Q(3))),)),))
    dims = {v: 1 for v in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    edges = {((0, 0), 0): Mat.identity(1, 2), ((0, 0), 1): Mat.identity(1, 2),
             ((0, 1), 0): Mat.identity(1, 2), ((1, 0), 1): Mat.identity(1, 2)}
    F = make_module(2, Q(1), 2, 2, dims, edges)
    assert noise_size(spec, F) == 1
    assert not contains(spec, F, Q(1, 2))
    # a free module touches the box face, so its domain is unbounded
    assert noise_size(spec, make_free((0, 0), 2, Q(1), 2)) == INFINITE


def test_domain_noise_nesting_enforced():
    with pytest.raises(ValueError):
        DomainNoise(((Q(1), (((Q(0),), (Q(5),)),)),
                     (Q(2), (((Q(0),), (Q(3),)),))))


def test_intersection():
    spec = Intersection((RAY1, DimensionNoise(((Q(0), 0), (Q(2), 3)))))
    F = make_bar(Bar((0,), (1,)), 3, Q(1), 2)
    assert noise_size(spec, F) == 2   # ray gives 1, dimension forces 2
    assert contains(spec, F, Q(2))
    assert not contains(spec, F, Q(1))


def test_sizes_and_membership_match_the_rules():
    # noise_size through the scorer against the candidate loop, and
    # contains at every candidate, between candidates and below 0 against
    # the rules it ran before
    rng = random.Random(46)
    cases = []
    for p in (2, 3):
        for _ in range(10):
            F = random_line_module(rng, box=3, p=p, maxdim=3)
            cases += [(spec, F) for spec in random_specs(
                rng, 1, 3, (RAY1, VNormNoise(((Q(2),),))), 2)]
    for _ in range(6):
        F = random_sum_module(rng, r=2, box=2, summands=3)
        cases += [(spec, F) for spec in random_specs(
            rng, 2, 2, (DIAG2, parse_noise_spec("cone:1,1;1,0")), 2)]
    cases.append((cases[0][0], zero_module(1, Q(1), 3, 2)))
    sizes, answers = set(), set()
    for spec, F in cases:
        size = noise_size(spec, F)
        assert size == noise_size_by_candidates(spec, F), (spec, F.dims)
        sizes.add(size)
        cands = noise.noise_candidates(spec, F)
        between = [(a + b) / 2 for a, b in zip(cands, cands[1:])]
        for eps in cands + between + [Q(-1), Q(-1, 2), cands[-1] + 1]:
            got = contains(spec, F, eps)
            assert got == contains_by_rules(spec, F, eps), (spec, eps)
            answers.add((got, eps < 0))
    assert len(sizes - {INFINITE}) > 3 and {Q(0), INFINITE} <= sizes
    assert answers == {(True, False), (False, False), (False, True)}


NO_CORNER3 = ConeNoise(((1, 1, 0), (1, 0, 1)))


def test_contains_reads_the_size_of_a_large_point():
    # a 17-dimensional point: level 1 has no quiet corner, and its kill
    # paths end at points of dimension 0, so every class dies there; the
    # kill test decides it with no element listed
    F = make_module(3, Q(1), 1, 2, {(0, 0, 0): 17})
    assert not noise._kill_offsets(NO_CORNER3, Q(1), 1, 3, Q(1))[2]
    got = [contains(NO_CORNER3, F, eps) for eps in range(4)]
    assert got == [False, True, True, True]
    assert got == [contains_by_rules(NO_CORNER3, F, eps) for eps in range(4)]
    assert noise_size(NO_CORNER3, F) == 1 == \
        noise_size_by_candidates(NO_CORNER3, F)


def _random_kill_paths(rng, p, f, n):
    """n paths (w_i, A_i) out of a point v with S = 0, each A_i a nonzero
    one- or two-row matrix on F_p^f: their kernels are proper subspaces,
    mostly hyperplanes, so that some sets of them cover F_p^f."""
    bases = {"v": Mat.zeros(f, 0, p)}
    paths = []
    for i in range(n):
        rows = 1 if rng.random() < 0.8 else 2
        while True:
            A = Mat.from_rows([[rng.randrange(p) for _ in range(f)]
                               for _ in range(rows)], p)
            if not A.is_zero():
                break
        bases[i] = Mat.zeros(rows, 0, p)
        paths.append((i, A))
    return bases, paths


def test_point_test_matches_enumeration_on_random_kernels():
    # n > p proper kernels: the shortcuts settle nothing, so every verdict
    # comes from the inclusion-exclusion count; n = p + 1 hyperplanes are
    # the fewest that can cover F_p^2
    rng = random.Random(49)
    seen = set()
    for p in (2, 3):
        # the p + 1 lines of F_p^2, one kernel each, cover it
        lines = [(1, c) for c in range(p)] + [(0, 1)]
        cases = [({"v": Mat.zeros(2, 0, p), **{i: Mat.zeros(1, 0, p)
                                               for i in range(p + 1)}},
                  [(i, Mat.from_rows([[-b % p, a]], p))
                   for i, (a, b) in enumerate(lines)])]
        for _ in range(400):
            cases.append(_random_kill_paths(rng, p, rng.randint(1, 3),
                                            rng.randint(p + 1, p + 3)))
        for bases, paths in cases:
            n = len(paths)
            got = noise._point_test(bases, paths)
            assert got == point_passes_by_enumeration(bases, "v", paths, p), \
                (p, paths)
            seen.add((p, got, n == p + 1))
    assert seen == {(p, got, tight) for p in (2, 3) for got in (False, True)
                    for tight in (False, True)}


def test_point_test_matches_enumeration_on_closed_submodules():
    # every closed S of small r=3 modules, at every point S does not fill
    # and every level without a quiet corner: NO_CORNER3's have two kill
    # offsets, and the box-2 cone's level 2 has three
    rng = random.Random(50)
    cases = [(NO_CORNER3, random_sum_module(rng, r=3, box=1, p=p,
                                            summands=summands))
             for p, summands in ((2, 3), (3, 2)) for _ in range(3)]
    rng = random.Random(51)
    cases += [(ConeNoise(((1, 1, 0), (0, 1, 1))),
               random_sum_module(rng, r=3, box=2, p=2, summands=2))
              for _ in range(3)]
    verdicts = set()
    for spec, F in cases:
        scorer = noise.QuotientScorer(spec, F)
        levels = [k for k, (_, _, ok) in enumerate(scorer.kills) if not ok]
        assert levels
        for _, basis in enumerate_submodules(F):
            for v in scorer.points:
                if basis[v].cols == F.dims[v]:
                    continue
                for k in levels:
                    maximal = scorer.kills[k][0]
                    paths = [scorer.path(v, m) for m in maximal]
                    got = noise._point_test(basis, paths)
                    assert got == point_passes_by_enumeration(
                        basis, v, paths, F.p), (F.dims, basis, v, k)
                    verdicts.add((len(maximal), got))
    assert verdicts == {(n, got) for n in (2, 3) for got in (False, True)}


def test_point_verdicts_are_keyed_on_every_basis_they_read():
    # for a closed S each kernel contains S(v), so the verdict reads only the
    # S(w_m): two closed submodules that differ only at v share one memoised
    # verdict. e1 dies along (1, 1, 0) and lives along (1, 0, 1), e2 the
    # other way, and e3 lives throughout; S is spanned by e3 off v, and by e3
    # at v too or not, so neither e1 + e2 nor e1 + e2 + e3 dies: both fail
    F = direct_sum(direct_sum(
        make_bar(Bar((0, 0, 0), (1, 1, 0)), 1, Q(1), 2, 3),
        make_bar(Bar((0, 0, 0), (1, 0, 1)), 1, Q(1), 2, 3)),
        make_free((0, 0, 0), 1, Q(1), 2, 3))
    scorer = noise.QuotientScorer(NO_CORNER3, F)
    k = scorer.levels.index(Q(1))
    maximal, _, corner_ok = scorer.kills[k]
    assert not corner_ok and sorted(maximal) == [(1, 0, 1), (1, 1, 0)]
    v = (0, 0, 0)
    S = st.span_submodule(F, [(v, (0, 0, 1))])
    T = st.Submodule(F, {**S.basis, v: Mat.zeros(3, 0, 2)})
    paths = [scorer.path(v, m) for m in maximal]
    for U in (S, T):
        assert is_closed(U)
        want = point_passes_by_enumeration(U.basis, v, paths, 2)
        assert noise._point_test(U.basis, paths) is want is False
        assert noise._point_within(scorer, U.basis, v, k) is want
    assert S.basis[v] != T.basis[v]
    assert len(scorer._verdicts) == 1


# -- closure under sums ----------------------------------------------------


def test_closed_under_sums_cases():
    assert closed_under_sums(RAY1, Q(1))
    assert closed_under_sums(DIAG2, Q(7))
    axes = ConeNoise(((Q(1), Q(0)), (Q(0), Q(1))))
    assert closed_under_sums(axes, Q(1))  # join (1,1) = e1+e2 has norm 1
    wide = ConeNoise(((Q(1), Q(1)), (Q(1), Q(1, 2))))
    assert closed_under_sums(wide, Q(1))
    assert closed_under_sums(
        VNormNoise(((Q(1), Q(0)), (Q(0), Q(1)))), Q(1))


def test_every_r1_spec_is_closed_under_sums():
    # each direction's norm-eps representative is (eps,), whose cost is eps
    # (a cone) or at most eps (a vnorm), so `bar_r1` reads bars one by one
    rng = random.Random(47)
    for _ in range(200):
        dirs = [(Q(rng.randrange(1, 9), rng.randrange(1, 5)),)
                for _ in range(rng.randrange(1, 4))]
        spec = rng.choice([ConeNoise, VNormNoise])(dirs)
        eps = Q(rng.randrange(0, 13), rng.randrange(1, 5))
        assert closed_under_sums(spec, eps), (spec, eps)


# -- maximal noise subfunctors --------------------------------------------


def _intersect_bases_by_coefficients(a, b):
    """The kernel of [a | -b] read back through a's columns."""
    if a.cols == 0 or b.cols == 0:
        return Mat.zeros(a.rows, 0, a.p)
    ker = fp.kernel_basis(a.hstack(b.scale(-1)))
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


def test_intersect_bases_match_coefficient_oracle():
    rng = random.Random(48)

    def subspace(d, p):
        pick = rng.random()
        if pick < 0.15:
            return Mat.zeros(d, 0, p)
        if pick < 0.3:
            return Mat.identity(d, p)
        cols = [tuple(rng.randrange(p) for _ in range(d))
                for _ in range(rng.randrange(d + 2))]
        return fp.column_reduce(Mat.from_cols(cols, d, p))

    dims = set()
    for _ in range(3000):
        p, d = rng.choice((2, 3, 5)), rng.randrange(6)
        a, b = subspace(d, p), subspace(d, p)
        got = noise._intersect_bases(a, b)
        assert got == _intersect_bases_by_coefficients(a, b), (a, b)
        dims.add((a.cols, b.cols, got.cols))
    assert len(dims) > 40


def test_max_submodule_free_is_zero():
    F = make_free((0,), 3, Q(1), 2)
    S = max_noise_submodule(RAY1, F, Q(2))
    assert st.submodules_equal(S, st.zero_submodule(F))


def test_max_submodule_of_small_module_is_everything():
    F = make_bar(Bar((1,), (2,)), 3, Q(1), 2)
    S = max_noise_submodule(RAY1, F, Q(1))
    assert st.submodules_equal(S, st.full_submodule(F))


def test_max_submodule_requires_closure():
    spec = ConeNoise(((Q(1), Q(0), Q(1)), (Q(1, 2), Q(1), Q(0))))
    F = make_free((0, 0, 0), 2, Q(1, 2), 2, 3)
    with pytest.raises(NotClosedUnderSums):
        max_noise_submodule(spec, F, Q(1))


def test_max_submodule_maximality_random():
    rng = random.Random(21)
    for _ in range(8):
        F = random_line_module(rng, box=3, p=2)
        S = max_noise_submodule(RAY1, F, Q(1))
        M, _ = st.submodule_to_module(S)
        assert noise_size(RAY1, M) <= 1
        # nothing outside S dies within shift 1
        corner = (1,)
        for v in F.points():
            ker = grid.evaluate_map(F, v, grid.add(v, corner))
            assert S.basis[v].cols == fp.kernel_basis(ker).cols


def test_line_example_denoise_cokernels():
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    F = make_module(1, Q(1), 4, 3, dims, edges)

    S = max_noise_below(RAY1, F, Q(2))
    C, _ = st.quotient_by_submodule(F, S)
    want = make_module(1, Q(1), 4, 3, {(0,): 2, (1,): 1, (2,): 1, (3,): 1, (4,): 1},
                       {((0,), 0): Mat.from_rows([[1, 0]], 3),
                        ((1,), 0): Mat.identity(1, 3),
                        ((2,), 0): Mat.identity(1, 3),
                        ((3,), 0): Mat.identity(1, 3)})
    assert modules_iso_rankwise(C, want)

    S3 = max_noise_below(RAY1, F, Q(3))
    C3, _ = st.quotient_by_submodule(F, S3)
    assert modules_iso_rankwise(C3, make_free((0,), 4, Q(1), 3))


def test_max_below_is_step_function():
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    a = max_noise_below(RAY1, F, Q(3, 2))
    b = max_noise_below(RAY1, F, Q(2))
    assert st.submodules_equal(a, b)           # same candidate below both
    assert st.submodules_equal(max_noise_below(RAY1, F, Q(0)),
                               st.zero_submodule(F))
    assert st.submodules_equal(max_noise_below(RAY1, F, Q(5, 2)),
                               st.full_submodule(F))


def test_subquotient_axiom_spot_check():
    rng = random.Random(33)
    for _ in range(6):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        s = noise_size(RAY1, F)
        if s == INFINITE:
            continue
        S = st.radical(F)
        M, incl = st.submodule_to_module(S)
        C, _ = st.cokernel(incl)
        assert noise_size(RAY1, M) <= s
        assert noise_size(RAY1, C) <= s


def test_additivity_spot_check():
    rng = random.Random(34)
    for _ in range(6):
        F = random_line_module(rng, box=3, p=2, maxdim=2)
        S = st.radical(F)
        M, incl = st.submodule_to_module(S)
        C, _ = st.cokernel(incl)
        a, b = noise_size(RAY1, M), noise_size(RAY1, C)
        if a == INFINITE or b == INFINITE:
            continue
        assert contains(RAY1, F, a + b)


# -- cost tables -----------------------------------------------------------


def test_cost_table_built_once(monkeypatch):
    calls = []
    real = noise.offset_cost

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(noise, "offset_cost", counted)
    noise._cost_table.cache_clear()
    noise._levels_and_kills.cache_clear()   # it holds the tables' levels
    assert noise_size(RAY1, make_bar(Bar((0,), (2,)), 4, Q(1), 2)) == 2
    assert len(calls) == 5                  # one per offset in {0..4}
    assert noise_size(RAY1, make_free((1,), 4, Q(1), 2)) == INFINITE
    assert len(calls) == 5                  # same (alpha, box, r): no solve


def test_list_built_specs_work_under_the_memo():
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    for kind in (ConeNoise, VNormNoise):
        spec = kind([[Q(1)]])
        assert spec == kind(((Q(1),),))
        assert hash(spec) == hash(kind(((Q(1),),)))
        assert noise_size(spec, F) == 2
        assert noise_size(kind([[1, 1]]), make_bar(
            Bar((0, 0), (1, 3)), 3, Q(1), 2, 2)) == 3


def test_kill_offsets_memoised_per_shape():
    # the kill offsets of every level depend only on (spec, alpha, box, r,
    # eps): a second module of the same shape adds no miss
    noise._kill_offsets.cache_clear()
    noise._levels_and_kills.cache_clear()   # it holds every level's data
    F = make_bar(Bar((0,), (2,)), 4, Q(1), 2)
    G = make_bar(Bar((1,), (2,)), 4, Q(1), 2)     # same (alpha, box, r)
    assert contains(RAY1, F, Q(2))
    misses = noise._kill_offsets.cache_info().misses
    assert misses > 0
    assert contains(RAY1, G, Q(2))
    assert noise._kill_offsets.cache_info().misses == misses


# -- the witness system against the hand-built systems it replaced ---------


def _oracle_cone_cost_system(gens, target):
    ng, r = len(gens), len(gens[0])
    cons = []
    for j in range(ng):
        cons.append((tuple(-1 if k == j + 1 else 0 for k in range(ng + 1)),
                     Q(0), False))
    for i in range(r):
        row = [Q(0)] * (ng + 1)
        for j, g in enumerate(gens):
            row[j + 1] = -Q(g[i])
        cons.append((tuple(row), -Q(target[i]), False))
        row2 = [Q(0)] * (ng + 1)
        row2[0] = Q(-1)
        for j, g in enumerate(gens):
            row2[j + 1] = Q(g[i])
        cons.append((tuple(row2), Q(0), False))
    return cons, ng + 1


def _oracle_vnorm_cost_system(vecs, target):
    ng, r = len(vecs), len(vecs[0])
    cons = []
    for j in range(ng):
        cons.append((tuple(-1 if k == j + 1 else 0 for k in range(ng + 1)),
                     Q(0), False))
        row = [Q(0)] * (ng + 1)
        row[0], row[j + 1] = Q(-1), Q(1)
        cons.append((tuple(row), Q(0), False))
    for i in range(r):
        row = [Q(0)] * (ng + 1)
        for j, g in enumerate(vecs):
            row[j + 1] = -Q(g[i])
        cons.append((tuple(row), -Q(target[i]), False))
    return cons, ng + 1


def _oracle_min_norm(spec, target):
    if isinstance(spec, ConeNoise):
        cons, nv = _oracle_cone_cost_system(spec.generators, target)
    else:
        cons, nv = _oracle_vnorm_cost_system(spec.vectors, target)
    return ph.minimize(cons, nv, 0)


def _oracle_feasible_offsets(spec, eps, alpha, r):
    if eps == 0:
        return {(0,) * r}
    top = -(-eps.numerator * alpha.denominator
            // (eps.denominator * alpha.numerator))
    out = set()
    cone = isinstance(spec, ConeNoise)
    dirs = spec.generators if cone else spec.vectors
    ng = len(dirs)
    for m in grid.box_points(r, top):
        for k in range(max(r, ng)):
            cons = []
            for j in range(ng):
                cons.append((tuple(-1 if t == j else 0 for t in range(ng)),
                             Q(0), False))
            for i in range(r):
                row = tuple(-Q(g[i]) for g in dirs)
                cons.append((row, -alpha * m[i], False))
                cons.append((tuple(-c for c in row), alpha * (m[i] + 1), True))
            if cone:
                if k >= r:
                    continue
                for i in range(r):
                    cons.append((tuple(Q(g[i]) for g in dirs), eps, False))
                cons.append((tuple(-Q(g[k]) for g in dirs), -eps, False))
            else:
                if k >= ng:
                    continue
                for j in range(ng):
                    cons.append((tuple(1 if t == j else 0 for t in range(ng)),
                                 eps, False))
                cons.append((tuple(-1 if t == k else 0 for t in range(ng)),
                             -eps, False))
            if ph.feasible(cons, ng):
                out.add(m)
                break
    return out


def _oracle_closed_under_sums(spec, eps):
    cone = isinstance(spec, ConeNoise)
    dirs = spec.generators if cone else spec.vectors
    if len(dirs) == 1:
        return True
    if cone:
        norms = [max(g) for g in dirs]
        total = tuple(sum(g[i] for g in dirs) for i in range(spec.r))
        if len(set(norms)) == 1 and max(total) == norms[0]:
            return True
    else:
        norms = [1] * len(dirs)
        if noise._rationally_independent(dirs):
            return True
    reps = [tuple(eps * c / n for c in g) for g, n in zip(dirs, norms)]
    for a, b in itertools.combinations(reps, 2):
        best = _oracle_min_norm(spec, tuple(map(max, a, b)))
        if best is None or best > eps:
            return False
    return True


def _random_cone_shaped_specs(seed, n=100):
    rng = random.Random(seed)
    entries = (Q(0), Q(1, 2), Q(1), Q(2))
    specs = []
    while len(specs) < n:
        r, k = rng.randint(1, 3), rng.randint(1, 3)
        dirs = [tuple(rng.choice(entries) for _ in range(r))
                for _ in range(k)]
        if any(not any(d) for d in dirs):
            continue
        specs.append(rng.choice((ConeNoise, VNormNoise))(tuple(dirs)))
    return specs


def test_offset_cost_matches_hand_built_systems():
    for spec in _random_cone_shaped_specs(41):
        for alpha in (Q(1), Q(1, 2)):
            for m in grid.box_points(spec.r, 3):
                want = _oracle_min_norm(spec, tuple(alpha * c for c in m))
                assert noise.offset_cost(spec, m, alpha) == want, (spec, m)


def test_feasible_offsets_match_hand_built_systems():
    for spec in _random_cone_shaped_specs(42):
        for eps in (Q(1, 2), Q(1), Q(3, 2)):
            assert feasible_offsets(spec, eps, Q(1), spec.r) == \
                _oracle_feasible_offsets(spec, eps, Q(1), spec.r), (spec, eps)


def test_closed_under_sums_matches_hand_built_systems():
    answers = []
    for spec in _random_cone_shaped_specs(43):
        for eps in (Q(1), Q(2)):
            got = closed_under_sums(spec, eps)
            assert got == _oracle_closed_under_sums(spec, eps), (spec, eps)
            answers.append(got)
    assert True in answers and False in answers


def test_intersection_size_is_largest_part():
    rng = random.Random(44)
    line_parts = (RAY1, VNormNoise(((Q(2),),)),
                  DimensionNoise(((Q(0), 0), (Q(1), 1), (Q(2), 2))),
                  DomainNoise(((Q(1), (((Q(0),), (Q(2),)),)),
                               (Q(3), (((Q(0),), (Q(4),)),)))))
    plane_parts = (DIAG2, VNormNoise(((Q(1), Q(0)), (Q(0), Q(1)))),
                   DimensionNoise(((Q(0), 0), (Q(1), 1), (Q(2), 2))))
    for _ in range(12):
        for F, parts in ((random_line_module(rng, box=3, p=2), line_parts),
                         (random_sum_module(rng, r=2, box=2, summands=2),
                          plane_parts)):
            chosen = rng.sample(parts, rng.randint(2, len(parts)))
            want = max(noise_size(part, F) for part in chosen)
            assert noise_size(Intersection(tuple(chosen)), F) == want


# -- parsing ---------------------------------------------------------------


def test_parse_specs():
    assert parse_noise_spec("cone:1,1") == DIAG2
    assert parse_noise_spec("vnorm:1,0;0,1") == \
        VNormNoise(((Q(1), Q(0)), (Q(0), Q(1))))
    assert parse_noise_spec("dim:0@0,2@1,4@2") == \
        DimensionNoise(((Q(0), 0), (Q(1), 2), (Q(2), 4)))
    d = parse_noise_spec("domain:@1=box(0,0,3,3)")
    assert d == DomainNoise(((Q(1), (((Q(0), Q(0)), (Q(3), Q(3))),)),))
    both = parse_noise_spec("cone:1,1 & dim:0@0,2@1")
    assert isinstance(both, Intersection) and len(both.parts) == 2
    assert parse_noise_spec("cone:1/2,1") == ConeNoise(((Q(1, 2), Q(1)),))


def test_parse_errors():
    for bad in ("nope", "cone:0,0", "dim:2@0", "domain:@1=circle(1)"):
        with pytest.raises((ParseError, ValueError)):
            parse_noise_spec(bad)


def test_directions_must_have_one_length():
    for kind in (ConeNoise, VNormNoise):
        with pytest.raises(ValueError, match="one length"):
            kind(((Q(1), Q(1)), (Q(1),)))
    for bad in ("cone:1,1;1", "vnorm:1;0,1"):
        with pytest.raises(ParseError, match="one length"):
            parse_noise_spec(bad)


def test_spec_of_another_r_is_refused():
    # read on the first coordinate only, (0,1) would cost 0 under RAY1
    bar = make_bar(Bar((0, 0), (3, 1)), 3, Q(1), 2)
    for spec in (RAY1, VNormNoise(((Q(1),),))):
        with pytest.raises(UnsupportedNoise, match="r=1"):
            noise_size(spec, bar)
    with pytest.raises(UnsupportedNoise, match="r=2"):
        noise_size(DIAG2, make_bar(Bar((0,), (2,)), 4, Q(1), 2))
    with pytest.raises(UnsupportedNoise):
        noise.offset_cost(RAY1, (0, 1), 1)
    with pytest.raises(UnsupportedNoise):
        feasible_offsets(DIAG2, 1, 1, 1)
