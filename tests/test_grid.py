import random
import warnings
from fractions import Fraction as Q

import pytest

from pnoise import grid
from pnoise.errors import (IncompatibleShape, NonCommutingSquare,
                           NotComparable, OutOfBox)
from pnoise.field import Mat, rank
from pnoise.grid import (Bar, GridModule, direct_sum, evaluate_map,
                         evaluate_rational, make_bar, make_free, make_module,
                         modules_equal, rescale, translate, validate,
                         zero_module)


from conftest import random_line_module, random_sum_module


def test_validate_free_ok():
    assert validate(make_free((0, 0), 2, Q(1), 2))


def test_validate_noncommuting():
    dims = {v: 1 for v in grid.box_points(2, 1)}
    e = {((0, 0), 0): Mat.identity(1, 2), ((0, 0), 1): Mat.identity(1, 2),
         ((1, 0), 1): Mat.identity(1, 2), ((0, 1), 0): Mat.zeros(1, 1, 2)}
    F = make_module(2, Q(1), 1, 2, dims, e)
    with pytest.raises(NonCommutingSquare):
        validate(F)


def test_evaluate_identity_at_point():
    F = make_free((0,), 3, Q(1), 2)
    m = evaluate_map(F, (1,), (1,))
    assert m.data == Mat.identity(1, 2).data


def test_evaluate_composite_line_example():
    # three-step line module: composite of the first two printed matrices
    dims = {(0,): 3, (1,): 2, (2,): 2, (3,): 1, (4,): 1}
    edges = {((0,), 0): Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3),
             ((1,), 0): Mat.from_rows([[1, 0], [0, 0]], 3),
             ((2,), 0): Mat.from_rows([[1, 1]], 3),
             ((3,), 0): Mat.identity(1, 3)}
    F = make_module(1, Q(1), 4, 3, dims, edges)
    validate(F)
    assert evaluate_map(F, (0,), (2,)).data == ((1, 0, 1), (0, 0, 0))


def test_evaluate_clips_beyond_box():
    F = make_free((1,), 3, Q(1), 2)
    assert evaluate_map(F, (2,), (9,)).data == evaluate_map(F, (2,), (3,)).data


def test_evaluate_not_comparable():
    F = make_free((0, 0), 2, Q(1), 2)
    with pytest.raises(NotComparable):
        evaluate_map(F, (1, 0), (0, 1))


def test_evaluate_rational_anchors():
    F = make_free((0, 0), 3, Q(1), 2)
    assert evaluate_rational(F, (Q(5, 2), Q(5, 2)))[1] == (2, 2)
    assert evaluate_rational(F, (Q(2), Q(2)))[1] == (2, 2)
    G = rescale(make_free((0, 0), 2, Q(1), 2), 2)
    assert evaluate_rational(G, (Q(3, 4), Q(1, 4)))[1] == (1, 0)


def test_direct_sum_zero():
    F = make_bar(Bar((0,), (2,)), 3, Q(1), 2)
    Z = zero_module(1, Q(1), 3, 2)
    assert modules_equal(direct_sum(F, Z), F)


def test_equality_compares_dims_and_edges():
    one = Mat.identity(1, 2)
    F = make_module(1, Q(1), 1, 2, {(0,): 1, (1,): 1}, {((0,), 0): one})
    G = make_module(1, Q(1), 1, 2, {(1,): 2})
    assert F != G and hash(F) == hash(G)
    H = make_module(1, Q(1), 1, 2, {(0,): 1, (1,): 1},
                    {((0,), 0): Mat.zeros(1, 1, 2)})
    assert F != H
    assert F == make_module(1, Q(1), 1, 2, {(0,): 1, (1,): 1},
                            {((0,), 0): one})


def test_direct_sum_dims():
    b = make_bar(Bar((0,), (1,)), 3, Q(1), 2)
    s = direct_sum(b, b)
    assert [s.dims[(i,)] for i in range(4)] == [2, 0, 0, 0]


def test_direct_sum_incompatible():
    with pytest.raises(IncompatibleShape):
        direct_sum(make_free((0,), 3, Q(1), 2), make_free((0,), 2, Q(1), 2))


def test_make_free_dims():
    F = make_free((0,), 3, Q(1), 2)
    assert [F.dims[(i,)] for i in range(4)] == [1, 1, 1, 1]


def test_make_bar_dims():
    F = make_bar(Bar((0,), (2,)), 3, Q(1), 2)
    assert [F.dims[(i,)] for i in range(4)] == [1, 1, 0, 0]


def test_make_bar_l_shape():
    F = make_bar(Bar((0, 0), (1, 1)), 2, Q(1), 2)
    expect = {v: 1 if (grid.leq((0, 0), v) and not grid.leq((1, 1), v)) else 0
              for v in grid.box_points(2, 2)}
    assert F.dims == expect


def test_make_bar_out_of_box():
    with pytest.raises(OutOfBox):
        make_bar(Bar((5,), (6,)), 3, Q(1), 2)


def test_points_of_the_wrong_length_are_out_of_box():
    # `leq` zips, so a short point would be read as a prefix: the bar would
    # die along the first axis only, the free module would fill the box
    for build in (lambda: make_bar(Bar((0, 0), (1,)), 2, Q(1), 2),
                  lambda: make_bar(Bar((0,), (1, 1)), 2, Q(1), 2),
                  lambda: make_bar(Bar((0,), (1,)), 2, Q(1), 2, r=2),
                  lambda: make_bar(Bar((0, 0, 0), (1, 1, 1)), 2, Q(1), 2, r=2),
                  lambda: make_bar(Bar((0,)), 2, Q(1), 2, r=2),
                  lambda: make_free((0,), 2, Q(1), 2, r=2),
                  lambda: make_free((0, 0, 0), 2, Q(1), 2, r=2)):
        with pytest.raises(OutOfBox):
            build()
    assert make_bar(Bar((0, 0), (1, 1)), 2, Q(1), 2, r=2).total_dim() == 5
    assert make_free((0,), 2, Q(1), 2, r=1).total_dim() == 3


def test_translate_zero_is_identity_up_to_presentation():
    F = make_bar(Bar((0,), (2,)), 3, Q(1), 2)
    T = translate(F, (Q(0),))
    for k in range(8):
        q = (Q(k, 2),)
        assert evaluate_rational(T, q)[0] == evaluate_rational(F, q)[0]


def test_translate_free_diag():
    F = make_free((1, 1), 2, Q(1), 2)
    T = translate(F, (Q(1), Q(1)))
    assert all(T.dims[v] == 1 for v in T.points())


def test_translate_half_step():
    F = make_bar(Bar((1,), (3,)), 4, Q(1), 2)
    T = translate(F, (Q(1, 2),))
    assert T.alpha == Q(1, 2)
    rng = random.Random(0)
    for _ in range(40):
        q = Q(rng.randrange(0, 12), 2)
        assert evaluate_rational(T, (q,))[0] == \
            evaluate_rational(F, (q + Q(1, 2),))[0]


def test_rescale_free():
    F = make_free((0,), 1, Q(1), 2)
    G = rescale(F, 2)
    assert G.alpha == Q(1, 2) and G.box == 2
    assert [G.dims[(i,)] for i in range(3)] == [1, 1, 1]


def test_rescale_rational_agreement():
    rng = random.Random(3)
    for _ in range(10):
        F = random_line_module(rng, box=3)
        G = rescale(F, 3)
        for _ in range(20):
            q = (Q(rng.randrange(0, 16), 4),)
            assert evaluate_rational(F, q)[0] == evaluate_rational(G, q)[0]


def test_rescale_composes():
    rng = random.Random(4)
    F = random_line_module(rng, box=2)
    A = rescale(rescale(F, 2), 3)
    B = rescale(F, 6)
    for _ in range(30):
        q = (Q(rng.randrange(0, 24), 6),)
        assert evaluate_rational(A, q)[0] == evaluate_rational(B, q)[0]


def test_path_independence_random_r2():
    rng = random.Random(7)
    for _ in range(5):
        F = random_sum_module(rng, r=2, box=2, summands=3)
        pts = [v for v in F.points()]
        for v in pts:
            for w in pts:
                if grid.leq(v, w):
                    # composite through an intermediate point agrees
                    mid = tuple((a + b) // 2 for a, b in zip(v, w))
                    a = evaluate_map(F, v, w)
                    b = evaluate_map(F, mid, w) @ evaluate_map(F, v, mid)
                    assert a.data == b.data
