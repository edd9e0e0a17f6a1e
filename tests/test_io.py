import random
from fractions import Fraction as Q

import pytest

from pnoise import barcode as bc
from pnoise import gallery as ga
from pnoise import structure as st
from pnoise.bifiltration import build_h0
from pnoise.errors import EmptyGrid, ParseError, ValidationError
from pnoise.field import Mat
from pnoise.grid import Bar, make_module, validate
from pnoise.modfile import (barcode_from_csv, barcode_to_csv, parse_module,
                            write_module)

from conftest import random_line_module, random_sum_module


def test_round_trip_fixtures():
    for F in (ga.line_module(), ga.hook_module(), ga.staircase_module(),
              ga.plane_example_module(), ga.two_bar_modules()[0]):
        assert parse_module(write_module(F)) == F


def test_round_trip_random():
    rng = random.Random(13)
    for _ in range(10):
        F = random_sum_module(rng, r=2, box=2, p=3)
        assert parse_module(write_module(F)) == F


def test_comments_ignored():
    text = write_module(ga.line_module(),
                        comments=["denoised t=2 mode=quotient certified=true"])
    assert text.startswith("# denoised")
    assert parse_module(text) == ga.line_module()


def test_parse_error_reports_line():
    text = write_module(ga.line_module())
    broken = text.replace("p 3", "p x", 1)
    with pytest.raises(ParseError) as e:
        parse_module(broken)
    assert e.value.line >= 1


@pytest.mark.parametrize("p", ["4", "1", "9"])
def test_non_prime_field_rejected(p):
    text = write_module(ga.line_module())
    with pytest.raises(ParseError, match="prime"):
        parse_module(text.replace("p 3", f"p {p}", 1))


def test_non_prime_field_rejected_by_builders():
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="prime"):
            make_module(1, Q(1), 1, p, {(0,): 1})
        with pytest.raises(ValueError, match="prime"):
            build_h0(points=[(0,)], scale_grid=[1], density_grid=[0], p=p)


def test_non_commuting_square_rejected():
    F = ga.plane_example_module()
    text = write_module(F)
    # flip the (1,1)->(1,2) vertical map from [1 1] to [1 0]
    bad = text.replace("map 1 1 axis 1\n1 1", "map 1 1 axis 1\n1 0")
    assert bad != text
    with pytest.raises(ValidationError):
        validate(parse_module(bad))


@pytest.mark.parametrize("mutation", [
    lambda t: t.replace("pnoise-module 1", "pnoise-module 2"),
    lambda t: t.replace("\nend\n", "\n"),
    lambda t: t + "junk\n",
    lambda t: t.replace("box 4", "box -1"),
])
def test_malformed_inputs(mutation):
    text = write_module(ga.line_module())
    with pytest.raises(ParseError):
        parse_module(mutation(text))


def test_barcode_csv_round_trip():
    bars = [Bar((0,), (2,)), Bar((1,), None), Bar((3,), (4,))]
    got = barcode_from_csv(barcode_to_csv(bars))
    assert [(b.start[0], None if b.end is None else b.end[0])
            for b in got] == [(0, 2), (1, None), (3, 4)]


def test_barcode_csv_alpha_scaling():
    csv = barcode_to_csv([Bar((1,), (3,))], alpha=Q(1, 2))
    assert csv.splitlines()[1] == "1/2,3/2"


def test_barcode_csv_bad_header():
    with pytest.raises(ParseError):
        barcode_from_csv("a,b\n1,2\n")


def test_barcode_csv_bar_ending_before_its_start():
    with pytest.raises(ParseError) as e:
        barcode_from_csv("start,end\n0,1\n3,1\n")
    assert e.value.line == 3 and "ends before it starts" in e.value.reason
    with pytest.raises(ParseError) as e:
        barcode_from_csv("start,end\n3,1\n")
    assert e.value.line == 2


# -- bifiltration ----------------------------------------------------------


def test_h0_single_point():
    F = build_h0(points=[(0, 0)], density=[0], scale_grid=[1, 2],
                 density_grid=[0, 1])
    validate(F)
    assert all(d == 1 for d in F.dims.values())
    assert all(m.data == ((1,),) for m in F.edges.values())


def test_h0_two_points_merge():
    # squared distance 4; scale thresholds 1 (apart) then 4 (joined)
    F = build_h0(points=[(0,), (2,)], density=[0, 0], scale_grid=[1, 4],
                 density_grid=[0, 1])
    validate(F)
    assert F.dims[(0, 0)] == 2 and F.dims[(1, 0)] == 1
    assert F.edges[((0, 0), 0)].data == ((1, 1),)


def test_h0_density_reveals_points():
    F = build_h0(points=[(0,), (10,)], density=[0, 1], scale_grid=[1, 2],
                 density_grid=[0, 1])
    assert F.dims[(0, 0)] == 1 and F.dims[(0, 1)] == 2


def test_h0_two_clusters():
    pts = [(0, 0), (1, 0), (0, 1), (10, 0), (11, 0), (10, 1)]
    F = build_h0(points=pts, density=[0] * 6,
                 scale_grid=[Q(1, 2), 1, 2, 104], density_grid=[0])
    validate(F)
    # components along the scale axis: 6 -> 2 -> 2 -> 1
    assert [F.dims[(i, 0)] for i in range(4)] == [6, 2, 2, 1]
    # counts never increase along either axis
    for (v, i), m in F.edges.items():
        assert m.rows <= m.cols


def test_h0_distance_matrix_input():
    d = [[0, 1, 9], [1, 0, 9], [9, 9, 0]]
    F = build_h0(distances=d, density=[0, 0, 0], scale_grid=[1, 9],
                 density_grid=[0])
    assert F.dims[(0, 0)] == 2 and F.dims[(1, 0)] == 1


def test_h0_empty_grid():
    with pytest.raises(EmptyGrid):
        build_h0(points=[(0,)], density=[0], scale_grid=[],
                 density_grid=[1])


def test_h0_bar_two_clusters_story():
    from pnoise import fcf as fc
    from pnoise.noise import ConeNoise
    pts = [(0, 0), (1, 0), (0, 1), (10, 0), (11, 0), (10, 1)]
    F = build_h0(points=pts, density=[0] * 6,
                 scale_grid=[2, 3, 4, 104, 105], density_grid=[0])
    bar = fc.bar_search(ConeNoise(((Q(1), Q(1)),)), F,
                        [Q(1), Q(2), Q(4)], engine="orbit")
    assert bar.value(Q(1)) == 2
    assert bar.value(Q(4)) == 1
