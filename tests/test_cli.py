import json
import time
import warnings
from fractions import Fraction as Q

import pytest

from pnoise import gallery as ga
from pnoise.cli import main
from pnoise.fcf import EXHAUSTIVE_WORK_CAP
from pnoise.field import Mat
from pnoise.grid import make_module
from pnoise.modfile import write_module


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.mod"
    path.write_text(write_module(ga.line_module()))
    return str(path)


@pytest.fixture
def hook_file(tmp_path):
    path = tmp_path / "hook.mod"
    path.write_text(write_module(ga.hook_module()))
    return str(path)


def stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_validate_ok(line_file, capsys):
    assert main(["validate", line_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mod"
    bad.write_text("not a module\n")
    assert main(["validate", str(bad)]) == 2
    e = stderr_json(capsys)
    assert e["code"] == "parse" and "location" in e


def test_validate_commutativity_error(tmp_path, capsys):
    text = write_module(ga.plane_example_module())
    bad = text.replace("map 1 1 axis 1\n1 1", "map 1 1 axis 1\n1 0")
    path = tmp_path / "bad.mod"
    path.write_text(bad)
    assert main(["validate", str(path)]) == 3
    assert stderr_json(capsys)["code"] == "validation"


def test_info(line_file, capsys):
    assert main(["info", line_file]) == 0
    out = capsys.readouterr().out
    assert "rank 4" in out and "p 3" in out
    assert "(0)x3" in out and "(2)x1" in out


def test_barcode(line_file, capsys):
    assert main(["barcode", line_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "start,end"
    assert sorted(lines[1:]) == ["0,1", "0,2", "0,inf", "2,3"]


def test_barcode_requires_r1(hook_file, capsys):
    assert main(["barcode", hook_file]) == 3


def test_fcf_exact_line(line_file, capsys):
    assert main(["fcf", line_file, "--noise", "cone:1",
                 "--t", "0,1,3/2,2,3"]) == 0
    out = capsys.readouterr().out
    assert "t=1 value=4 exact=true" in out
    assert "t=3/2 value=2 exact=true" in out
    assert "t=3 value=1 exact=true" in out
    assert out.startswith("t,value")


def test_fcf_exhaustive_hook(hook_file, capsys):
    assert main(["fcf", hook_file, "--noise", "cone:1,1",
                 "--t", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "t=1 value=2 exact=true" in out
    assert "t=2 value=1 exact=true" in out


def test_fcf_range_syntax(line_file, capsys):
    assert main(["fcf", line_file, "--noise", "cone:1",
                 "--t", "0:2:1/2"]) == 0
    assert "t=1/2 value=4" in capsys.readouterr().out


def test_fcf_range_over_cap_exits_at_once(line_file, capsys):
    t0 = time.perf_counter()
    assert main(["fcf", line_file, "--noise", "cone:1",
                 "--t", "0:1000000000:1/1000"]) == 4
    assert time.perf_counter() - t0 < 1
    e = stderr_json(capsys)
    assert e["code"] == "resource" and e["location"] == "--t"
    assert "1000000000001 points, cap 10000" in e["message"]


def test_fcf_list_over_cap_exits_at_once(line_file, capsys):
    ts = ",".join(str(k) for k in range(10001))
    t0 = time.perf_counter()
    assert main(["fcf", line_file, "--noise", "cone:1", "--t", ts]) == 4
    assert time.perf_counter() - t0 < 1
    e = stderr_json(capsys)
    assert e["code"] == "resource" and e["location"] == "--t"
    assert "10001 points, cap 10000" in e["message"]
    # at the cap the list is answered
    assert main(["fcf", line_file, "--noise", "cone:1", "--t",
                 ",".join(str(k) for k in range(10000))]) == 0


def test_fcf_exhaustive_over_work_cap_exits_at_once(tmp_path, capsys):
    # total dimension 18: each of the 2825 subspaces at (0,0) is its own
    # image at (1,0) through the identity edge, so 2825 states reach (0,1),
    # where the zero edge leaves each of them 2825 subspaces: past the cap
    # at the twelfth state. `fcf` runs no DP: the floor bounds agree at
    # every level (T_1 = 0). The minimal-rank witness of a subfunctor
    # denoising comes from the DP
    big = tmp_path / "big.mod"
    big.write_text(write_module(make_module(
        2, Q(1), 1, 2, {(0, 0): 6, (1, 0): 6, (0, 1): 6},
        {((0, 0), 0): Mat.identity(6, 2), ((0, 0), 1): Mat.zeros(6, 6, 2)})))
    assert main(["fcf", str(big), "--noise", "vnorm:1,0;0,1",
                 "--t", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["t,value", "0,12", "1,0", "t=1 value=12 exact=true"]
    t0 = time.perf_counter()
    assert main(["denoise", str(big), "--noise", "vnorm:1,0;0,1", "--t", "1",
                 "--mode", "subfunctor", "-o", str(tmp_path / "den.mod")]) \
        == 4
    assert time.perf_counter() - t0 < 1
    e = stderr_json(capsys)
    assert e["code"] == "resource"
    assert e["message"] == "at least 33900 search steps at (0, 1), over " \
        f"the cap {EXHAUSTIVE_WORK_CAP} per point"


def test_fcf_exhaustive_answers_where_no_image_is_pending(tmp_path, capsys):
    # 2825 subspaces at each of (1,0) and (0,1), whose images at (1,1) = 0
    # are 0: one state is pending there, and 5,650 steps answer
    big = tmp_path / "big.mod"
    big.write_text(write_module(make_module(
        2, Q(1), 1, 2, {(1, 0): 6, (0, 1): 6})))
    assert main(["fcf", str(big), "--noise", "vnorm:1,0;0,1",
                 "--t", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["t,value", "0,12", "1,0", "t=1 value=12 exact=true"]


def test_fcf_exhaustive_answers_under_its_steps(tmp_path, capsys):
    # 2825 subspaces at each of two points, but (0,0) leaves the frontier
    # before (1,1) is fixed: 14,125 steps, though 2825^2 closed submodules
    big = tmp_path / "big.mod"
    big.write_text(write_module(make_module(
        2, Q(1), 1, 2, {(0, 0): 6, (1, 1): 6})))
    assert main(["fcf", str(big), "--noise", "vnorm:1,0;0,1",
                 "--t", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["t,value", "0,12", "1,6"]


def test_fcf_answers_every_r1_spec_through_the_barcode(tmp_path, capsys):
    # six free bars: the frontier DP would take more steps than its cap,
    # the floor bounds, which agree at r=1, answer for every r=1 spec
    big = tmp_path / "big.mod"
    big.write_text(write_module(make_module(
        1, Q(1), 1, 2, {(0,): 6, (1,): 6}, {((0,), 0): Mat.identity(6, 2)})))
    for spec in ("vnorm:1", "cone:1;2"):
        assert main(["fcf", str(big), "--noise", spec, "--t", "1,0,1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "t,value", "0,6", "t=0 value=6 exact=true",
            "t=1 value=6 exact=true"]


def test_fcf_bad_noise(line_file, capsys):
    assert main(["fcf", line_file, "--noise", "wat", "--t", "1"]) == 2


def test_fcf_decreasing_dimension_thresholds(line_file, capsys):
    assert main(["fcf", line_file, "--noise", "dim:0@0,5@2,1@3",
                 "--t", "1"]) == 2
    e = stderr_json(capsys)
    assert e["code"] == "parse" and "not decrease" in e["message"]


def test_fcf_ragged_noise_directions(hook_file, capsys):
    assert main(["fcf", hook_file, "--noise", "cone:1,1;1", "--t", "1"]) == 2
    e = stderr_json(capsys)
    assert e["code"] == "parse" and "one length" in e["message"]


def test_fcf_noise_of_another_r(line_file, hook_file, capsys):
    for path, spec in ((hook_file, "cone:1"), (line_file, "cone:1,1"),
                       (hook_file, "vnorm:1")):
        assert main(["fcf", path, "--noise", spec, "--t", "1"]) == 3
        e = stderr_json(capsys)
        assert e["code"] == "validation" and "noise directions" in \
            e["message"], (path, spec)


def test_fcf_noise_of_another_r_at_t_zero(hook_file, capsys):
    # the orbit engine answers t <= 0 without asking any offset cost
    assert main(["fcf", hook_file, "--noise", "cone:1", "--t", "0",
                 "--engine", "orbit"]) == 3
    e = stderr_json(capsys)
    assert e["code"] == "validation" and "noise directions" in e["message"]


def test_distance_fcf(tmp_path, capsys):
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("t,value\n0,2\n1,1\n")
    g.write_text("t,value\n0,2\n3,1\n")
    assert main(["distance-fcf", str(f), str(g)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_distance_fcf_infinite(tmp_path, capsys):
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("t,value\n0,1\n")
    g.write_text("t,value\n0,0\n")
    assert main(["distance-fcf", str(f), str(g)]) == 0
    assert capsys.readouterr().out.strip() == "inf"


@pytest.mark.parametrize("text, line", [
    ("t,value\n1,3\n", 2),         # no row at t=0
    ("t,value\n0,1\n1,3\n", 3),    # a value that rises
    ("t,value\n", 1),              # no rows
    ("t,value\n0,x\n", 2),
    ("t,value\n1/0,2\n", 2),
])
def test_malformed_fcf_csv_is_a_parse_error(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("t,value\n0,1\n")
    for argv in (["distance-fcf", str(bad), str(good)],
                 ["distance-fcf", str(good), str(bad)],
                 ["export", str(bad), "--csv", str(tmp_path / "out.csv")]):
        assert main(argv) == 2
        e = stderr_json(capsys)
        assert e["code"] == "parse" and e["location"] == f"{bad}:{line}"


def test_denoise_quotient(line_file, tmp_path, capsys):
    out = tmp_path / "den.mod"
    assert main(["denoise", line_file, "--noise", "cone:1", "--t", "3/2",
                 "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# denoised t=3/2 mode=quotient certified=true")
    assert "rank 2 certified true" in capsys.readouterr().err
    from pnoise.modfile import parse_module
    from pnoise import structure as st
    assert st.rank(parse_module(text)) == 2


def test_denoise_subfunctor(tmp_path, capsys):
    path = tmp_path / "stair.mod"
    path.write_text(write_module(ga.staircase_module()))
    out = tmp_path / "den.mod"
    assert main(["denoise", str(path), "--noise", "cone:1,1", "--t", "2",
                 "--mode", "subfunctor", "-o", str(out)]) == 0
    assert "mode=subfunctor certified=true" in out.read_text()


def test_build_h0_and_pipeline(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    # x,y,density rows: two clusters, uniform density
    rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0),
            (10, 0, 0), (11, 0, 0), (10, 1, 0)]
    pts.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    out = tmp_path / "h0.mod"
    assert main(["build-h0", str(pts), "--scale-grid", "2,4,104",
                 "--density-grid", "0", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["info", str(out)]) == 0
    assert "p 2" in capsys.readouterr().out


def test_build_h0_output_reads_without_warnings(tmp_path, capsys):
    # the last density step changes H0 at (0, 1): a stored module is
    # constant beyond its box, so that is no sign of a truncated diagram
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0\n2,0,0\n1,0,1\n10,0,1\n")
    out = tmp_path / "h0.mod"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["build-h0", str(pts), "--scale-grid", "2,100",
                     "--density-grid", "0,1", "-o", str(out)]) == 0
        assert main(["info", str(out)]) == 0
        assert main(["fcf", str(out), "--noise", "cone:1,1",
                     "--t", "1"]) == 0
        for mode in ("quotient", "subfunctor"):
            assert main(["denoise", str(out), "--noise", "cone:1,1",
                         "--t", "1", "--mode", mode]) == 0
    assert "rank 3" in capsys.readouterr().out


def test_build_h0_empty_grid(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0\n")
    assert main(["build-h0", str(pts), "--scale-grid", "",
                 "--density-grid", "0"]) == 3


def test_export_svg_barcode(line_file, tmp_path):
    svg = tmp_path / "bars.svg"
    assert main(["export", line_file, "--svg", str(svg)]) == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "firebrick" in body


def test_export_svg_fcf(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("t,value\n0,3\n1,1\n")
    svg = tmp_path / "f.svg"
    assert main(["export", str(f), "--svg", str(svg)]) == 0
    assert "polyline" in svg.read_text()


def test_output_into_a_missing_directory_is_an_io_error(line_file, tmp_path,
                                                        capsys):
    missing = tmp_path / "nodir"
    for argv in (["export", line_file, "--svg", str(missing / "x.svg")],
                 ["denoise", line_file, "--noise", "cone:1", "--t", "3/2",
                  "-o", str(missing / "den.mod")]):
        assert main(argv) == 2
        e = stderr_json(capsys)
        assert e["code"] == "io" and "No such file" in e["message"]
        assert e["location"] == argv[-1]
    assert not missing.exists()


def test_export_needs_target(line_file, capsys):
    assert main(["export", line_file]) == 2


def test_export_checks_its_flags_before_reading(hook_file, tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("t,value\n0,3\n1,1\n")
    for path in (hook_file, str(f)):     # an r=2 module, an FCF csv
        assert main(["export", path]) == 2
        e = stderr_json(capsys)
        assert e["code"] == "parse"
        assert e["message"] == "need --svg and/or --csv"


def test_field_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PNOISE_FIELD", "5")
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n")
    assert main(["build-h0", str(pts), "--scale-grid", "1",
                 "--density-grid", "0"]) == 0
    assert "p 5" in capsys.readouterr().out


@pytest.mark.parametrize("p", ["4", "1", "-3", "0"])
def test_build_h0_refuses_non_prime_p(tmp_path, capsys, p):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0\n1,0,0\n5,5,0\n")
    out = tmp_path / "h0.mod"
    assert main(["build-h0", str(pts), "--scale-grid", "1,30",
                 "--density-grid", "0,1", "--p", p, "-o", str(out)]) == 3
    assert stderr_json(capsys)["code"] == "validation"
    assert not out.exists()


def test_info_refuses_non_prime_p(tmp_path, capsys):
    path = tmp_path / "z4.mod"
    path.write_text(write_module(ga.line_module()).replace("p 3", "p 4", 1))
    assert main(["info", str(path)]) == 2
    err = stderr_json(capsys)
    assert err["code"] == "parse" and "prime" in err["message"]
