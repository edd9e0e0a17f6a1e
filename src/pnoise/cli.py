"""Command-line surface.

    pnoise validate F.mod
    pnoise info F.mod
    pnoise barcode F.mod [--csv OUT]
    pnoise fcf F.mod --noise cone:1,1 --t 0,1,2 [--engine exact|orbit]
    pnoise distance-fcf f.csv g.csv
    pnoise denoise F.mod --noise SPEC --t Q [--mode quotient|subfunctor] -o OUT
    pnoise build-h0 points.csv --scale-grid 1,2,4 --density-grid 0 -o OUT
    pnoise export F.mod --svg OUT | pnoise export f.csv --svg OUT

Exit codes: 0 success, 2 parse error, 3 validation error, 4 resource cap.
Errors go to stderr as one JSON object {code, message, location}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import barcode as bc
from . import denoise as dn
from . import fcf as fc
from . import modfile as mf
from . import noise as ns
from . import plots
from . import structure as st
from .bifiltration import build_h0
from .errors import (ParseError, PnoiseError, SearchSpaceTooLarge,
                     ValidationError)
from .field import default_prime
from .grid import validate

EXIT_PARSE, EXIT_VALIDATION, EXIT_RESOURCE = 2, 3, 4
T_POINTS_CAP = 10_000


class CliError(Exception):
    def __init__(self, exit_code, code, message, location=None):
        self.exit_code, self.code = exit_code, code
        self.message, self.location = message, location
        super().__init__(message)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(EXIT_PARSE, "io", str(e), path) from None


def _write_out(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(EXIT_PARSE, "io", str(e), path) from None


def _load_module(path):
    try:
        F = mf.parse_module(_read(path))
    except ParseError as e:
        raise CliError(EXIT_PARSE, "parse", e.reason,
                       f"{path}:{e.line}") from None
    try:
        validate(F)
    except ValidationError as e:
        raise CliError(EXIT_VALIDATION, "validation", str(e), path) from None
    return F


def _parse_spec(text):
    try:
        return ns.parse_noise_spec(text)
    except (ParseError, ValueError) as e:
        raise CliError(EXIT_PARSE, "parse", f"bad noise spec: {e}",
                       "--noise") from None


def _parse_q(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(EXIT_PARSE, "parse", f"bad rational {text!r}",
                       flag) from None


def _parse_t_list(text):
    """Comma list `0,1,3/2` or range `a:b:step`, either of at most
    T_POINTS_CAP points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_PARSE, "parse",
                           "range must be start:stop:step", "--t")
        a, b, s = (_parse_q(x, "--t") for x in parts)
        if s <= 0:
            raise CliError(EXIT_PARSE, "parse", "step must be positive",
                           "--t")
        count = max(0, math.floor((b - a) / s) + 1)
        if count > T_POINTS_CAP:
            raise CliError(EXIT_RESOURCE, "resource",
                           f"range has {count} points, cap {T_POINTS_CAP}",
                           "--t")
        return [a + k * s for k in range(count)]
    items = [x for x in text.split(",") if x.strip()]
    if len(items) > T_POINTS_CAP:
        raise CliError(EXIT_RESOURCE, "resource",
                       f"list has {len(items)} points, cap {T_POINTS_CAP}",
                       "--t")
    return [_parse_q(x, "--t") for x in items]


# -- subcommand bodies -----------------------------------------------------


def cmd_validate(args):
    _load_module(args.module)
    print("ok")


def cmd_info(args):
    F = _load_module(args.module)
    b0 = st.betti0(F)
    print(f"p {F.p}")
    print(f"r {F.r}")
    print(f"alpha {mf._fmt_q(F.alpha)}")
    print(f"box {F.box}")
    print(f"total_dim {F.total_dim()}")
    print(f"rank {sum(b0.values())}")
    print("betti0 " + "; ".join(
        f"({','.join(mf._fmt_q(c) for c in g)})x{m}"
        for g, m in sorted(b0.items())))


def cmd_barcode(args):
    F = _load_module(args.module)
    bars = bc.decompose(F)
    _write_out(mf.barcode_to_csv(bars, F.alpha), args.csv)


def cmd_fcf(args):
    F = _load_module(args.module)
    spec = _parse_spec(args.noise)
    ts = _parse_t_list(args.t) if args.t else []
    engine = "exhaustive" if args.engine == "exact" else "orbit"
    out = fc.bar_search(spec, F, ts, engine=engine)
    fcf, flags = out.fcf, out.flags
    _write_out(fc.fcf_to_csv(fcf), args.csv)
    for t, exact in flags:
        print(f"t={mf._fmt_q(t)} value={fcf.value(t)} "
              f"exact={'true' if exact else 'false'}")


def cmd_distance_fcf(args):
    fs = []
    for path in (args.f, args.g):
        try:
            fs.append(fc.fcf_from_csv(_read(path)))
        except ParseError as e:
            raise CliError(EXIT_PARSE, "parse", e.reason,
                           f"{path}:{e.line}") from None
    d = fc.fcf_interleaving_distance(*fs)
    print("inf" if d == ns.INFINITE else mf._fmt_q(d))


def cmd_denoise(args):
    F = _load_module(args.module)
    spec = _parse_spec(args.noise)
    t = _parse_q(args.t, "--t")
    if args.mode == "quotient":
        d = dn.quotient_denoise(spec, F, t)
    else:
        d = dn.subfunctor_denoise(spec, F, t, engine=args.engine)
    comment = (f"denoised t={mf._fmt_q(t)} mode={d.mode} "
               f"certified={'true' if d.certified else 'false'}")
    _write_out(mf.write_module(d.module, comments=[comment]), args.out)
    print(f"rank {d.rank} certified {'true' if d.certified else 'false'}",
          file=sys.stderr)


def _read_points_csv(path):
    points, density = [], []
    for k, line in enumerate(_read(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line or line.lower().startswith(("x,", "point")):
            continue
        try:
            row = [Fraction(x) for x in line.replace(",", " ").split()]
        except (ValueError, ZeroDivisionError):
            raise CliError(EXIT_PARSE, "parse", "bad coordinate row",
                           f"{path}:{k}") from None
        if not row:
            continue
        points.append(tuple(row[:-1]) if len(row) > 1 else (row[0],))
        density.append(row[-1] if len(row) > 1 else Fraction(0))
    if not points:
        raise CliError(EXIT_PARSE, "parse", "no points", path)
    return points, density


def cmd_build_h0(args):
    points, density = _read_points_csv(args.points)
    if args.uniform_density:
        # treat every column as a coordinate, no density weighting
        points = [p + (d,) for p, d in zip(points, density)]
        density = [Fraction(0)] * len(points)
    try:
        F = build_h0(points=points, density=density,
                     scale_grid=_parse_t_list(args.scale_grid),
                     density_grid=_parse_t_list(args.density_grid),
                     p=args.p if args.p is not None else default_prime(),
                     alpha=_parse_q(args.alpha, "--alpha"))
    except (ValueError, PnoiseError) as e:
        raise CliError(EXIT_VALIDATION, "validation", str(e)) from None
    _write_out(mf.write_module(F), args.out)


def cmd_export(args):
    if not (args.svg or args.csv):
        raise CliError(EXIT_PARSE, "parse", "need --svg and/or --csv")
    text = _read(args.input)
    stripped = text.lstrip()
    if stripped.startswith(mf.FORMAT_NAME):
        F = _load_module(args.input)
        bars = bc.decompose(F)
        if args.svg:
            _write_out(plots.barcode_svg(bars, F.alpha, F.box), args.svg)
        if args.csv:
            _write_out(mf.barcode_to_csv(bars, F.alpha), args.csv)
    elif stripped.lower().startswith("t,"):
        try:
            f = fc.fcf_from_csv(text)
        except ParseError as e:
            raise CliError(EXIT_PARSE, "parse", e.reason,
                           f"{args.input}:{e.line}") from None
        if args.svg:
            _write_out(plots.fcf_svg(f), args.svg)
        if args.csv:
            _write_out(fc.fcf_to_csv(f), args.csv)
    else:
        raise CliError(EXIT_PARSE, "parse",
                       "input is neither a module file nor an FCF csv",
                       args.input)


# -- wiring ----------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(prog="pnoise",
                                 description="exact multiparameter "
                                 "persistence with noise systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def mod_cmd(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("module", help="module file")
        sp.set_defaults(fn=fn)
        return sp

    mod_cmd("validate", cmd_validate, help="parse and structurally check")
    mod_cmd("info", cmd_info, help="print rank, support, generator grades")

    sp = mod_cmd("barcode", cmd_barcode, help="decompose an r=1 module")
    sp.add_argument("--csv", default="-", help="output path (default stdout)")

    sp = mod_cmd("fcf", cmd_fcf, help="feature counting function")
    sp.add_argument("--noise", required=True, help="noise spec, e.g. cone:1,1")
    sp.add_argument("--t", default="", help="sample points: list or a:b:step")
    sp.add_argument("--engine", choices=["exact", "orbit"], default="exact")
    sp.add_argument("--csv", default="-")

    sp = sub.add_parser("distance-fcf", help="interleaving distance of FCFs")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.set_defaults(fn=cmd_distance_fcf)

    sp = mod_cmd("denoise", cmd_denoise, help="t-close minimal-rank module")
    sp.add_argument("--noise", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--mode", choices=["quotient", "subfunctor"],
                    default="quotient")
    sp.add_argument("--engine", choices=["exhaustive", "orbit"],
                    default="exhaustive")
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("build-h0",
                        help="H0 bifiltration from a weighted point cloud")
    sp.add_argument("points", help="csv: coordinates then a density column")
    sp.add_argument("--scale-grid", required=True)
    sp.add_argument("--density-grid", required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--uniform-density", action="store_true")
    sp.add_argument("-o", "--out", default="-")
    sp.set_defaults(fn=cmd_build_h0)

    sp = sub.add_parser("export", help="render module/FCF to SVG or CSV")
    sp.add_argument("input")
    sp.add_argument("--svg", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=cmd_export)
    return ap


def _emit_error(code, message, location):
    json.dump({"code": code, "message": message, "location": location},
              sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.fn(args)
    except CliError as e:
        _emit_error(e.code, e.message, e.location)
        return e.exit_code
    except ParseError as e:
        _emit_error("parse", e.reason, f"line {e.line}")
        return EXIT_PARSE
    except SearchSpaceTooLarge as e:
        _emit_error("resource", str(e), None)
        return EXIT_RESOURCE
    except PnoiseError as e:
        _emit_error("validation", str(e), None)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
