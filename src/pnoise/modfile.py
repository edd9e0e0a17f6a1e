"""Line-oriented ASCII serialization of grid modules and barcode CSV.

Layout::

    pnoise-module 1
    p 3
    r 1
    alpha 1/1
    box 4
    dims
    0 3
    1 2
    ...
    maps
    map 0 axis 0
    1 0 1
    1 1 1
    end

`#` starts a comment; blank lines are ignored.  The dims block lists every
lattice point of the box in lexicographic order (coordinates, then the
dimension).  The maps block carries one matrix per (point, axis) whose
source and target are both nonzero; a matrix has dims[point+e_axis] rows of
dims[point] space-separated residues.  Rationals are printed as `a/b`,
or just `a` when the denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .field import Mat, is_prime
from .grid import Bar, GridModule, add, box_points, make_module, unit

FORMAT_NAME = "pnoise-module"
FORMAT_VERSION = 1


def _fmt_q(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def write_module(F: GridModule, comments=()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{FORMAT_NAME} {FORMAT_VERSION}")
    out += [f"p {F.p}", f"r {F.r}", f"alpha {_fmt_q(F.alpha)}",
            f"box {F.box}"]
    out.append("dims")
    for v in box_points(F.r, F.box):
        out.append(" ".join(map(str, v)) + f" {F.dims[v]}")
    out.append("maps")
    for v in box_points(F.r, F.box):
        for i in range(F.r):
            if v[i] == F.box:
                continue
            m = F.edge(v, i)
            if m.rows == 0 or m.cols == 0:
                continue
            out.append("map " + " ".join(map(str, v)) + f" axis {i}")
            for row in m.data:
                out.append(" ".join(map(str, row)))
    out.append("end")
    return "\n".join(out) + "\n"


class _Lines:
    def __init__(self, text):
        self.raw = text.splitlines()
        self.pos = 0

    def next(self):
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1].split("#", 1)[0].strip()
            if line:
                return self.pos, line
        return self.pos, None


def _keyed_int(lines, key):
    n, line = lines.next()
    parts = line.split() if line else []
    if len(parts) != 2 or parts[0] != key:
        raise ParseError(n, f"expected `{key} <value>`")
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(n, f"bad integer {parts[1]!r}") from None


def parse_module(text: str) -> GridModule:
    lines = _Lines(text)
    n, line = lines.next()
    if line is None or line.split() != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise ParseError(n, f"expected `{FORMAT_NAME} {FORMAT_VERSION}`")
    p = _keyed_int(lines, "p")
    r = _keyed_int(lines, "r")
    n, line = lines.next()
    parts = line.split() if line else []
    if len(parts) != 2 or parts[0] != "alpha":
        raise ParseError(n, "expected `alpha a/b`")
    try:
        alpha = Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise ParseError(n, f"bad rational {parts[1]!r}") from None
    box = _keyed_int(lines, "box")
    if r < 1 or box < 0 or alpha <= 0:
        raise ParseError(n, "header values out of range")
    if not is_prime(p):
        raise ParseError(n, f"p must be prime, got {p}")

    n, line = lines.next()
    if line != "dims":
        raise ParseError(n, "expected `dims`")
    dims = {}
    for v in box_points(r, box):
        n, line = lines.next()
        parts = (line or "").split()
        if len(parts) != r + 1:
            raise ParseError(n, f"expected {r} coordinates and a dimension")
        try:
            coords, d = tuple(map(int, parts[:r])), int(parts[r])
        except ValueError:
            raise ParseError(n, "non-integer entry in dims block") from None
        if coords != v:
            raise ParseError(n, f"expected point {v}, got {coords}")
        if d < 0:
            raise ParseError(n, "negative dimension")
        dims[v] = d

    n, line = lines.next()
    if line != "maps":
        raise ParseError(n, "expected `maps`")
    edges = {}
    while True:
        n, line = lines.next()
        if line is None:
            raise ParseError(n, "missing `end`")
        if line == "end":
            break
        parts = line.split()
        if len(parts) != r + 3 or parts[0] != "map" or parts[r + 1] != "axis":
            raise ParseError(n, "expected `map <coords> axis <i>`")
        try:
            v = tuple(map(int, parts[1:r + 1]))
            axis = int(parts[r + 2])
        except ValueError:
            raise ParseError(n, "non-integer map header entry") from None
        if not all(0 <= c <= box for c in v) or not 0 <= axis < r \
                or v[axis] == box:
            raise ParseError(n, f"map location {v} axis {axis} out of range")
        if (v, axis) in edges:
            raise ParseError(n, f"duplicate map at {v} axis {axis}")
        w = add(v, unit(axis, r))
        rows = []
        for _ in range(dims[w]):
            n, line = lines.next()
            entries = (line or "").split()
            if len(entries) != dims[v]:
                raise ParseError(n, f"expected {dims[v]} entries")
            try:
                rows.append([int(e) for e in entries])
            except ValueError:
                raise ParseError(n, "non-integer matrix entry") from None
        edges[(v, axis)] = Mat.from_rows(rows, p) if rows else \
            Mat.zeros(0, dims[v], p)
    n, line = lines.next()
    if line is not None:
        raise ParseError(n, "trailing content after `end`")
    return make_module(r, alpha, box, p, dims, edges)


# -- barcode / FCF CSV -----------------------------------------------------


def barcode_to_csv(bars, alpha=1) -> str:
    alpha = Fraction(alpha)
    out = ["start,end"]
    for b in bars:
        end = "inf" if b.end is None else _fmt_q(alpha * b.end[0])
        out.append(f"{_fmt_q(alpha * b.start[0])},{end}")
    return "\n".join(out) + "\n"


def barcode_from_csv(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "start,end":
        raise ParseError(1, "expected `start,end` header")
    bars = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ParseError(k, "expected two fields")
        try:
            start = (Fraction(parts[0]),)
            end = None if parts[1] == "inf" else (Fraction(parts[1]),)
        except (ValueError, ZeroDivisionError):
            raise ParseError(k, f"bad rational in {ln!r}") from None
        if end is not None and end < start:
            raise ParseError(k, f"bar ends before it starts in {ln!r}")
        bars.append(Bar(start, end))
    return bars
