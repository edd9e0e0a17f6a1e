"""Static SVG renderings: step plots for counting functions, bar diagrams
for barcodes.  Pure string assembly, no drawing dependencies."""

from __future__ import annotations

from fractions import Fraction

from .modfile import _fmt_q

WIDTH, HEIGHT, MARGIN = 480, 300, 40


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]


def _axes(out):
    x0, y0 = MARGIN, HEIGHT - MARGIN
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN}" y2="{y0}" '
               f'stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{MARGIN}" x2="{x0}" y2="{y0}" '
               f'stroke="black"/>')


def fcf_svg(fcf, title="feature counting function") -> str:
    bps = fcf.breakpoints
    tmax = max((t for t, _, _ in bps), default=Fraction(0)) + 1
    vmax = max((v for _, v, _ in bps), default=0) or 1
    sx = (WIDTH - 2 * MARGIN) / float(tmax)
    sy = (HEIGHT - 2 * MARGIN) / float(vmax)

    def X(t):
        return MARGIN + float(t) * sx

    def Y(v):
        return HEIGHT - MARGIN - v * sy

    out = _header(title)
    _axes(out)
    pts = []
    for k, (t, v, _) in enumerate(bps):
        if k:
            pts.append((X(t), Y(bps[k - 1][1])))   # horizontal run-in
        pts.append((X(t), Y(v)))
    pts.append((X(tmax), Y(bps[-1][1])))
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    out.append(f'<polyline points="{path}" fill="none" stroke="steelblue" '
               f'stroke-width="2"/>')
    for t, v, _ in bps:
        out.append(f'<text x="{X(t):.1f}" y="{HEIGHT - MARGIN + 15}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="11">{_fmt_q(t)}</text>')
        out.append(f'<text x="{MARGIN - 8}" y="{Y(v) + 4:.1f}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="11">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def barcode_svg(bars, alpha=1, box=None, title="barcode") -> str:
    alpha = Fraction(alpha)
    if box is None:
        box = max([b.start[0] for b in bars]
                  + [b.end[0] for b in bars if b.end is not None], default=1)
    tmax = alpha * box + alpha
    sx = (WIDTH - 2 * MARGIN) / float(tmax or 1)
    out = _header(title)
    _axes(out)
    n = max(len(bars), 1)
    gap = (HEIGHT - 2 * MARGIN) / (n + 1)
    for k, b in enumerate(sorted(bars, key=lambda b: (b.start,
                                                      b.end is None))):
        y = HEIGHT - MARGIN - (k + 1) * gap
        s = MARGIN + float(alpha * b.start[0]) * sx
        if b.end is None:
            e, dash = WIDTH - MARGIN, ' stroke-dasharray="6,3"'
        else:
            e, dash = MARGIN + float(alpha * b.end[0]) * sx, ""
        out.append(f'<line x1="{s:.1f}" y1="{y:.1f}" x2="{e:.1f}" '
                   f'y2="{y:.1f}" stroke="firebrick" stroke-width="4"'
                   f'{dash}/>')
        label = _fmt_q(alpha * b.start[0]) + "–" + \
            ("inf" if b.end is None else _fmt_q(alpha * b.end[0]))
        out.append(f'<text x="{MARGIN - 8}" y="{y + 4:.1f}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="10">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
