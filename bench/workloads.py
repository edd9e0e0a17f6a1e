"""The benchmark's workloads: seeded inputs, one job, and its answer check.

Each workload is a fixed family of instances drawn once by the generator
of the acceptance criterion it comes from, under a fixed family seed. The
run's --seed picks how each instance is presented (a random change of basis
at every grid point for line modules; a permutation, reflection and integer
translation for point clouds) and the order of the jobs. Presentations of
one instance are isomorphic, so they cost the same work up to the order in
which searches meet their first hit. So the inputs add little to the
spread between runs with different seeds, which per-job random draws
cannot achieve here: job times span three orders of magnitude.

A pass is one job per family member. A run measures a whole number of
passes, fixed by --seconds and the pass time at the seed commit, so every
run and every commit measures the same mix of instances.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction as Q
from pathlib import Path

from pnoise import barcode as bc
from pnoise import fcf as fc
from pnoise import field as fp
from pnoise.field import Mat
from pnoise.grid import (Bar, box_points, direct_sum, make_bar, make_module,
                         validate)
from pnoise.modfile import parse_module
from pnoise.noise import ConeNoise

BENCH_DIR = Path(__file__).resolve().parent
RAY1 = ConeNoise(((Q(1),),))


# -- generators ------------------------------------------------------------


def line_module(rng, box, p, maxdim, total_cap):
    """The acceptance suite's random one-parameter module generator."""
    dims, budget = {}, total_cap
    for v in box_points(1, box):
        d = rng.randrange(min(maxdim, budget) + 1)
        dims[v] = d
        budget -= d
    edges = {}
    for i in range(box):
        a, b = dims[(i,)], dims[(i + 1,)]
        edges[((i,), 0)] = Mat.from_rows(
            [[rng.randrange(p) for _ in range(a)] for _ in range(b)], p) \
            if a and b else Mat.zeros(b, a, p)
    return make_module(1, Q(1), box, p, dims, edges)


def _invertible(rng, d, p):
    while True:
        m = Mat.from_rows([[rng.randrange(p) for _ in range(d)]
                           for _ in range(d)], p)
        if fp.rank(m) == d:
            return m


def change_basis(F, rng):
    """An isomorphic copy of a line module: edge i -> P_{i+1} E P_i^-1."""
    P = {v: _invertible(rng, d, F.p) for v, d in F.dims.items()}
    inv = {v: fp.solve(m, Mat.identity(m.rows, F.p)) for v, m in P.items()}
    edges = {}
    for (v, i), e in F.edges.items():
        w = (v[0] + 1,)
        edges[(v, i)] = P[w] @ e @ inv[v] if e.rows and e.cols else e
    return make_module(F.r, F.alpha, F.box, F.p, F.dims, edges)


def iso_key(F):
    """The barcode: equal keys for isomorphic line modules."""
    return (F.box, F.p, tuple(bc.decompose(F)))


# -- workloads -------------------------------------------------------------


class Workload:
    """One family of instances. Subclasses define the generator, the job
    and its answer check."""

    name = ""
    family_seed = 0
    family_size = 0
    warmup_size = 1            # sized so set-up is mostly warm-up work
    pass_seconds = 1.0         # one pass, measured at the seed commit

    def __init__(self, workdir: Path | None = None):
        self.workdir = workdir
        self.family = self.draw(random.Random(self.family_seed),
                                self.family_size, exclude=())

    def draw(self, rng, n, exclude):
        """n instances from the generator, skipping keys in `exclude`."""
        out = []
        while len(out) < n:
            inst = self.generate(rng)
            if self.key(inst) not in exclude:
                out.append(inst)
        return out

    def warmup_instances(self, warmup_seed):
        """Instances of another seed that match no family member, so no
        timed input is cached before it is timed."""
        exclude = {self.key(inst) for inst in self.family}
        return self.draw(random.Random(warmup_seed), self.warmup_size,
                         exclude)

    def make_pass(self, rng):
        order = rng.sample(range(len(self.family)), len(self.family))
        return [(k, self.present(self.family[k], rng)) for k in order]

    def discard(self, inst):
        """Remove what a job left on disk."""

    # subclass interface
    def generate(self, rng):
        raise NotImplementedError

    def key(self, inst):
        raise NotImplementedError

    def present(self, inst, rng):
        raise NotImplementedError

    def run(self, inst):
        raise NotImplementedError

    def check(self, inst, answer):
        """Failed answer checks, as short strings; empty when all hold."""
        raise NotImplementedError


class BarExhaustive(Workload):
    """Criterion 6: exhaustive bar search against the r=1 closed form."""

    name = "bar-exhaustive-r1"
    family_seed = 42           # criterion 6 draws from random.Random(42)
    family_size = 24
    warmup_size = 2
    pass_seconds = 4.6

    def generate(self, rng):
        box = rng.randrange(1, 7)
        return line_module(rng, box=box, p=2, maxdim=3, total_cap=7)

    def key(self, F):
        return iso_key(F)

    def present(self, F, rng):
        return change_basis(F, rng)

    def run(self, F):
        return (fc.bar_r1(RAY1, F),
                fc.bar_search(RAY1, F, [], engine="exhaustive").fcf)

    def check(self, F, answer):
        f1, f2 = answer
        cands = {bp[0] for bp in f1.breakpoints} | \
            {bp[0] for bp in f2.breakpoints}
        for c in sorted(cands):
            for t in (c, c + Q(1, 2)):
                if f1.value(t) != f2.value(t):
                    return [f"bar_r1 != exhaustive at t={t}"]
        return []


class Interleave(Workload):
    """Criterion 8's modules F and F + B with B one bar: tau-interleaving
    checks for tau = 0, 1, 2 and F against itself at tau = 0."""

    name = "interleave-r1-p2"
    family_seed = 88           # criterion 8 draws from random.Random(88)
    family_size = 60
    warmup_size = 12
    pass_seconds = 3.0
    p, total_cap, box = 2, 5, 3

    def generate(self, rng):
        F = line_module(rng, box=self.box, p=self.p, maxdim=2,
                        total_cap=self.total_cap)
        start = rng.randrange(3)
        return F, Bar((start,), (start + rng.randrange(1, 3),))

    def key(self, inst):
        F, bar = inst
        return iso_key(F), bar

    def present(self, inst, rng):
        F, bar = inst
        F = change_basis(F, rng)
        return F, bar, direct_sum(F, make_bar(bar, F.box, F.alpha, F.p))

    def run(self, inst):
        F, _, G = inst
        return (tuple(fc.is_interleaved(F, G, (t,)) for t in (0, 1, 2)),
                fc.is_interleaved(F, F, (0,)))

    def check(self, inst, answer):
        F, bar, _ = inst
        shifts, self_0 = answer
        bad = []
        if not self_0:
            bad.append("is_interleaved(F, F, 0) is False")
        if any(a and not b for a, b in zip(shifts, shifts[1:])):
            bad.append(f"not monotone in tau: {shifts}")
        length, dies_inside = bar.end[0] - bar.start[0], bar.end[0] <= F.box
        for tau, ok in enumerate(shifts):
            if dies_inside and length <= 2 * tau and not ok:
                bad.append(f"F, F+B not {tau}-interleaved, bar {length} long")
        return bad


class InterleaveP3(Interleave):
    """The same checks over F_3. Natural-map spaces of dimension n have
    3^n maps, which passes ORBIT_COMBO_CAP at n = 8; the search then tries
    only basis maps, so some true interleavings (the identity among them)
    are missed. Those jobs fail their check and are counted, not hidden."""

    name = "interleave-r1-p3"
    family_size = 120
    warmup_size = 6
    pass_seconds = 20.3
    p, total_cap = 3, 4


class H0Cli(Workload):
    """build-h0 -> fcf -> denoise (quotient) -> denoise (subfunctor), each
    command its own child process, on two-cluster weighted point clouds."""

    name = "h0-cli"
    family_seed = 5            # demo 05 is the two-cluster pipeline
    family_size = 16
    pass_seconds = 14.4
    # Size is set here, by the generator: 2 clusters of 3 points on a 3x3
    # patch, 2 density levels and 2 scale thresholds give a 2x2 grid of
    # modules of rank 2 to 4. Quotient mode certifies r=2 results by the
    # exhaustive search, whose cost grows steeply with total dimension.
    clusters, per_cluster, spread, gap = 2, 3, 3, 10
    density_levels = 2
    scale_grid = "2,100"       # squared distances
    noise, fcf_t, denoise_t = "cone:1,1", "1,2,3", "2"

    def __init__(self, workdir):
        super().__init__(workdir)
        # set by a traced run: children write a report, traced or not
        self.report_children = self.trace_children = False
        self.reports = []          # (command, wall seconds, report)
        self.max_child_rss_kb = 0
        self._serial = 0

    def generate(self, rng):
        points, density = [], []
        for c in range(self.clusters):
            for _ in range(self.per_cluster):
                points.append((c * self.gap + rng.randrange(self.spread),
                               rng.randrange(self.spread)))
                density.append(rng.randrange(self.density_levels))
        return points, density

    def key(self, inst):
        points, density = inst
        return tuple(sorted(
            (tuple(sorted((density[a], density[b]))),
             sum((x - y) ** 2 for x, y in zip(points[a], points[b])))
            for a in range(len(points)) for b in range(a)))

    def present(self, inst, rng):
        points, density = inst
        order = rng.sample(range(len(points)), len(points))
        swap = rng.random() < 0.5
        flip = (rng.choice((1, -1)), rng.choice((1, -1)))
        shift = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        rows = []
        for k in order:
            x, y = points[k][::-1] if swap else points[k]
            rows.append((flip[0] * x + shift[0], flip[1] * y + shift[1],
                         density[k]))
        self._serial += 1
        stem = self.workdir / f"job{self._serial}"
        csv = stem.with_suffix(".csv")
        csv.write_text("x,y,density\n" + "".join(
            f"{x},{y},{d}\n" for x, y, d in rows))
        return stem

    def _child(self, args, stem, tag, report=None):
        """Run one pnoise command in a fresh interpreter and wait for it."""
        env = dict(os.environ)
        env.pop("PNOISE_BENCH_REPORT", None)
        env.pop("PNOISE_BENCH_TRACE", None)
        if report is not None:
            env["PNOISE_BENCH_REPORT"] = str(report)
            if self.trace_children:
                env["PNOISE_BENCH_TRACE"] = "1"
        out = stem.with_name(f"{stem.name}.{tag}.out")
        with open(out, "w") as fo, open(os.devnull, "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "cli_child.py"), *args],
                stdout=fo, stderr=fe, env=env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)   # usage: its peak RSS
            wall = time.perf_counter() - t0
        # wait4 reaped the child; record its code so Popen never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss, out

    def run(self, stem):
        mod = str(stem.with_suffix(".mod"))
        steps = (
            ("build-h0", ["build-h0", str(stem.with_suffix(".csv")),
                          "--scale-grid", self.scale_grid,
                          "--density-grid", ",".join(
                              str(k) for k in range(self.density_levels)),
                          "-o", mod]),
            ("fcf", ["fcf", mod, "--noise", self.noise, "--t", self.fcf_t,
                     "--engine", "orbit",
                     "--csv", str(stem.with_suffix(".fcf.csv"))]),
            ("denoise-quotient", ["denoise", mod, "--noise", self.noise,
                                  "--t", self.denoise_t, "--mode", "quotient",
                                  "-o", str(stem.with_suffix(".q.mod"))]),
            ("denoise-subfunctor", ["denoise", mod, "--noise", self.noise,
                                    "--t", self.denoise_t,
                                    "--mode", "subfunctor", "--engine",
                                    "orbit",
                                    "-o", str(stem.with_suffix(".s.mod"))]),
        )
        codes = {}
        for tag, args in steps:
            report = stem.with_name(f"{stem.name}.{tag}.json") \
                if self.report_children else None
            code, wall, rss, _ = self._child(args, stem, tag, report)
            self.max_child_rss_kb = max(self.max_child_rss_kb, rss)
            codes[tag] = code
            if report is not None:
                self.reports.append(
                    (tag, wall, json.loads(report.read_text())))
            if code:
                break
        return codes

    def check(self, stem, codes):
        bad = [f"{tag} exited {code}" for tag, code in codes.items() if code]
        if bad or len(codes) < 4:
            return bad or ["pipeline stopped early"]
        for suffix in (".mod", ".q.mod", ".s.mod"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    validate(parse_module(stem.with_suffix(suffix)
                                          .read_text()))
            except Exception as e:   # any parse or validation failure
                bad.append(f"{suffix}: {type(e).__name__}: {e}")
        code, _, _, out = self._child(["info", str(stem.with_suffix(".mod"))],
                                      stem, "info")
        info = dict(line.split(" ", 1) for line in
                    out.read_text().splitlines() if " " in line)
        if code or "rank" not in info:
            return bad + [f"info exited {code}"]
        rank = int(info["rank"])
        values = [int(line.split(",")[1]) for line in
                  stem.with_suffix(".fcf.csv").read_text().splitlines()[1:]]
        values += [int(part.split("=")[1])
                   for line in stem.with_name(f"{stem.name}.fcf.out")
                   .read_text().splitlines()
                   for part in line.split() if part.startswith("value=")]
        if not values or max(values) > rank:
            bad.append(f"fcf values {values} exceed rank {rank}")
        return bad

    def discard(self, stem):
        for path in self.workdir.glob(f"{stem.name}.*"):
            path.unlink()


WORKLOADS = {w.name: w for w in (BarExhaustive, Interleave, InterleaveP3,
                                 H0Cli)}
