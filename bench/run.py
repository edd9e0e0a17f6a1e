"""The pnoise benchmark: exact batch jobs, one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/NOTES.md for why each was chosen):
  bar-exhaustive-r1  criterion 6: exhaustive bar search vs. the r=1 form
  interleave-r1-p2   criterion 8 modules: tau-interleaving checks over F_2
  interleave-r1-p3   the same over F_3; shows a known false negative
  h0-cli             build-h0 -> fcf -> denoise x2, one child per command

--trace 0 runs whole passes over the workload's instance family, as many
as fill --seconds at the seed commit's speed and give at least MIN_JOBS
jobs, and reports the end-to-end metrics. --trace 1 runs one pass with
every layer wrapped, then the same pass untraced, and reports the
per-layer metrics.
Every answer is checked. Earlier stdout lines describe the run; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_JOBS = 20             # job_tail_ms needs 10 jobs beyond a percentile
TAIL_MAX = 90             # job_tail_ms percentile, lower if fewer jobs
SETUP_SAMPLES = 5         # one in this process, the rest in fresh ones
WARMUP_SEED_OFFSET = 1000


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs-per-pass", type=int, default=None,
                    help="truncate each pass (self-test sizes)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_source():
    if not (SRC / "pnoise" / "__init__.py").is_file():
        sys.exit(f"bench: no pnoise sources at {SRC}; run from the root "
                 "of a pnoise checkout")
    sys.path.insert(0, str(SRC))


def setup(name, workdir):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](workdir)
    warm_seed = wl.family_seed + WARMUP_SEED_OFFSET
    rng = random.Random(warm_seed)
    for inst in wl.warmup_instances(warm_seed):
        inst = wl.present(inst, rng)
        wl.run(inst)
        wl.discard(inst)
    return wl, time.perf_counter() - t0


def probe_setup(name, seed):
    """Setup time of a fresh interpreter, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: setup probe exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def tail(latencies):
    """The TAIL_MAX percentile, or the highest whole percentile with at
    least 10 jobs beyond it if that is lower (nearest rank), as
    (percentile, value). A higher percentile would rest on the few
    slowest family members, whose times vary most from run to run."""
    xs = sorted(latencies)
    n = len(xs)
    q = min(TAIL_MAX, 100 * (n - 10) // n)
    return q, xs[-(-q * n // 100) - 1]


class Runner:
    """Runs passes of one workload and checks every answer."""

    def __init__(self, wl, jobs_per_pass):
        self.wl = wl
        self.jobs_per_pass = jobs_per_pass
        self.attempted = self.failed = 0
        self.failures = {}
        self.spans = []

    def pass_size(self):
        return min(len(self.wl.family), self.jobs_per_pass or math.inf)

    def make_pass(self, rng):
        return self.wl.make_pass(rng)[:self.pass_size()]

    def run_pass(self, jobs, tracer=None):
        """Answers, job latencies and the pass wall time."""
        results, latencies = [], []
        t_pass = time.perf_counter()
        for member, inst in jobs:
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            try:
                answer, error = self.wl.run(inst), None
            except Exception:   # a job that raises counts as failed
                answer, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            results.append((inst, answer, error))
            if tracer:
                after = tracer.snapshot()
                self.spans.append({
                    "member": member, "start_s": t0 - t_pass,
                    "end_s": t1 - t_pass,
                    "layers": {k: v - before.get(k, 0)
                               for k, v in after.items()
                               if v != before.get(k, 0)}})
        return results, latencies, time.perf_counter() - t_pass

    def check(self, results):
        """Check every answer of a pass, outside its timing and tracing."""
        for inst, answer, error in results:
            bad = [error.strip().splitlines()[-1]] if error else \
                self.wl.check(inst, answer)
            self.attempted += 1
            if bad:
                self.failed += 1
                for msg in bad:
                    self.failures[msg] = self.failures.get(msg, 0) + 1
                if error:
                    sys.stderr.write(error)
            self.wl.discard(inst)


def end_to_end(args, wl, runner, setup_s):
    rng = random.Random(args.seed)
    passes = max(math.ceil(MIN_JOBS / runner.pass_size()),
                 math.ceil(args.seconds / wl.pass_seconds))
    latencies, wall = [], 0.0
    for _ in range(passes):
        results, lat, w = runner.run_pass(runner.make_pass(rng))
        runner.check(results)
        latencies += lat
        wall += w
    if hasattr(wl, "max_child_rss_kb"):
        rss_kb = wl.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    q, tail_s = tail(latencies)
    metrics = {
        "jobs_per_s": (len(latencies) / wall, "1/s"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    info = {"jobs": len(latencies), "passes": passes,
            "job_tail_percentile": f"p{q}",
            "fail_ratio": runner.failed / runner.attempted,
            "setup_samples_s": setup_s}
    return metrics, info


def per_layer(args, wl, runner):
    import layers
    tracer = layers.Tracer()
    children = hasattr(wl, "reports")      # h0-cli: work runs in children
    if children:
        wl.report_children = wl.trace_children = True
    tracer.install()
    try:
        results, _, traced = runner.run_pass(
            runner.make_pass(random.Random(args.seed)), tracer)
    finally:
        tracer.uninstall()
    runner.check(results)
    counts = tracer.snapshot()
    cli_ms = {c: [] for c in layers.CLI_COMMANDS}
    startup = []
    if children:
        for _, _, report in wl.reports:
            for k, v in report["layers"].items():
                counts[k] = counts.get(k, 0) + v
        wl.reports.clear()
        wl.trace_children = False
    # the same pass again, untraced: presentations come from the same seed
    results, _, untraced = runner.run_pass(
        runner.make_pass(random.Random(args.seed)))
    runner.check(results)
    if children:
        for tag, wall, report in wl.reports:
            cli_ms[tag].append(1000 * wall)
            startup.append(1000 * (wall - report["main_s"]))
    counts["trace.overhead"] = traced / untraced
    for tag, walls in cli_ms.items():
        counts[f"cli.{tag}.ms"] = statistics.fmean(walls) if walls else 0
    counts["cli.startup_ms"] = statistics.fmean(startup) if startup else 0
    metrics = {name: (counts.get(name, 0), unit)
               for name, unit in layers.metric_names()}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"workload": args.workload,
                                 "seed": args.seed, "jobs": runner.spans,
                                 "totals": counts}, indent=1))
    info = {"jobs": len(runner.spans), "passes": 1,
            "fail_ratio": runner.failed / runner.attempted,
            "spans": str(spans.relative_to(ROOT))}
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    require_source()
    # Cache bytecode as an installed pnoise would, whatever the caller's
    # environment says; children inherit the setting.
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl, setup_main = setup(args.workload, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if hasattr(wl, "max_child_rss_kb"):
            wl.max_child_rss_kb = 0       # warm-up children do not count
        runner = Runner(wl, args.jobs_per_pass)
        if args.trace:
            metrics, info = per_layer(args, wl, runner)
        else:
            setup_s = [setup_main] + [probe_setup(args.workload, args.seed)
                                      for _ in range(SETUP_SAMPLES - 1)]
            metrics, info = end_to_end(args, wl, runner, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {"workload": args.workload, "seed": args.seed,
           "family_seed": wl.family_seed,
           "warmup_seed": wl.family_seed + WARMUP_SEED_OFFSET,
           "family_size": len(wl.family), "seconds": args.seconds,
           "trace": args.trace, "commit": git_commit(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))}
    print(json.dumps({"env": env}))
    print(json.dumps({"run": info, "failures": runner.failures}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
