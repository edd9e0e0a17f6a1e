"""Measure a commit with the benchmark and write the numbers as JSON.

    python3 bench/baseline.py [--seeds 10] [--out bench/baseline.json]

For each workload listed in BENCHMARK.json: one untraced run per seed
1..N, the median of each end-to-end metric, and its spread (the distance
between the first and third quartile over the median). Then one untraced
run of every unlisted workload, and one traced run of every workload.
Runs go one after another; each line of progress goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(spec, workload, seed, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    out = lines[-1]
    out["env"], out["run"] = lines[0]["env"], lines[1]["run"]
    out["run"]["failures"] = lines[1]["failures"]
    out["wall_s"] = time.perf_counter() - t0
    print(f"{workload} seed={seed} trace={trace} {out['wall_s']:.1f}s "
          f"failed={out['failed']}/{out['attempted']}", file=sys.stderr,
          flush=True)
    return out


def summary(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[name] = {"median": med, "spread": (q[2] - q[0]) / med,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    listed = [w["name"] for w in spec["workloads"]]
    result = {"run_seconds": spec["run_seconds"], "end_to_end": {},
              "unlisted": {}, "per_layer": {}}
    for name in listed:
        runs = [run(spec, name, s, 0) for s in range(1, args.seeds + 1)]
        result["end_to_end"][name] = {"summary": summary(runs),
                                      "runs": runs}
    for name in WORKLOADS:
        if name not in listed:
            result["unlisted"][name] = run(spec, name, 1, 0)
    for name in WORKLOADS:
        result["per_layer"][name] = run(spec, name, 1, 1)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
