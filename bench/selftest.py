"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload: an untraced run emits exactly the end-to-end metrics of
BENCHMARK.json, and two traced runs with the same seed emit exactly its
per-layer metrics with identical counts and an identical fail ratio. Each
pass is cut to two jobs; the whole test takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = (".calls", ".cells", ".steps")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--jobs-per-pass", "2"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        before = len(problems)
        out = run(name, 0)
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != e2e:
            problems.append(f"{name}: end-to-end metrics {got} != {e2e}")
        first, second = run(name, 1), run(name, 1)
        for res in (first, second):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != layer:
                problems.append(f"{name}: per-layer metrics differ from "
                                f"BENCHMARK.json: {set(got) ^ set(layer)}")
        for key, val in first["metrics"].items():
            if key.endswith(EXACT) and \
                    val["value"] != second["metrics"][key]["value"]:
                problems.append(f"{name}: {key} {val['value']} then "
                                f"{second['metrics'][key]['value']}")
        if (first["failed"], first["attempted"]) != \
                (second["failed"], second["attempted"]):
            problems.append(f"{name}: fail ratio changed between runs")
        print(f"{name}: {'FAIL' if len(problems) > before else 'ok'}",
              flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
