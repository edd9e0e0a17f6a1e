"""Run one `pnoise` command, as the console script would, for h0-cli.

    python3 bench/cli_child.py <pnoise arguments...>

With PNOISE_BENCH_REPORT set, the time spent inside `pnoise.cli.main` is
written there as JSON when the command ends; with PNOISE_BENCH_TRACE=1 as
well, the layer wrappers are installed before the command runs and their
counts go into the same file.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    report = os.environ.get("PNOISE_BENCH_REPORT")
    tracer = None
    if report and os.environ.get("PNOISE_BENCH_TRACE") == "1":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    from pnoise.cli import main as cli_main
    t0 = time.perf_counter()
    code = cli_main(sys.argv[1:])
    main_s = time.perf_counter() - t0
    if report:
        with open(report, "w") as fh:
            json.dump({"main_s": main_s,
                       "layers": tracer.snapshot() if tracer else {}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
