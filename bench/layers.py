"""Per-layer tracing from outside the package: one layer per pnoise module.

Every public function of a layer module is replaced by a wrapper that
counts calls and measures time. A module's self time is the time spent
inside its wrapped functions minus the time spent in wrapped calls they
make, so each second of traced work is charged to exactly one layer.
Modules import functions by name (`from .grid import evaluate_map`), so a
wrapper is bound under every `pnoise.*` module that holds the original.

Counts and times stay in memory until the caller reads them with
`Tracer.snapshot()`. Nothing here changes the package's files.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> public functions whose call counts are reported by name
REPORTED = {
    "polyhedra": ("minimize", "feasible"),
    "noise": ("offset_cost", "noise_size", "contains", "max_noise_submodule"),
    "structure": ("quotient_by_submodule", "submodule_to_module",
                  "span_submodule", "cokernel"),
    "field": ("rank", "kernel_basis", "solve", "solvable", "column_reduce",
              "quotient_map", "in_span"),
    "grid": ("evaluate_map",),
    "fcf": ("bar_search", "bar_r1", "is_interleaved", "natural_map_space",
            "minimal_rank_submodule"),
    "denoise": ("quotient_denoise", "subfunctor_denoise"),
    "barcode": ("decompose", "reconstruct"),
    "bifiltration": ("build_h0",),
    "modfile": ("parse_module", "write_module"),
}

# Coordinate helpers called in the innermost loops: a wrapper would cost
# more than their work, so their time stays with the caller.
UNWRAPPED = {"grid": {"box_points", "clip", "leq", "add", "unit"}}

# Child commands of the h0-cli pipeline, in order.
CLI_COMMANDS = ("build-h0", "fcf", "denoise-quotient", "denoise-subfunctor")


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fns in REPORTED.items():
        out += [(f"{layer}.{fn}.calls", "count") for fn in fns]
        if layer == "field":
            out.append(("field.cells", "count"))
        if layer == "grid":
            out.append(("grid.evaluate_map.steps", "count"))
        out.append((f"{layer}.self_s", "s"))
    out += [(f"cli.{c}.ms", "ms") for c in CLI_COMMANDS]
    out += [("cli.startup_ms", "ms"), ("trace.overhead", "ratio")]
    return out


class Tracer:
    """Call counts and self time per layer, for one process."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []          # [layer, time spent in wrapped children]
        self._originals = []      # (module, attribute, original)

    def _wrap(self, layer, name, fn):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        key = f"{layer}.{name}.calls"
        clock = time.perf_counter

        if layer == "field":
            def extra(args):
                # matrices handed to the field layer from outside it
                if not stack or stack[-1][0] != "field":
                    counts["field.cells"] += sum(
                        a.rows * a.cols for a in args if hasattr(a, "cols"))
        elif layer == "grid" and name == "evaluate_map":
            def extra(args):
                if len(args) == 3:          # (F, v, w)
                    F, v, w = args
                    counts["grid.evaluate_map.steps"] += sum(
                        max(0, min(b, F.box) - min(a, F.box))
                        for a, b in zip(v, w))
        else:
            extra = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if extra is not None:
                extra(args)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def install(self):
        """Wrap every public function of every layer module and rebind the
        wrapper wherever a pnoise module holds the original."""
        import pnoise  # noqa: F401  (imports every layer module)
        import pnoise.cli  # noqa: F401
        wrappers = {}
        for layer in REPORTED:
            mod = sys.modules[f"pnoise.{layer}"]
            skip = UNWRAPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip or \
                        isinstance(obj, type) or not callable(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "pnoise" and not modname.startswith("pnoise."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def snapshot(self):
        """Counts and self seconds as one flat dict."""
        out = dict(self.counts)
        out.update({f"{layer}.self_s": s for layer, s in self.self_s.items()})
        return out
