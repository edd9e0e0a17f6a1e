"""The package's records as they were written with `@dataclass(frozen=True)`:
the oracle for the hand-written `__slots__` classes in `test_records.py`.
Fields, field order, defaults, `__post_init__` checks and GridModule's own
`__eq__`/`__hash__` are kept; methods unrelated to equality, hashing,
`repr` or validation are left out."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pnoise.errors import NotComparable
from pnoise.grid import leq, modules_equal
from pnoise.noise import _cell_covered


@dataclass(frozen=True)
class Mat:
    p: int
    rows: int
    cols: int
    data: tuple


@dataclass(frozen=True)
class Bar:
    start: tuple
    end: tuple | None = None

    def __post_init__(self):
        if self.end is not None and not leq(self.start, self.end):
            raise NotComparable(f"bar start {self.start} not <= end {self.end}")


@dataclass(frozen=True)
class GridModule:
    r: int
    alpha: Fraction
    box: int
    p: int
    dims: dict
    edges: dict

    def __eq__(self, other):
        if not isinstance(other, GridModule):
            return NotImplemented
        return modules_equal(self, other)

    def __hash__(self):
        return hash((self.r, self.alpha, self.box, self.p))


@dataclass(frozen=True)
class NatMap:
    source: GridModule
    target: GridModule
    mats: dict


@dataclass(frozen=True)
class Submodule:
    parent: GridModule
    basis: dict


@dataclass(frozen=True)
class ConeNoise:
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators",
                           tuple(tuple(g) for g in self.generators))
        if not self.generators:
            raise ValueError("cone needs at least one generator")
        if len({len(g) for g in self.generators}) != 1:
            raise ValueError("cone generators must have one length")
        for g in self.generators:
            if all(c == 0 for c in g):
                raise ValueError("cone generators must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("cone generators must be componentwise >= 0")


@dataclass(frozen=True)
class VNormNoise:
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors",
                           tuple(tuple(g) for g in self.vectors))
        if not self.vectors:
            raise ValueError("need at least one vector")
        if len({len(g) for g in self.vectors}) != 1:
            raise ValueError("vectors must have one length")
        for g in self.vectors:
            if all(c == 0 for c in g):
                raise ValueError("vectors must be nonzero")
            if any(c < 0 for c in g):
                raise ValueError("vectors must be componentwise >= 0")


@dataclass(frozen=True)
class DomainNoise:
    steps: tuple

    def __post_init__(self):
        eps_vals = [s[0] for s in self.steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        for (_, lo_boxes), (_, hi_boxes) in zip(self.steps, self.steps[1:]):
            for lo, hi in lo_boxes:
                if not _cell_covered(lo, hi, hi_boxes):
                    raise ValueError("domain regions must be nested in eps")


@dataclass(frozen=True)
class DimensionNoise:
    steps: tuple

    def __post_init__(self):
        eps_vals = [s[0] for s in self.steps]
        if eps_vals != sorted(eps_vals) or len(set(eps_vals)) != len(eps_vals):
            raise ValueError("steps must be strictly increasing in eps")
        if any(n < 0 for _, n in self.steps):
            raise ValueError("thresholds must be >= 0")
        if self.threshold(0) != 0:
            raise ValueError("n(0) must be 0")
        top = self.steps[-1][0]
        for a, _ in self.steps:
            for b, _ in self.steps:
                if a + b > top:
                    continue
                if self.threshold(a) + self.threshold(b) > self.threshold(a + b):
                    raise ValueError(
                        f"thresholds not superadditive at {a}+{b}")

    def threshold(self, eps):
        n = 0
        for e, val in self.steps:
            if e <= eps:
                n = val
        return n


@dataclass(frozen=True)
class Intersection:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("need at least one part")


@dataclass(frozen=True)
class FeatureCountingFunction:
    breakpoints: tuple

    def __post_init__(self):
        bps = self.breakpoints
        if not bps or bps[0][0] != 0:
            raise ValueError("need an initial breakpoint at t=0")
        ts = [b[0] for b in bps]
        if ts != sorted(ts) or len(set(ts)) != len(ts):
            raise ValueError("breakpoints must be strictly increasing in t")
        vals = [b[1] for b in bps]
        if any(v < 0 for v in vals):
            raise ValueError("values must be >= 0")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be non-increasing")


@dataclass(frozen=True)
class EquivalenceBudget:
    tau: object
    mu: object


@dataclass(frozen=True)
class BarFunction:
    fcf: FeatureCountingFunction
    flags: tuple
    engine: str


@dataclass(frozen=True)
class Denoising:
    t: Fraction
    module: GridModule
    mode: str
    certified: bool
    rank: int
