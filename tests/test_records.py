"""The record classes (hand-written `__init__`s on `record.Record`) against
their former frozen dataclasses (kept in `dataclass_records.py` as the
oracle): the same fields and defaults, equality, hashing, `repr`, set and
dict order, and the same refusals."""

import dataclasses
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

import dataclass_records as OLD
from pnoise import denoise, fcf, field, grid, noise, structure
from pnoise.noise import INFINITE
from pnoise.record import Record

from conftest import random_line_module

NEW = SimpleNamespace(
    Mat=field.Mat, Bar=grid.Bar, GridModule=grid.GridModule,
    NatMap=structure.NatMap, Submodule=structure.Submodule,
    ConeNoise=noise.ConeNoise, VNormNoise=noise.VNormNoise,
    DomainNoise=noise.DomainNoise, DimensionNoise=noise.DimensionNoise,
    Intersection=noise.Intersection,
    FeatureCountingFunction=fcf.FeatureCountingFunction,
    EquivalenceBudget=fcf.EquivalenceBudget, BarFunction=fcf.BarFunction,
    Denoising=denoise.Denoising)

NAMES = sorted(vars(NEW))
UNHASHABLE = {"NatMap", "Submodule"}


# -- random field values, built from either set of records -----------------
# FIELDS[name](R, rng) returns the positional field values of one instance,
# with nested records taken from R; one seed gives the same values for NEW
# and OLD. Value ranges are small so that equal instances occur.


def mat_fields(rng, rows=None, cols=None):
    p = rng.choice((2, 3))
    rows = rng.randrange(3) if rows is None else rows
    cols = rng.randrange(3) if cols is None else cols
    return p, rows, cols, tuple(tuple(rng.randrange(p) for _ in range(cols))
                                for _ in range(rows))


def module_fields(R, rng):
    F = random_line_module(rng, box=rng.randrange(3), p=2, maxdim=1)
    edges = {k: R.Mat(m.p, m.rows, m.cols, m.data)
             for k, m in F.edges.items()}
    return F.r, F.alpha, F.box, F.p, dict(F.dims), edges


def bar_fields(R, rng):
    start = tuple(rng.randrange(2) for _ in range(rng.choice((1, 2))))
    if rng.random() < 0.3:
        return start, None
    return start, tuple(c + rng.randrange(2) for c in start)


def natmap_fields(R, rng):
    F = R.GridModule(*module_fields(R, rng))
    return F, F, {v: R.Mat(*mat_fields(rng, F.dims[v], F.dims[v]))
                  for v in grid.box_points(F.r, F.box)}


def submodule_fields(R, rng):
    F = R.GridModule(*module_fields(R, rng))
    return F, {v: R.Mat(*mat_fields(rng, F.dims[v],
                                    rng.randrange(F.dims[v] + 1)))
               for v in grid.box_points(F.r, F.box)}


def vectors(rng):
    r = rng.choice((1, 2))
    vecs = []
    for _ in range(rng.choice((1, 2))):
        v = [rng.choice((Q(0), Q(1, 2), Q(1), Q(2))) for _ in range(r)]
        v[rng.randrange(r)] = Q(1)
        vecs.append(v if rng.random() < 0.3 else tuple(v))  # lists too
    return vecs


def domain_fields(R, rng):
    # the box at eps k is [0, k+1) or [0, k+2): nested upward in eps
    return (tuple((Q(k), (((Q(0),), (Q(k + 1 + rng.randrange(2)),)),))
                  for k in range(rng.randrange(1, 3))),)


def dimension_fields(R, rng):
    a = rng.randrange(3)
    return (((Q(0), 0), (Q(1), a), (Q(2), 2 * a + rng.randrange(2))),)


def breakpoints(rng):
    t, value, bps = Q(0), rng.randrange(4), []
    for _ in range(rng.randrange(1, 4)):
        bps.append((t, value, rng.random() < 0.5))
        t += rng.choice((Q(1, 2), Q(1)))
        value = max(0, value - rng.randrange(2))
    return tuple(bps)


def noise_size(rng):
    return rng.choice((Q(0), Q(1, 2), Q(1), INFINITE))


def bar_function_fields(R, rng):
    flags = tuple((Q(k), rng.random() < 0.5) for k in range(rng.randrange(3)))
    return (R.FeatureCountingFunction(breakpoints(rng)), flags,
            rng.choice(("exhaustive", "orbit")))


def denoising_fields(R, rng):
    return (rng.choice((Q(1), Q(2))), R.GridModule(*module_fields(R, rng)),
            rng.choice(("quotient", "subfunctor")), rng.random() < 0.5,
            rng.randrange(3))


FIELDS = {
    "Mat": lambda R, rng: mat_fields(rng),
    "Bar": bar_fields,
    "GridModule": module_fields,
    "NatMap": natmap_fields,
    "Submodule": submodule_fields,
    "ConeNoise": lambda R, rng: (vectors(rng),),
    "VNormNoise": lambda R, rng: (vectors(rng),),
    "DomainNoise": domain_fields,
    "DimensionNoise": dimension_fields,
    "Intersection": lambda R, rng: (tuple(
        R.ConeNoise(vectors(rng)) for _ in range(rng.randrange(1, 3))),),
    "FeatureCountingFunction": lambda R, rng: (breakpoints(rng),),
    "EquivalenceBudget": lambda R, rng: (noise_size(rng), noise_size(rng)),
    "BarFunction": bar_function_fields,
    "Denoising": denoising_fields,
}


def instances(name, R, count=30):
    """count records from seeds 0..count-1, then a third of them again from
    fresh field values, so every kind has equal records that are distinct
    objects."""
    cls = getattr(R, name)
    return [cls(*FIELDS[name](R, random.Random(seed)))
            for seed in list(range(count)) + list(range(count // 3))]


# -- shape ----------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_fields_and_defaults_match(name):
    new, old = getattr(NEW, name), getattr(OLD, name)
    fields = tuple(f.name for f in dataclasses.fields(old))
    assert new.__slots__ == fields
    # one equality, hash and repr serve every record: only GridModule keeps
    # its own equality (`modules_equal`) and hash (its shape)
    own = {"__eq__", "__hash__"} if name == "GridModule" else set()
    assert issubclass(new, Record)
    assert {"__eq__", "__hash__", "__repr__"} & set(vars(new)) == own
    code = new.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == fields
    assert new.__init__.__defaults__ == old.__init__.__defaults__
    one = instances(name, NEW, 1)[0]
    assert not hasattr(one, "__dict__")
    # keyword construction gives the same record as positional
    values = FIELDS[name](NEW, random.Random(0))
    assert new(**dict(zip(fields, values))) == one


# -- behaviour against the oracle -----------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_eq_hash_repr_match_the_dataclasses(name):
    news, olds = instances(name, NEW), instances(name, OLD)
    for a, oa in zip(news, olds):
        assert repr(a) == repr(oa)
        assert a.__eq__(oa) is NotImplemented and a != oa
        assert a.__eq__(object()) is NotImplemented
        if name in UNHASHABLE:
            for x in (a, oa):
                with pytest.raises(TypeError):
                    hash(x)
        else:
            assert hash(a) == hash(oa)
    for a, oa in zip(news, olds):
        for b, ob in zip(news, olds):
            assert (a == b) == (oa == ob)
            assert (a != b) == (oa != ob)
    if name not in UNHASHABLE:
        assert [repr(x) for x in set(news)] == [repr(x) for x in set(olds)]
        assert [repr(x) for x in dict.fromkeys(news)] == \
            [repr(x) for x in dict.fromkeys(olds)]


# -- refusals --------------------------------------------------------------


BOX01 = (((Q(0),), (Q(1),)),)
BOX02 = (((Q(0),), (Q(2),)),)
REFUSED = [
    ("Bar", ((1, 0), (0, 1))),
    ("Bar", ((2,), (1,))),
    ("ConeNoise", ((),)),
    ("ConeNoise", (((1,), (1, 0)),)),
    ("ConeNoise", (((0, 0),),)),
    ("ConeNoise", (((1, -1),),)),
    ("VNormNoise", ((),)),
    ("VNormNoise", (((1,), (1, 0)),)),
    ("VNormNoise", (((0, 0),),)),
    ("VNormNoise", (((1, -1),),)),
    ("DomainNoise", (((Q(1), BOX02), (Q(0), BOX02)),)),
    ("DomainNoise", (((Q(0), BOX01), (Q(0), BOX02)),)),
    ("DomainNoise", (((Q(0), BOX02), (Q(1), BOX01)),)),
    ("DimensionNoise", (((Q(1), 1), (Q(0), 0)),)),
    ("DimensionNoise", (((Q(0), 0), (Q(0), 1)),)),
    ("DimensionNoise", (((Q(0), 0), (Q(1), -1)),)),
    ("DimensionNoise", (((Q(0), 1),),)),
    ("DimensionNoise", (((Q(0), 0), (Q(1), 2), (Q(2), 3)),)),
    ("Intersection", ((),)),
    ("FeatureCountingFunction", ((),)),
    ("FeatureCountingFunction", (((Q(1), 2, False),),)),
    ("FeatureCountingFunction", (((Q(0), 2, False), (Q(0), 1, False)),)),
    ("FeatureCountingFunction", (((Q(1), 2, False), (Q(0), 1, False)),)),
    ("FeatureCountingFunction", (((Q(0), -1, False),),)),
    ("FeatureCountingFunction", (((Q(0), 1, False), (Q(1), 2, True)),)),
]


@pytest.mark.parametrize("name,args", REFUSED,
                         ids=[f"{n}-{k}" for k, (n, _) in enumerate(REFUSED)])
def test_refusals_match_the_dataclasses(name, args):
    with pytest.raises(Exception) as old_err:
        getattr(OLD, name)(*args)
    with pytest.raises(Exception) as new_err:
        getattr(NEW, name)(*args)
    assert type(new_err.value) is type(old_err.value)
    assert str(new_err.value) == str(old_err.value)
    assert not isinstance(new_err.value, (TypeError, AttributeError))
