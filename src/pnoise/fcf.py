"""Feature counting: step functions Q -> N, their interleaving distance,
equivalence budgets of natural maps, and the minimal-rank invariant bar(F).

bar(F)_t asks for the smallest rank among subfunctors whose inclusion
cokernel is quieter than t. Two engines answer it: an exhaustive search
over the closed submodules (exact, capped by the steps it takes), and a
generator-orbit search over spans of shifted minimal generators (upper
bound). Every search, here and in denoising, builds one
`noise.QuotientScorer` per (spec, F) and sizes F/S from S's bases with no
quotient built: a point's first passing level, found from the level so
far (`QuotientScorer.level`), reads S at that point alone when every level
has a quiet corner, and at the ends of its kill paths otherwise.

With quiet corners, bar(F) just past levels[J] is the least rank of a
closed S containing the floor T_J (see the `noise` docstring), and
`_floor_bounds` brackets it from below by the best rank of T_J along a
saturated chain and from above by rank T_J. The exhaustive `bar_search`
takes T_J's rank where the two agree at every level, as they always do at
r=1, and runs the frontier DP only where some level's bounds differ, or
without quiet corners; `minimal_rank_submodule` always runs it, since its
witness is the DP's first least-rank S. The frontier DP scores no
submodule one by one: rank(S) and the largest first level both grow
point by point along the grid, so a dynamic program keeps one least rank
per (pending images, bases read later, level so far), together with the
choices that reach it first in enumeration order
(`_least_rank_by_level`). The pending images at an unfixed point are the
span there of the images of S's fixed predecessors; they and the bases a
later level reads (none with quiet corners) are all that later points
read of S. Its work is its steps, one per state and subspace it may
choose next; at each point the states' steps are charged against
`EXHAUSTIVE_WORK_CAP` before their subspaces are listed. The
choices rebuild the minimal-rank witness (`_submodule_at`). The orbit
search takes ranks from `structure.submodule_rank`. The one-parameter
case has a closed form through the barcode. Budgets of maps size ker phi
as K/0 in the source's scorer and coker phi as target/im phi in the
target's, building no module, for every kind of spec.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce

from . import barcode as bc
from . import field as fp
from . import noise as ns
from . import structure as st
from .errors import (NotOneDimensional, ParseError, SearchSpaceTooLarge,
                     UnsupportedNoise)
from .field import Mat
from .grid import (GridModule, add, clip, evaluate_map, modules_equal,
                   require_same_shape, unit)
from .noise import INFINITE
from .record import Record

# search steps the exhaustive DP may take at one point, one per (state,
# subspace) pair it scores there, a state being the pending images, the
# bases read later and the level so far; each state's steps are charged
# before its subspaces are listed. A point's steps are at most the partial
# submodules fixed up to it, so at most the closed submodules. bar_search
# runs the DP, and meets this cap, only where the floor bounds differ
EXHAUSTIVE_WORK_CAP = 2 ** 15
ORBIT_COMBO_CAP = 2 ** 12


# -- step functions --------------------------------------------------------


class FeatureCountingFunction(Record):
    """Non-increasing step function. Each breakpoint is (t, value,
    drop_after); with drop_after the new value only applies strictly after
    t, which lets e.g. a bar count keep its old value AT the drop point.
    Immutable by convention."""
    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints):
        bps = breakpoints
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
        self.breakpoints = breakpoints

    def value(self, t):
        t = Fraction(t)
        out = self.breakpoints[0][1]
        for s, val, da in self.breakpoints:
            if s < t or (s == t and not da):
                out = val
        return out

    def terminal(self):
        return self.breakpoints[-1][1]

    def segments(self):
        """(start_t, value) pairs; boundary attribution is irrelevant for
        the interleaving distance, which is an infimum."""
        return [(b[0], b[1]) for b in self.breakpoints]


def make_fcf(pairs, drops_after=False):
    """Build from (t, value) pairs; drops_after marks every later
    breakpoint as taking effect only strictly after its t."""
    pairs = sorted((Fraction(t), int(v)) for t, v in pairs)
    bps = []
    for i, (t, v) in enumerate(pairs):
        if bps and bps[-1][1] == v:
            continue
        bps.append((t, v, drops_after and i > 0))
    return FeatureCountingFunction(tuple(bps))


def constant_fcf(value):
    return FeatureCountingFunction(((Fraction(0), int(value), False),))


def _first_time_leq(f: FeatureCountingFunction, y):
    """inf{t : f(t) <= y}; None when f stays above y forever."""
    for t, v in f.segments():
        if v <= y:
            return t
    return None


def fcf_interleaving_distance(f: FeatureCountingFunction,
                              g: FeatureCountingFunction):
    """inf{eps : f_t >= g_{t+eps} and g_t >= f_{t+eps} for all t}."""
    if f.terminal() != g.terminal():
        return INFINITE

    def one_sided(a, b):
        # need b_{t+eps} <= a_t for all t; worst case at segment starts
        worst = Fraction(0)
        for t, v in a.segments():
            first = _first_time_leq(b, v)
            if first is None:
                return INFINITE
            worst = max(worst, first - t)
        return worst

    d = max(one_sided(f, g), one_sided(g, f))
    return d if d == INFINITE else max(Fraction(0), d)


# -- equivalence budgets ---------------------------------------------------


class EquivalenceBudget(Record):
    """Noise sizes of a map's kernel and cokernel. Immutable by
    convention."""
    __slots__ = ("tau", "mu")

    def __init__(self, tau, mu):
        self.tau = tau  # Fraction or INFINITE; noise size of the kernel
        self.mu = mu    # noise size of the cokernel

    def total(self):
        if INFINITE in (self.tau, self.mu):
            return INFINITE
        return self.tau + self.mu


def _kernel_and_image(phi: st.NatMap, memo):
    """ker phi and im phi as submodules; each point's pair of reduced bases
    is a pure function of (v, phi_v), so it is looked up in memo under
    (v, phi_v.data) and computed only on a miss."""
    ker, im = {}, {}
    for v, A in phi.mats.items():
        hit = memo.get((v, A.data))
        if hit is None:
            hit = memo[(v, A.data)] = (fp.column_reduce(fp.kernel_basis(A)),
                                       fp.column_reduce(A))
        ker[v], im[v] = hit
    return st.Submodule(phi.source, ker), st.Submodule(phi.target, im)


def _budget(spec, phi: st.NatMap, scorers=(), memo=None, zero=None) \
        -> EquivalenceBudget:
    """phi's budget from the (source, target) scorers, built here if not
    given: ker phi sized as K/0 in the source, zero its zero submodule if
    given, coker phi as target/im phi. memo holds reduced kernel and image
    bases for maps of one source and target (`_kernel_and_image`)."""
    ker, im = _kernel_and_image(phi, {} if memo is None else memo)
    src, dst = scorers or (ns.QuotientScorer(spec, phi.source),
                           ns.QuotientScorer(spec, phi.target))
    if zero is None:
        zero = st.zero_submodule(phi.source)
    return EquivalenceBudget(ns.quotient_size(src, zero, ker),
                             ns.quotient_size(dst, im))


def equivalence_budget(spec, phi: st.NatMap) -> EquivalenceBudget:
    return _budget(spec, phi)


# -- bar through the barcode (one parameter) -------------------------------


def bar_r1(spec, F: GridModule) -> FeatureCountingFunction:
    if F.r != 1:
        raise NotOneDimensional(f"r={F.r}")
    _check_cone(spec, F)
    # a bar [s, e) is eps-small exactly when the offset e - s, which its
    # start needs to die, costs at most eps: r=1 offset costs are finite
    # (every direction is positive) and grow with the offset. A free bar
    # never dies. Every r=1 cone-shaped spec is closed under sums (each
    # direction's norm-eps representative is (eps,)), so bars add up.
    costs = ns._cost_table(spec, F.alpha, F.box, 1)
    sizes = [INFINITE if b.end is None else costs[(b.end[0] - b.start[0],)]
             for b in bc.decompose(F)]
    finite = sorted({s for s in sizes if s != INFINITE})
    bps = [(Fraction(0), len(sizes), False)]
    for s in finite:
        remaining = sum(1 for x in sizes if x == INFINITE or x > s)
        if remaining != bps[-1][1]:
            bps.append((s, remaining, True))
    return FeatureCountingFunction(tuple(bps))


def bar_zero_check(spec, F: GridModule, t) -> bool:
    return ns.noise_size(spec, F) < Fraction(t)


# -- exhaustive submodule search -------------------------------------------


@lru_cache(maxsize=None)
def _all_subspaces(p, d):
    """Canonical (column-reduced) bases of every subspace of F_p^d, each
    built once from its pivot positions and the entries of its columns
    after their pivots that fall outside the other pivots."""
    out = []
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [(i, j) for i, pv in enumerate(pivots)
                    for j in range(pv + 1, d) if j not in pivots]
            for entries in itertools.product(range(p), repeat=len(free)):
                cols = [[int(j == pv) for j in range(d)] for pv in pivots]
                for (i, j), c in zip(free, entries):
                    cols[i][j] = c
                out.append(Mat.from_cols(cols, d, p))
    return tuple(out)


@lru_cache(maxsize=None)
def _subspace_count(p, d):
    """Number of subspaces of F_p^d: the sum over k of the Gaussian
    binomials [d choose k]_p."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _subspace_key(B: Mat):
    """The position of a canonical basis in `_all_subspaces` order: its
    dimension, its pivot rows, then the entries that order enumerates."""
    pivots = fp.pivot_rows(B)
    return (B.cols, pivots, tuple(B.data[j][i] for i, pv in enumerate(pivots)
                                  for j in range(pv + 1, B.rows)
                                  if j not in pivots))


@lru_cache(maxsize=None)
def _superspaces(U: Mat):
    """Canonical bases of the subspaces of F_p^d that contain colspan(U), U
    canonical, in `_all_subspaces` order: each subspace of the quotient,
    written on the rows off U's pivots, joined to U. A pure function of U,
    so kept for the process under (p, rows, cols, data), as Mat hashes."""
    d, p = U.rows, U.p
    if U.cols == 0:
        return _all_subspaces(p, d)
    pivots = fp.pivot_rows(U)
    free = [i for i in range(d) if i not in pivots]
    out = []
    for Q in _all_subspaces(p, len(free)):
        rows = dict(zip(free, Q.data))
        lift = Mat(p, d, Q.cols, tuple(rows.get(i, (0,) * Q.cols)
                                       for i in range(d)))
        out.append(fp.column_reduce(U.hstack(lift)))
    return tuple(sorted(out, key=_subspace_key))


def _least_rank_by_level(scorer: ns.QuotientScorer):
    """{size: (least rank, choices)} over the closed submodules S of the
    scorer's F with F/S of finite size; choices[i] is S's index in
    `_superspaces` at the i-th point of `order`, the first S in that
    enumeration among those of least rank (`_submodule_at` rebuilds it).

    S is fixed point by point along `order`: at v the choices are the
    subspaces that contain the images of S's predecessors, and the rank
    gains dim S(v) minus their dimension. A point's first passing level
    (`QuotientScorer.level`) is read once every basis it reads is fixed,
    from the largest level k so far, so both the rank and k grow point by
    point. The later points read the fixed part of S only through:
    - the pending images: at each unfixed point w with a fixed
      predecessor, the span of F(u <= w) S(u) over its fixed predecessors
      u, which the choices at w contain;
    - the bases that a level not yet due reads, which happens only for a
      spec without a quiet corner.
    Partial submodules that agree there and have the same k have the same
    futures, so one state (pending images, read bases, k) keeps their
    least (rank, choices). Fixing v hands each successor's pending span
    one more image. The work is the steps, one per state and subspace
    that contains the state's images at the point. Each state's steps are
    counted before its subspaces are listed, and the search is refused
    once the count at one point passes `EXHAUSTIVE_WORK_CAP`
    (`_fix_point`)."""
    F, levels = scorer.F, scorer.levels
    order = st.order(F.points())
    at = {v: i for i, v in enumerate(order)}
    # a point's level is read once every basis it reads is fixed; a basis
    # is held while a level not yet due reads it, which never happens with
    # quiet corners, where a point's level reads that point alone
    reads = {v: scorer.reads(v) for v in scorer.points}
    when = {v: max(at[u] for u in us) for v, us in reads.items()}
    until = dict.fromkeys(order, -1)
    for v, us in reads.items():
        for u in us:
            until[u] = max(until[u], when[v])
    # a state holds its pending spans in the order of `waiting` and its
    # read bases in the order of `held`; each step names the places it
    # reads in the layer before it
    layer = {None: (0, (), 0, (), ())}
    waiting, held = [], []
    for i, v in enumerate(order):
        succ = [add(v, unit(a, F.r)) if v[a] < F.box else None
                for a in range(F.r)]
        rest = [w for w in waiting if w != v and w not in succ]
        slot = {w: j for j, w in enumerate(waiting)}.get
        kept = [u for u in held if until[u] > i]
        step = (slot(v), [slot(w) for w in rest],
                [(a, slot(w), Mat.zeros(F.dims[w], 0, F.p))
                 for a, w in enumerate(succ) if w is not None],
                held, [held.index(u) for u in kept], until[v] > i,
                [u for u in scorer.points if when[u] == i])
        layer = _fix_point(scorer, v, layer, step)
        waiting = rest + [w for w in succ if w is not None]
        held = kept + [v] if until[v] > i else kept
    return {levels[k]: (rank, choices)
            for rank, choices, k, _, _ in layer.values()}


def _fix_point(scorer: ns.QuotientScorer, v, layer, step):
    """The layer of `_least_rank_by_level` after v is fixed. step holds the
    place of v's pending span, those of the other pending spans kept, and
    for each successor of v its axis, the place of its pending span and
    an empty one; then the points whose bases the states hold, the places
    of those kept, whether v's basis is held too, and the points whose
    levels are due at v. A successor's span prev + F(v <= w) S(v) depends
    on the axis, S(v) and prev alone, so it is built once per point under
    (axis, S(v).data, prev.data): without the axis, w's two predecessors
    along different axes would share an entry."""
    F, top = scorer.F, len(scorer.levels)
    at_v, carried, succ, reads, kept, stays, due = step
    empty = Mat.zeros(F.dims[v], 0, F.p)
    edges = [(a, F.edge(v, a), j, zero) for a, j, zero in succ]
    nxt, steps, memo = {}, 0, {}
    for rank, choices, k, pending, held in layer.values():
        pushed = empty if at_v is None else pending[at_v]
        # charged before the superspaces are listed, so that no list past
        # the cap is ever built
        steps += _subspace_count(F.p, F.dims[v] - pushed.cols)
        if steps > EXHAUSTIVE_WORK_CAP:
            raise SearchSpaceTooLarge(
                f"at least {steps} search steps at {v}, over the cap "
                f"{EXHAUSTIVE_WORK_CAP} per point")
        rank -= pushed.cols
        carry = tuple(pending[j] for j in carried)
        base = tuple(held[j] for j in kept)
        head = tuple(b.data for b in carry + base)
        prevs = [(a, A, zero if j is None else pending[j])
                 for a, A, j, zero in edges]
        bases = dict(zip(reads, held))
        for c, s in enumerate(_superspaces(pushed)):
            bases[v], j = s, k
            for u in due:
                j = scorer.level(u, bases, j)
                if j == top:
                    break
            if j == top:
                continue    # F/S is of infinite size, whatever follows
            spans = []
            for a, A, prev in prevs:
                key = (a, s.data, prev.data)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = fp.span_basis(itertools.chain(
                        zip(*prev.data), map(A.apply, zip(*s.data))),
                        A.rows, F.p)
                spans.append(hit)
            spans = tuple(spans)
            key = (head, tuple(b.data for b in spans),
                   s.data if stays else None, j)
            r, ch = rank + s.cols, choices + (c,)
            hit = nxt.get(key)
            if hit is None or r < hit[0] or (r == hit[0] and ch < hit[1]):
                nxt[key] = (r, ch, j, carry + spans,
                            base + (s,) if stays else base)
    return nxt


def _floor_bounds(scorer: ns.QuotientScorer):
    """[(LB_J, UB_J)] at each level J of a scorer with quiet corners: bounds
    on the least rank of a closed S that contains the floor T_J, which is
    bar(F) just past levels[J] (see the `noise` docstring for T_J).
    - UB_J = rank T_J: T_J is itself such an S.
    - LB_J = the largest rank of T_J restricted to a saturated chain C from
      0 to (box, ..., box). Restricting to C does not raise rank, as each
      generator of S counts at the first point of C above it; over the PID
      F_p[t] a graded submodule of an n-generated module is n-generated.
      So rank(T_J|C) <= rank(S|C) <= rank S. rank(T_J|C) sums, over the
      points w of C, dim T_J(w) - rank F(v*_J(u) <= w) for u the point
      before w, so the best chain is one longest-path pass in `order`. At
      r=1 the grid is the one chain, and LB_J = UB_J.
    One pass over the levels moves each point's source v*_J(w) at the
    levels `scorer.sources` names; the rank of the span at w of the maps
    out of a tuple of sources is memoised on them."""
    F = scorer.F
    order = st.order(F.points())
    preds = {w: [u for u, _ in st.predecessors(w)] for w in order}
    moves = [[] for _ in scorer.levels]
    for w in scorer.points:
        for k, v in scorer.sources(w):
            moves[k].append((w, v))
    src = {w: w if F.dims[w] else None for w in order}   # None: T_J(w) = 0
    ranks = {}

    def rank(us, w):
        hit = ranks.get((us, w))
        if hit is None:
            hit = ranks[(us, w)] = fp.rank(
                reduce(Mat.hstack, [scorer.map(u, w) for u in us]))
        return hit

    out = []
    for moved in moves:
        src.update(moved)
        ub, chain = 0, {}
        for w in order:
            ps = preds[w]
            if src[w] is None:
                chain[w] = max((chain[u] for u in ps), default=0)
                continue
            dim = rank((src[w],), w)
            ins = tuple(src[u] for u in ps if src[u] is not None)
            ub += dim - (rank(ins, w) if ins else 0)
            chain[w] = dim + max(
                (chain[u] - (0 if src[u] is None else rank((src[u],), w))
                 for u in ps), default=0)
        out.append((chain[order[-1]], ub))
    return out


def _submodule_at(F: GridModule, choices):
    """The closed submodule whose basis at the i-th point of `order` is the
    choices[i]-th superspace of the images of its predecessors."""
    basis = {}
    for v, c in zip(st.order(F.points()), choices):
        basis[v] = _superspaces(fp.column_reduce(
            st.predecessor_images(F, v, basis)))[c]
    return st.Submodule(F, basis)


# -- F_p-combinations -------------------------------------------------------


def _combinations(vecs, length, p):
    """The F_p-combinations sum c_i vecs[i] of flat vectors of one length,
    in `itertools.product` order of the coefficients c, the zero
    combination first; past ORBIT_COMBO_CAP combinations only the vectors
    themselves. The orbit pool, the closeness bound and the interleaving
    walk all try candidates this way."""
    if p ** len(vecs) > ORBIT_COMBO_CAP:
        yield from vecs
        return
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        acc = (0,) * length
        for c, vec in zip(coeffs, vecs):
            if c:
                acc = tuple((a + c * b) % p for a, b in zip(acc, vec))
        yield acc


# -- generator orbit search ------------------------------------------------


def _orbit_pool(spec, F: GridModule, t):
    """Candidate elements: F_p-combinations (capped) of forward shifts of
    the minimal generators by offsets quieter than t."""
    costs = ns._cost_table(spec, F.alpha, F.box, F.r)
    offsets = [m for m, c in costs.items() if c is not None and c < t]
    gens = st.minimal_generators(F)
    at_point = {}
    for v, x in gens:
        for m in offsets:
            w = clip(add(v, m), F.box)
            img = evaluate_map(F, v, w).apply(x)
            if not any(img):
                continue
            at_point.setdefault(w, set()).add(img)
    pool = []
    for w, vecs in at_point.items():
        combos = set(_combinations(sorted(vecs), F.dims[w], F.p))
        pool.extend((w, vec) for vec in sorted(combos) if any(vec))
    return pool


def _orbit_value(spec, F: GridModule, t):
    """Upper bound on bar(F)_t by growing spans of pool elements."""
    full_rank = st.rank(F)
    scorer = ns.QuotientScorer(spec, F)
    if ns.quotient_size(scorer, st.zero_submodule(F)) < t:
        return 0, None
    pool = _orbit_pool(spec, F, t)
    budget = ORBIT_COMBO_CAP
    for k in range(1, full_rank):
        tried = 0
        for subset in itertools.combinations(range(len(pool)), k):
            tried += 1
            if tried > budget:
                break
            S = st.span_submodule(F, [pool[i] for i in subset])
            if ns.quotient_size(scorer, S) < t:
                rank = st.submodule_rank(S)
                if rank <= k:
                    return rank, S
    return full_rank, st.full_submodule(F)


# -- the public search -----------------------------------------------------


class BarFunction(Record):
    """A bar search's answer: the step function, one exactness flag per
    requested sample point, and the engine. Immutable by convention."""
    __slots__ = ("fcf", "flags", "engine")

    def __init__(self, fcf, flags, engine):
        self.fcf = fcf
        self.flags = flags  # ((t, exact_bool), ...) at the sample points
        self.engine = engine

    def value(self, t):
        return self.fcf.value(t)


def _check_cone(spec, F: GridModule):
    """Refuse a spec the searches are not proved for, or one whose
    directions do not have F's r (the search may answer before any offset
    cost is asked for)."""
    if not isinstance(spec, (ns.ConeNoise, ns.VNormNoise)):
        raise UnsupportedNoise(
            "bar search is proved for cone-shaped noise only")
    if spec.r != F.r:
        raise UnsupportedNoise(
            f"noise directions have r={spec.r}, the module has r={F.r}")


def bar_search(spec, F: GridModule, t_values, engine="exhaustive") \
        -> BarFunction:
    """bar(F) as a step function, flagged at each of t_values. The
    exhaustive engine is exact at every t: where every level has a quiet
    corner and the floor bounds (`_floor_bounds`) agree at each level past
    0, bar(F) just past levels[J] is rank T_J; otherwise it is the frontier
    DP's least rank over the sizes up to levels[J], refused once the DP's
    steps at a point pass `EXHAUSTIVE_WORK_CAP`. The orbit engine gives an
    upper bound at each t, flagged exact only where it is 0."""
    _check_cone(spec, F)
    t_values = sorted({Fraction(t) for t in t_values})
    if engine == "exhaustive":
        # the smallest rank at each finite size: from the floor bounds when
        # they agree at every level past 0 (T_0 = F, whose least S is F),
        # else from the DP. Only S = F has size levels[0] = 0, so its rank
        # is F's, and a running minimum over the sorted sizes is bar(F)
        scorer = ns.QuotientScorer(spec, F)
        bounds = () if scorer.corners is None else _floor_bounds(scorer)
        if bounds and all(lb == ub for lb, ub in bounds[1:]):
            least = {size: ub for size, (_, ub) in zip(scorer.levels, bounds)}
        else:
            least = {size: rank for size, (rank, _)
                     in _least_rank_by_level(scorer).items()}
        full_rank = least[scorer.levels[0]]
        bps = [(Fraction(0), full_rank, False)]
        best = full_rank
        for c in sorted(least):
            best = min(best, least[c])
            if best != bps[-1][1]:
                bps.append((c, best, True))
        fcf = FeatureCountingFunction(tuple(bps))
        flags = tuple((t, True) for t in t_values)
        return BarFunction(fcf, flags, "exhaustive")
    if engine == "orbit":
        samples, flags = [(Fraction(0), st.rank(F))], []
        for t in t_values:
            if t <= 0:
                flags.append((t, True))
                continue
            val, _ = _orbit_value(spec, F, t)
            samples.append((t, val))
            flags.append((t, val == 0))  # only bar=0 is certain here
        vals = []
        floor = 0
        for t, v in sorted(samples, reverse=True):
            floor = max(floor, v)
            vals.append((t, floor))
        # a value found at sample t already holds at t (budget < t is strict)
        fcf = make_fcf(vals, drops_after=False)
        return BarFunction(fcf, tuple(flags), "orbit")
    raise ValueError(f"unknown engine {engine!r}")


def minimal_rank_submodule(spec, F: GridModule, t, engine="exhaustive"):
    """A submodule of minimal rank whose inclusion is quieter than t,
    together with the rank and an exactness flag."""
    _check_cone(spec, F)
    t = Fraction(t)
    if engine == "exhaustive":
        hits = [hit for size, hit in _least_rank_by_level(
            ns.QuotientScorer(spec, F)).items() if size < t]
        if not hits:
            return st.rank(F), st.full_submodule(F), True
        rk, choices = min(hits)
        return rk, _submodule_at(F, choices), True
    if engine == "orbit":
        val, S = _orbit_value(spec, F, t)
        if S is None:
            S = st.zero_submodule(F)
        return val, S, val == 0     # only 0 is certain, as in bar_search
    raise ValueError(f"unknown engine {engine!r}")


# -- natural transformation spaces and distance bounds ---------------------


def natural_map_space(F: GridModule, G: GridModule):
    """Basis of the F_p-vector space of natural transformations F -> G,
    empty when that space is zero. It is the kernel of the rows
    phi_w @ F(v<w) - G(v<w) @ phi_v == 0 over every lattice edge v<w,
    whose unknowns are the entries of the maps phi_v: F(v) -> G(v), each
    stored row-major from offs[v]."""
    require_same_shape(F, G)
    offs, total = {}, 0
    for v in F.points():
        offs[v] = total
        total += G.dims[v] * F.dims[v]
    if total == 0:
        return []
    rows = []
    for (v, i), a in F.edges.items():
        w = add(v, unit(i, F.r))
        b = G.edge(v, i)
        for rr in range(G.dims[w]):
            for cc in range(F.dims[v]):
                row = [0] * total
                for k in range(F.dims[w]):
                    row[offs[w] + rr * F.dims[w] + k] += a.data[k][cc]
                for k in range(G.dims[v]):
                    row[offs[v] + k * F.dims[v] + cc] -= b.data[rr][k]
                rows.append(row)
    ker = fp.kernel_basis(Mat.from_rows(rows, F.p) if rows
                          else Mat.zeros(0, total, F.p))
    return [_nat_map(F, G, vec) for vec in ker.columns()]


def _nat_map(F: GridModule, G: GridModule, vec):
    """The natural map F -> G whose matrices phi_v: F(v) -> G(v) are stored
    in vec one after another in point order, each row-major."""
    mats, at = {}, 0
    for v in F.points():
        n = F.dims[v]
        mats[v] = Mat(F.p, G.dims[v], n, tuple(
            tuple(vec[at + rr * n:at + (rr + 1) * n])
            for rr in range(G.dims[v])))
        at += G.dims[v] * n
    return st.NatMap(F, G, mats)


def closeness_upper_bound(spec, F: GridModule, G: GridModule):
    """Certified upper bound on the closeness pseudometric: the best
    equivalence budget among the natural maps F->G and G->F that
    `_combinations` tries of a basis of each Hom space. Returns (bound,
    witness NatMap or None)."""
    require_same_shape(F, G)
    if modules_equal(F, G):
        return Fraction(0), st.identity_map(F)
    best, wit = INFINITE, None
    # one scorer per module, read by every map's budget
    fg = (ns.QuotientScorer(spec, F), ns.QuotientScorer(spec, G))
    for src, dst, scorers in ((F, G, fg), (G, F, fg[::-1])):
        pts = list(src.points())
        basis = [_flat([phi.mats[v] for v in pts])
                 for phi in natural_map_space(src, dst)]
        length = sum(dst.dims[v] * src.dims[v] for v in pts)
        memo = {}   # few distinct point matrices recur across the maps
        zero = st.zero_submodule(src)
        for vec in _combinations(basis, length, src.p):
            phi = _nat_map(src, dst, vec)
            b = _budget(spec, phi, scorers, memo, zero).total()
            if b < best:
                best, wit = b, phi
    return best, wit


# -- interleavings ---------------------------------------------------------


def _lattice_shift(tau, r):
    """tau as a tuple of r nonnegative ints; ValueError for anything else,
    so that no entry is dropped, truncated or read as a negative shift."""
    tau = tuple(tau)
    if len(tau) != r or not all(
            isinstance(c, (int, Fraction)) and c.denominator == 1 and c >= 0
            for c in tau):
        raise ValueError(
            f"tau must be {r} nonnegative integer lattice steps, got {tau}")
    return tuple(int(c) for c in tau)


def _flat(mats):
    return tuple(x for m in mats for row in m.data for x in row)


def is_interleaved(F: GridModule, G: GridModule, tau) -> bool:
    """Existence of tau-shifted maps phi: F -> G(-+tau) and psi: G ->
    F(-+tau) whose composites are the internal 2*tau shifts:
    psi_{v+tau} phi_v == F(v <= v+2tau) and phi_{v+tau} psi_v ==
    G(v <= v+2tau). tau is in lattice steps of the common grid.

    F is tau-interleaved with itself through its own structure maps, so
    equal presentations answer True at once. For r=1 the answer is
    whether the two barcodes have a tau-matching (`_barcodes_match`); by
    the isometry theorem (Lesnick, arXiv 1106.5305; Bauer-Lesnick, arXiv
    1311.3681) that is exact, since a grid module clipped at its box is
    the N-indexed module that is constant from the box on. Both r=1
    answers are certified. `barcode.decompose` remembers the last modules
    it swept, so a scan of one pair over several tau decomposes each
    module once. For r >= 2 `_interleaved_by_hom_bases` decides: its True
    is certified, and so is a False from its first span test; a False
    after its walk past `ORBIT_COMBO_CAP` is not."""
    require_same_shape(F, G)
    tau = _lattice_shift(tau, F.r)
    if modules_equal(F, G):
        return True
    if F.r == 1:
        return _barcodes_match(bc.decompose(F), bc.decompose(G), tau[0])
    return _interleaved_by_hom_bases(F, G, tau)


def _barcodes_match(fs, gs, tau):
    """Whether the barcodes fs and gs of two r=1 modules on one grid have a
    tau-matching: a perfect matching, found by augmenting paths, in the
    bipartite graph whose left side holds fs plus one slot per bar of gs
    and whose right side holds gs plus one slot per bar of fs. Two bars
    are joined when their starts and their ends are each within tau, a
    bar alive at the box face (end None) joining only another such bar; a
    finite bar at most 2*tau long is joined to its own slot; any two slots
    are joined."""
    def close(a, b):
        if (a.end is None) != (b.end is None):
            return False
        return abs(a.start[0] - b.start[0]) <= tau and (
            a.end is None or abs(a.end[0] - b.end[0]) <= tau)

    def short(a):
        return a.end is not None and a.end[0] - a.start[0] <= 2 * tau

    nf, ng = len(fs), len(gs)
    # right nodes: gs as 0..ng-1, then the slot of fs[i] as ng+i
    adj = [[j for j, g in enumerate(gs) if close(f, g)]
           + ([ng + i] if short(f) else []) for i, f in enumerate(fs)]
    adj += [([j] if short(g) else []) + list(range(ng, ng + nf))
            for j, g in enumerate(gs)]
    mate_l, mate_r = {}, {}  # matched left -> right, right -> left

    def free_end(root, came):
        """The first unmatched right node that an alternating path from
        root reaches, breadth first; came[w] is the left node before w."""
        layer = [root]
        while layer:
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w not in came:
                        came[w] = u
                        if w not in mate_r:
                            return w
                        nxt.append(mate_r[w])
            layer = nxt
        return None

    for root in range(nf + ng):
        came = {}
        end = free_end(root, came)
        if end is None:
            return False    # root stays unmatched in every maximum matching
        while end is not None:  # flip the path, root to end, into mate_*
            u = came[end]
            prev = mate_l.get(u)
            mate_l[u], mate_r[end] = end, u
            end = prev
    return True


def _interleaved_by_hom_bases(F: GridModule, G: GridModule, tau) -> bool:
    """`is_interleaved` for any r, tau a tuple of lattice steps, from bases
    Phi_1..Phi_n and Psi_1..Psi_m of the two Hom spaces. Both composites
    are bilinear: phi = sum a_i Phi_i and psi = sum b_j Psi_j interleave
    exactly when sum a_i b_j C_ij == T, C_ij the flattened composites of
    Phi_i and Psi_j at every point and T the flattened 2*tau shifts. If T
    is outside the span of all C_ij, no pair exists. Otherwise the
    candidates a that `_combinations` yields are tried in turn, each a
    span test of T against the columns sum_i a_i C_ij; past
    `ORBIT_COMBO_CAP` combinations only the unit vectors are tried.

    True is always certified, and so is a False from the first span
    test. A False after a walk past the cap is not certified."""
    two = tuple(2 * c for c in tau)
    phis = natural_map_space(F, _shift_module(G, tau))
    psis = natural_map_space(G, _shift_module(F, tau))
    target = _flat([evaluate_map(X, v, add(v, two))
                    for X in (F, G) for v in X.points()])
    if not phis or not psis:
        return not any(target)

    after = {v: clip(add(v, tau), F.box) for v in F.points()}

    def composites(phi, psi):
        return ([psi.mats[after[v]] @ phi.mats[v] for v in after]
                + [phi.mats[after[v]] @ psi.mats[v] for v in after])

    # row i holds C_i1, ..., C_im one after another
    rows = [_flat([m for psi in psis for m in composites(phi, psi)])
            for phi in phis]
    length, p = len(target), F.p
    rhs = Mat.from_cols([target], length, p)

    def columns(vec):
        return [vec[j * length:(j + 1) * length] for j in range(len(psis))]

    if not fp.solvable(Mat.from_cols([c for row in rows for c in columns(row)],
                                     length, p), rhs):
        return False
    return any(fp.solvable(Mat.from_cols(columns(vec), length, p), rhs)
               for vec in _combinations(rows, length * len(psis), p))


def _shift_module(G: GridModule, tau):
    """v -> G(v + tau) on the same box (clipped)."""
    dims = {v: G.dims[clip(add(v, tau), G.box)] for v in G.points()}
    edges = {}
    for v in G.points():
        for i in range(G.r):
            if v[i] == G.box:
                continue
            w = add(v, unit(i, G.r))
            edges[(v, i)] = evaluate_map(G, add(v, tau), add(w, tau))
    return GridModule(G.r, G.alpha, G.box, G.p, dims, edges)


# -- CSV form --------------------------------------------------------------


def fcf_to_csv(f: FeatureCountingFunction) -> str:
    lines = ["t,value"]
    for t, v, _ in f.breakpoints:
        lines.append(f"{t},{v}")
    return "\n".join(lines) + "\n"


def fcf_from_csv(text: str) -> FeatureCountingFunction:
    """The counting function of a `t,value` CSV as `fcf_to_csv` writes it,
    its rows in any order; a ParseError names the line at fault."""
    rows, k = [], 1     # (t, value, line number)
    for k, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.lower().startswith("t,"):
            continue
        try:
            t, v = line.split(",")
            rows.append((Fraction(t), int(v), k))
        except (ValueError, ZeroDivisionError):
            raise ParseError(k, f"expected t,value got {line!r}") from None
    rows.sort()
    if not rows or rows[0][0] != 0:
        raise ParseError(rows[0][2] if rows else k, "need a row at t=0")
    for (s, a, _), (t, b, k) in zip(rows, rows[1:]):
        if b > a:
            raise ParseError(k, f"a second value at t={t}" if t == s else
                             f"value {b} at t={t} is above {a} before it")
    if rows[-1][1] < 0:
        raise ParseError(rows[-1][2], "values must be >= 0")
    return make_fcf([(t, v) for t, v, _ in rows], drops_after=True)
