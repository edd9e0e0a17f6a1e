"""The frontier DP as first written, the oracle of
`fcf._least_rank_by_level`: one state per (bases of S on the frontier,
level so far), the frontier being the fixed points that a later point
succeeds or reads, and the images at each point rebuilt from the bases of
its predecessors."""

from pnoise import fcf as fc
from pnoise import noise as ns
from pnoise import structure as st
from pnoise.errors import SearchSpaceTooLarge
from pnoise.grid import add, unit
from walk_oracle import pushed_images


def least_rank_by_frontier_bases(scorer: ns.QuotientScorer):
    """{size: (least rank, choices)} over the closed submodules S of the
    scorer's F with F/S of finite size; choices[i] is S's index in
    `fc._superspaces` at the i-th point of `order`, the first S in that
    enumeration among those of least rank (`fc._submodule_at` rebuilds it).

    S is fixed point by point along `order`: at v the choices are the
    subspaces that contain the images of S's predecessors, and the rank
    gains dim S(v) minus their dimension. A point's first passing level
    (`QuotientScorer.level`) is read once every basis it reads is fixed,
    from the largest level k so far, so both the rank and k grow point by
    point. The choices at later points read S only on the frontier: the
    points fixed so far that a later point succeeds or reads. Partial
    submodules that agree there and have the same k have the same
    futures, so one state (frontier bases, k) keeps their least (rank,
    choices). The work is the steps, one per state and subspace that
    contains the state's images. Each state's steps are counted before its
    subspaces are listed, and the search is refused once the count at one
    point passes `fc.EXHAUSTIVE_WORK_CAP`."""
    F, levels = scorer.F, scorer.levels
    order = st.order(F.points())
    at = {v: i for i, v in enumerate(order)}
    # a point's level is read once every basis it reads is fixed; each
    # point is kept up to its last successor and its last reader
    reads = {v: scorer.reads(v) for v in scorer.points}
    when = {v: max(at[u] for u in us) for v, us in reads.items()}
    until = {u: max([at[u]] + [at[add(u, unit(i, F.r))]
                               for i in range(F.r) if u[i] < F.box])
             for u in order}
    for v, us in reads.items():
        for u in us:
            until[u] = max(until[u], when[v])
    plan, frontier = [], []
    for i, v in enumerate(order):
        frontier = [u for u in frontier + [v] if until[u] > i]
        plan.append((v, st.predecessors(v), [u for u in frontier if u != v],
                     until[v] > i, [u for u in scorer.points if when[u] == i]))
    pushed_memo = {}

    # (frontier bases, k) -> (least rank, its first choices, bases)
    layer = {((), 0): (0, (), {})}
    for v, preds, kept, stays, due in plan:
        nxt, steps = {}, 0
        for (_, k), (rank, choices, assign) in layer.items():
            pushed = pushed_images(F, v, preds, assign, pushed_memo)
            # charged before the superspaces are listed, so that no list
            # past the cap is ever built
            steps += fc._subspace_count(F.p, F.dims[v] - pushed.cols)
            if steps > fc.EXHAUSTIVE_WORK_CAP:
                raise SearchSpaceTooLarge(
                    f"at least {steps} search steps at {v}, over the cap "
                    f"{fc.EXHAUSTIVE_WORK_CAP} per point")
            base = {u: assign[u] for u in kept}
            held = tuple(b.data for b in base.values())
            rank -= pushed.cols
            fixed = dict(assign)
            for c, s in enumerate(fc._superspaces(pushed)):
                fixed[v], j = s, k
                for u in due:
                    j = scorer.level(u, fixed, j)
                    if j == len(levels):
                        break   # F/S is of infinite size, whatever follows
                else:
                    key = (held + (s.data,) if stays else held, j)
                    hit = nxt.get(key)
                    if hit is None or (rank + s.cols, choices + (c,)) < \
                            hit[:2]:
                        nxt[key] = (rank + s.cols, choices + (c,),
                                    {**base, v: s} if stays else base)
        layer = nxt
    return {levels[k]: (rank, choices)
            for (_, k), (rank, choices, _) in layer.items()}
