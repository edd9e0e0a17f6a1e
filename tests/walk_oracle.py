"""The closed-submodule walk, the oracle of the exhaustive searches: every
closed submodule of a module, listed one by one in the order whose first
least-rank member `fcf.minimal_rank_submodule` returns."""

from pnoise import fcf as fc
from pnoise import field as fp
from pnoise import noise as ns
from pnoise import structure as st
from pnoise.errors import SearchSpaceTooLarge


def pushed_images(F, v, preds, assign, memo):
    """The canonical basis of the images in F(v) of S at v's predecessors
    preds, their bases in assign; memo maps (v, those bases) to it, as it
    depends on nothing else."""
    key = (v, tuple(assign[u].data for u, _ in preds))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = fp.column_reduce(st.predecessor_images(F, v, assign))
    return hit


def _images_at(F, v, layer, pushed_memo):
    """For each partial choice of S before v, given by its bases at v's
    predecessors: the image of S's predecessors in F(v) (`pushed_images`).
    Every subspace of F(v) containing it completes to at least one closed
    submodule, so their number, summed over the layer, is capped at
    EXHAUSTIVE_WORK_CAP before any is chosen."""
    preds = st.predecessors(v)
    out, total = [], 0
    for assign in layer:
        pushed = pushed_images(F, v, preds, assign, pushed_memo)
        total += fc._subspace_count(F.p, F.dims[v] - pushed.cols)
        if total > fc.EXHAUSTIVE_WORK_CAP:
            raise SearchSpaceTooLarge(
                f"at least {total} closed submodules, over the cap "
                f"{fc.EXHAUSTIVE_WORK_CAP}")
        out.append(pushed)
    return out


def enumerate_submodules(F):
    """Yield (rank, basis) for every closed submodule, basis a dict point ->
    canonical basis, once they are known to number at most
    EXHAUSTIVE_WORK_CAP. S is fixed point by point along `order`, one layer
    of partial choices per point; at v the choices are the subspaces that
    contain the images of S's predecessors, and the rank gains dim S(v)
    minus their dimension. The choices at the last point are counted
    before the first submodule is yielded. Each image is reduced once per
    walk."""
    *head, last = st.order(F.points())
    pushed_memo = {}

    def extend(v, layer):
        images = _images_at(F, v, [assign for _, assign in layer],
                            pushed_memo)
        return [(rank + s.cols - pushed.cols, {**assign, v: s})
                for (rank, assign), pushed in zip(layer, images)
                for s in fc._superspaces(pushed)]

    layer = [(0, {})]
    for v in head:
        layer = extend(v, layer)
    yield from extend(last, layer)


def scored_submodules(scorer):
    """Yield (rank, sigma, S) for every closed submodule S of the scorer's
    F, sigma the noise size of F/S."""
    for rank, basis in enumerate_submodules(scorer.F):
        S = st.Submodule(scorer.F, basis)
        yield rank, ns.quotient_size(scorer, S), S
