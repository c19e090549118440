"""SVD-based construction of orthogonal directional cluster bases from an
arbitrary matrix, plus a cross-approximation baseline.

The input matrix is only touched through an accessor ``access(rows, cols)``
returning the corresponding sub-block, so dense arrays, lazily evaluated
kernels and expanded nested representations all compress the same way.
``access`` is called on the calling thread only.

Every admissible block is weighted by its exact spectral norm, read once
into a stack per block shape.  A basis serves the (cluster, direction)
pairs of ``used_directions``: pair (t, c) captures the farfield
columns of every admissible block on t or an ancestor of t whose direction
chains down to c, each column divided by its block's weight.  A pass keeps
this bookkeeping in index arrays, built once per side and level by level
from the parent level's with one stable sort: per level, its pairs in
(cluster, direction) order, each pair's blocks, the pairs' sorted farfield
columns one pair after the other (the order of the keys pair * n +
column), and the position of each block's columns among them.

Clusters are visited sons first in descending id order, each with all its
pairs, whose columns are one run.  A leaf's are disjoint (the leaf
blocks partition the matrix): one accessor call reads them, scaled by one
vector of 1/weight.  A non-leaf pair stacks its sons' reduced rows at its
columns, found by one ``searchsorted`` per cluster in its sons' keys.
Each strip g is reduced to its triangular factor L (g = L Q^H, from the QR
factorization of g^H), which has g's singular values and left singular
vectors and no more columns than g has rows.  A cluster's factors go
through one ``svd`` call per factor shape and one ``truncation_rank`` call.
A pass runs in one part on the calling thread: its per-pair QRs and the
small-array work around them hold the interpreter lock (``linalg``), so a
second thread would gain little, and its heap would keep its part's
high-water mark resident.  The block weights' singular values are cut in
two by the slots of each stack (``_norms``).  A pair's reduced rows are dropped once its
parent has read them.
Truncation tolerances decay by zeta per level below the shallowest
admissible block above each pair, calibrated so no block ever exceeds the
requested accuracy relative to its norm.  There is no rank cap.

The column basis is built first.  The row pass forms each block's coupling
while its pair's reduced rows (the row basis applied to the weighted strip)
are held: the block's columns of them, times its weight, times the expanded
column basis.  An admissible block is read three times (weight, row strip,
column strip) and a nearfield block once.  Results are bitwise reproducible.

The nested bases against the best approximation: let g be the weighted
strip of a pair (t, c), Q its expanded basis of rank k, and tau(t, c) the
Frobenius norm of g's singular values past the k-th.  ||g - Q Q^H g||_F^2
is at most the sum of tau(t', c')^2 over (t, c) and the pairs below it
along the son maps.  (1) The error splits exactly into the sons' errors on
their rows of g and the truncation error of the reduced matrix P g, where P
(the sons' bases, conjugate transposed) has orthonormal rows.  (2) A son's
rows of g are columns of its own strip, with the same weights, so by
induction they are within the sum below the son.  (3) P g has singular
values at most g's, so its truncation error at rank k is at most tau(t, c).
A leaf meets the bound with equality.  Compare the H^2 case in S. Borm,
Efficient Numerical Methods for Non-local Operators (EMS, 2010).  Only the
source paper's abstract is at hand (``PAPER.md``), so its own constant is
not checked against this one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .blocktree import BlockTree, _ranges
from .clustering import ClusterTree
from .dh2core import (
    DirectionalClusterBasis,
    StackBuffer,
    _phase,
    _stacked_matrix,
    _stacks,
    apply_groups,
    empty_stacks,
    expand_factor,
    join_buffers,
    run_offsets,
)
from .directions import DirectionHierarchy
# power_iteration_norm is not called here; it is imported for callers that
# look it up in this module, such as the benchmark's trace
from .linalg import cut_in_two, power_iteration_norm, svd, truncation_rank  # noqa: F401

__all__ = [
    "CompressionConfig",
    "CompressionState",
    "used_directions",
    "farfield_sets",
    "compute_block_weights",
    "build_basis",
    "compress",
    "subtree_tolerance_sq",
    "aca_approximate",
    "AcaMatrix",
    "aca_compress",
]

_EPS = np.finfo(float).eps


@dataclass
class CompressionConfig:
    """The block-relative accuracy ``eps`` and the per-level decay ``zeta`` of
    the truncation tolerances; there is no rank cap."""

    eps: float
    zeta: float = 0.3

    def validate(self, max_sons: int) -> None:
        if not (np.isfinite(self.eps) and np.isfinite(self.zeta)):
            raise ValueError(f"eps={self.eps} and zeta={self.zeta} must be finite")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.zeta <= 0.0 or self.zeta * self.zeta * max(max_sons, 1) >= 1.0:
            raise ValueError(f"zeta={self.zeta} too large for trees with up to {max_sons} sons")


@dataclass
class CompressionState:
    """Per-(cluster, direction) truncation errors of one basis construction
    pass, and the couplings of a row pass."""

    realized_eps: dict = field(default_factory=dict)  # first discarded singular value
    target_eps: dict = field(default_factory=dict)  # truncation tolerance actually used
    coupling: dict = field(default_factory=dict)  # block id -> coupling, from a row pass given the column basis


@dataclass
class _Level:
    """One side's farfield bookkeeping for the pairs of one cluster level.
    Pair p's blocks, its items, are item_ptr[p]:item_ptr[p + 1] in the order
    of ``farfield_sets``.  Pair p's sorted farfield columns are the run
    columns[cols[item_ptr[p]]:cols[item_ptr[p + 1]]], and item j's columns
    are at the positions pos[cols[j]:cols[j + 1]] of ``columns``."""

    cid: np.ndarray  # each pair's cluster
    c: np.ndarray  # and direction
    below: np.ndarray  # levels between the pair and the shallowest block over it
    item_ptr: np.ndarray
    bid: np.ndarray  # each item's block
    src: np.ndarray  # its cluster on the other side
    via: np.ndarray  # the parent direction it came through; -1 for the pair's own blocks, which come first
    cols: np.ndarray
    columns: np.ndarray  # int32, in the order of the keys pair * n + column
    pos: np.ndarray  # int32


def _farfield(tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str) -> tuple[list, dict]:
    """One side's ``_Level`` per cluster level, and each cluster's level and
    pair range.  Level l's pairs own the blocks on its clusters, and for
    every pair of level l - 1 and every son of its cluster, the son with the
    chained direction inherits the pair's blocks.  A pair lists its own
    blocks in id order, then the inherited ones by parent direction and
    position in the parent's list."""
    if side not in ("row", "col"):
        raise ValueError("side must be 'row' or 'col'")
    bid, n = bt.admissible_leaves, tree.index_set(tree.root).size
    owner, src = (bt.t[bid], bt.s[bid]) if side == "row" else (bt.s[bid], bt.t[bid])
    c = bt.c_index[bid]
    levels, where = [], {}
    for l in range(tree.depth + 1):
        mine = np.nonzero(bt.level[bid] == l)[0]
        cid, cc, b, sr = owner[mine], c[mine], bid[mine], src[mine]
        via, rank = np.full(mine.size, -1), np.arange(mine.size)
        if levels:
            up = levels[-1]
            parent = np.repeat(np.arange(up.cid.size), np.diff(up.item_ptr))  # each parent item's pair
            copies = np.diff(tree.son_ptr)[up.cid[parent]]
            k = np.repeat(np.arange(parent.size), copies)  # the parent item of each inherited one
            cid = np.concatenate([cid, tree.sons[_ranges(tree.son_ptr[up.cid[parent]], copies)]])
            cc = np.concatenate([cc, dirs.son_maps[l - 1][up.c[parent[k]]]])
            b, sr = np.concatenate([b, up.bid[k]]), np.concatenate([sr, up.src[k]])
            via, rank = np.concatenate([via, up.c[parent[k]]]), np.concatenate([rank, k - up.item_ptr[parent[k]]])
        width = dirs.count(l)
        pairs, pair = np.unique(cid * width + cc, return_inverse=True)
        order = np.lexsort((rank, via, pair))
        pair, b, sr, via = pair[order], b[order], sr[order], via[order]
        item_ptr = np.searchsorted(pair, np.arange(pairs.size + 1))
        sizes = np.diff(tree.set_ptr)[sr]
        column = tree.sets[_ranges(tree.set_ptr[sr], sizes)]
        order = np.argsort(np.repeat(pair, sizes) * n + column, kind="stable")
        pos = np.empty(order.size, dtype=np.int32)
        pos[order] = np.arange(order.size)
        below = l - (np.minimum.reduceat(bt.level[b], item_ptr[:-1]) if b.size else np.zeros(0, np.intp))
        cols = np.concatenate([[0], np.cumsum(sizes)])
        column = column[order].astype(np.int32)
        levels.append(_Level(pairs // width, pairs % width, below, item_ptr, b, sr, via, cols, column, pos))
        ids, first, count = np.unique(pairs // width, return_index=True, return_counts=True)
        where.update((i, (l, f, f + m)) for i, f, m in zip(ids.tolist(), first.tolist(), count.tolist()))
    return levels, where


def used_directions(
    tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str = "row"
) -> dict[int, list[int]]:
    """Direction indices each cluster actually needs: those of its own
    admissible blocks plus the chained-down directions of its ancestors',
    the pairs of ``_farfield`` in ascending (level, cluster, direction)."""
    used: dict[int, list[int]] = {}
    for lv in _farfield(tree, dirs, bt, side)[0]:
        for cid, c in zip(lv.cid.tolist(), lv.c.tolist()):
            used.setdefault(cid, []).append(c)
    return used


def farfield_sets(tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str = "row") -> tuple[dict, dict]:
    """Farfield block lists and column index sets per (cluster, direction).

    A source cluster s belongs to (t, c) when some ancestor-or-self of t has
    an admissible block against s whose direction chains down to c at t's
    level.  The keys are the pairs of ``used_directions``.  Returns
    (groups, cols); groups values are (source id, block id) pairs, the
    pair's own blocks first, cols values are sorted arrays of matrix column
    indices.
    """
    groups, cols = {}, {}
    for lv in _farfield(tree, dirs, bt, side)[0]:
        for p, key in enumerate(zip(lv.cid.tolist(), lv.c.tolist())):
            items = slice(lv.item_ptr[p], lv.item_ptr[p + 1])
            groups[key] = list(zip(lv.src[items].tolist(), lv.bid[items].tolist()))
            cols[key] = lv.columns[lv.cols[items.start] : lv.cols[items.stop]].astype(np.intp)
    return groups, cols


def compute_block_weights(access, tree: ClusterTree, bt: BlockTree) -> np.ndarray:
    """Exact spectral norm per admissible block, as one float array by block
    id that holds 1.0 off the admissible leaves.  The blocks of one target
    cluster are read with one accessor call over their column sets side by
    side (disjoint, since the leaf blocks partition the matrix).  Sorted by
    row count and target, the blocks of one row count are read into one
    array and go into one stack per column count, whose norms come from one
    batched singular-value computation without singular vectors (a zero
    block gets the weight 1; for blocks of a few dozen rows and columns, a
    batched QR first costs more than it saves).

    Each stack's slots are cut in two halves (``linalg.cut_in_two``), which
    a batched singular-value computation treats slot by slot; the reads stay
    on the caller, as two row-count groups at once would hold two reads."""
    sizes = np.diff(tree.set_ptr)
    t = bt.t[bt.admissible_leaves]
    bid = bt.admissible_leaves[np.lexsort((t, sizes[t]))]  # a target's blocks stay in id order
    t, width, start = bt.t[bid], sizes[bt.s[bid]], tree.set_ptr[bt.s[bid]]
    column = np.concatenate([[0], np.cumsum(width)])  # each block's first column, counted over all blocks
    cut = [*np.flatnonzero(np.diff(sizes[t], prepend=-1)).tolist(), bid.size]  # each row count's first block
    weights = np.ones(len(bt))
    for b0, b1 in zip(cut, cut[1:]):
        read = None
        first = [*(b0 + np.flatnonzero(np.diff(t[b0:b1], prepend=-1))).tolist(), b1]  # each target's first block
        for i, j in zip(first, first[1:]):
            strip = access(tree.index_set(t[i]), tree.sets[_ranges(start[i:j], width[i:j])])
            if read is None:
                read = np.empty((len(strip), column[b1] - column[b0]), dtype=strip.dtype)
            read[:, column[i] - column[b0] : column[j] - column[b0]] = strip
        for c in np.unique(width[b0:b1]).tolist():
            mine = b0 + np.flatnonzero(width[b0:b1] == c)
            stack = read[:, _ranges(column[mine] - column[b0], width[mine])].reshape(len(read), mine.size, c)
            norms = _norms(stack.transpose(1, 0, 2))
            weights[bid[mine]] = np.where(norms > 0.0, norms, 1.0)
    return weights


def _norms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of each slot of ``stack``, from one batched
    singular-value computation without singular vectors per half of its
    slots."""
    norms = np.empty(len(stack))

    def part(a: int, b: int) -> None:
        norms[a:b] = np.linalg.svd(stack[a:b], compute_uv=False)[:, 0]

    cut_in_two(part, np.ones(len(stack)))
    return norms


def build_basis(
    access,
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    bt: BlockTree,
    cfg: CompressionConfig,
    block_weights: np.ndarray,
    side: str = "row",
    col_basis: DirectionalClusterBasis | None = None,
) -> tuple[DirectionalClusterBasis, CompressionState]:
    """Bottom-up construction of one orthogonal directional cluster basis
    from sub-blocks of the matrix whose row space it shall capture (pass an
    adjoint accessor for the column basis), as the module docstring says.
    ``block_weights`` are those of ``compute_block_weights`` for the matrix
    itself, so the column pass weights each block by the norm of A[t, s].
    Each strip g is reduced by one ``np.linalg.qr`` of g^H per pair, the
    floor sigma_1 max(g.shape) eps keeps g's shape, and the reduced rows are
    q^H g.  A pair's reduced rows are kept only until its parent has read
    them; the state holds the truncation errors and the couplings.

    Given the column basis, a row pass also forms the coupling matrix of
    every admissible block b = (t, s, c) into ``state.coupling``: the reduced
    rows R of (t, c) are V_tc^H times the weighted strip, so V_tc^H A_b W_sc
    = omega_b R[:, cols of s] W_sc, with the columns of s found through the
    index arrays.  Each product is formed on its own: batching the few
    blocks of one shape cost more than it saved.

    The clusters that hold pairs (the root holds none) are visited sons
    first in descending id order, on the calling thread.  The pass writes
    its leaf bases, transfers and couplings into the slots of one buffer per
    category (``dh2core.StackBuffer``) as it forms them; at its end
    ``dh2core.join_buffers`` lays each out as one stack per shape (the
    transfers per son level and shape), slots in ascending key order, which
    ``compress`` hands to the matrix as they are.
    """
    if col_basis is not None and side != "row":
        raise ValueError("couplings are formed in the row pass")
    max_sons = max(int(np.diff(tree.son_ptr).max()), 1)
    cfg.validate(max_sons)
    levels, where = _farfield(tree, dirs, bt, side)
    n, inverse = tree.index_set(tree.root).size, 1.0 / block_weights
    state, basis = CompressionState(), DirectionalClusterBasis()
    col_memo: dict = {}  # the column basis's expansions, kept for the whole pass

    # Per-pair truncation target: a block rooted at level l_t collects the
    # squared budget sum_{r in desc(t)} eps_r^2, which must stay within
    # (eps/sqrt(2))**2 per side so the row/column split keeps the total block
    # error at eps.  The shallowest admissible block above a pair governs it.
    eps_base = cfg.eps * float(np.sqrt((1.0 - max_sons * cfg.zeta**2) / 2.0))
    tolerance = np.array([eps_base * cfg.zeta**d for d in range(tree.depth + 1)])
    for lv in levels:
        state.target_eps.update(zip(zip(lv.cid.tolist(), lv.c.tolist()), tolerance[lv.below].tolist()))

    # the root holds no pair (its one block, with itself, is not admissible)
    leaf, transfer, coupling = StackBuffer(), StackBuffer(), StackBuffer()
    reduced_rows: dict = {}
    for cid in sorted(where, reverse=True):  # sons before parents
        (l, p0, p1), sons = where[cid], tree.sons_of(cid)
        lv, cs = levels[l], levels[l].c[p0:p1].tolist()
        i0, i1 = lv.item_ptr[p0], lv.item_ptr[p1]
        span = lv.cols[lv.item_ptr[p0 : p1 + 1]]
        cols = lv.columns[span[0] : span[-1]].astype(np.intp)
        bounds = (span - span[0]).tolist()
        at = lv.pos[span[0] : span[-1]] - span[0]  # each item's columns in the cluster's run
        if not sons:
            w = np.empty(cols.size)  # 1/weight of each column's block
            w[at] = np.repeat(inverse[lv.bid[i0:i1]], np.diff(lv.cols[i0 : i1 + 1]))
            read = access(tree.index_set(cid), cols)
            # scaled pair by pair: BLAS may round q^H g differently for a strided g
            strips = [read[:, a:b] * w[a:b] for a, b in zip(bounds, bounds[1:])]
            # freed before the factorizations, as is each QR's output below,
            # so that the pass's peak holds neither
            del read
        else:
            # pair i's columns in the pairs of son j with the chained direction,
            # found among the keys of the sons' pairs, which are one run
            chained, nxt = dirs.son_maps[l][lv.c[p0:p1]], levels[l + 1]
            son_pair = np.stack(
                [q0 + np.searchsorted(nxt.c[q0:q1], chained) for _, q0, q1 in map(where.get, sons)], 1
            )
            q0, q1 = where[sons[0]][1], where[sons[-1]][2]
            run = nxt.cols[nxt.item_ptr[q0 : q1 + 1]]
            keys = np.repeat(np.arange(q0, q1) * n, np.diff(run)) + nxt.columns[run[0] : run[-1]]
            runs = np.repeat(np.diff(span), len(sons))
            son_pair = np.repeat(son_pair.ravel(), runs)
            at_son = _ranges(np.repeat(span[:-1] - span[0], len(sons)), runs)
            pos = np.searchsorted(keys, son_pair * n + cols[at_son])
            pos -= run[son_pair - q0] - run[0]
            ends = np.cumsum(runs).tolist()
            parts = [pos[a:b] for a, b in zip([0] + ends, ends)]
            strips = [
                np.concatenate([reduced_rows[(son, c2)][:, parts[i * len(sons) + j]] for j, son in enumerate(sons)])
                for i, c2 in enumerate(chained.tolist())
            ]

        # g = L Q^H: L has g's singular values and left singular vectors, and
        # at most as many columns as g has rows.  Each pair's singular values
        # are padded with zeros: a pair without rows has rank 0, and one
        # that keeps all m values discards sigma[m] = 0.
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, g in enumerate(strips):
            if g.shape[0]:
                by_shape.setdefault((g.shape[0], min(g.shape)), []).append(i)
        u = [np.zeros((0, 0), dtype=np.complex128)] * len(strips)
        sigma = np.zeros((len(strips), max((m for _, m in by_shape), default=0) + 1))
        for (rows, m), idx in by_shape.items():
            factors, lower = np.zeros((len(idx), rows, m), dtype=np.complex128), np.tri(rows, m, dtype=bool)
            for factor, i in zip(factors, idx):
                h, _ = np.linalg.qr(strips[i].conj().T, mode="raw")  # R is the upper triangle of h^T
                np.conjugate(h[:, :m], out=factor, where=lower)
            del h
            res = svd(factors)
            sigma[idx, :m] = res.sigma
            for i, ui in zip(idx, res.u):
                u[i] = ui
        floor = sigma[:, 0] * np.array([max(g.shape) for g in strips]) * _EPS
        ranks = truncation_rank(sigma, np.maximum(tolerance[lv.below[p0:p1]], floor))
        realized = sigma[np.arange(len(strips)), ranks].tolist()

        reduced = []
        read_by_parent = (lv.via[lv.item_ptr[p0 + 1 : p1 + 1] - 1] >= 0).tolist()  # an inherited block comes last
        for i, (c, g, k) in enumerate(zip(cs, strips, ranks.tolist())):
            key = (cid, c)
            state.realized_eps[key], basis.rank[key] = realized[i], k
            q = u[i][:, :k].copy()  # contiguous, for the products below
            r = q.conj().T @ g
            reduced.append(r)
            if read_by_parent[i]:
                reduced_rows[key] = r
            if not sons:
                leaf.slot(key, q.shape)[...] = q
            else:
                off, c2 = 0, dirs.son_index(l, c)
                for son in sons:
                    ks = basis.rank[(son, c2)]
                    transfer.slot((son, c), (ks, k), l + 1)[...] = q[off : off + ks]
                    off += ks
        if col_basis is not None:  # the cluster's own blocks lead each pair's items
            own = i0 + np.nonzero(lv.via[i0:i1] < 0)[0]
            pair = np.searchsorted(lv.item_ptr, own, side="right") - 1 - p0
            starts, ends = (lv.cols[own] - span[0]).tolist(), (lv.cols[own + 1] - span[0]).tolist()
            for i, bid, s, a, b in zip(pair.tolist(), lv.bid[own].tolist(), lv.src[own].tolist(), starts, ends):
                w = expand_factor(col_basis, tree, dirs, s, cs[i], col_memo)
                slot = coupling.slot(bid, (len(reduced[i]), w.shape[1]))
                np.matmul(reduced[i][:, at[a:b] - bounds[i]], w, out=slot)
                slot *= block_weights[bid]
        if sons:  # the sons' reduced rows have been read
            for key in {(son, c2) for son in sons for c2 in chained.tolist()}:
                reduced_rows.pop(key)

    basis.leaf, basis.transfer, state.coupling = map(join_buffers, (leaf, transfer, coupling))
    return basis, state


def subtree_tolerance_sq(
    state: CompressionState, tree: ClusterTree, dirs: DirectionHierarchy, cid: int, c: int
) -> float:
    """Sum of squared realized truncation errors over the cluster's subtree,
    following the direction chain."""
    total = state.realized_eps.get((cid, c), 0.0) ** 2
    for son in tree.sons_of(cid):
        total += subtree_tolerance_sq(state, tree, dirs, son, dirs.son_index(tree.level[cid], c))
    return total


def compress(
    access,
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    bt: BlockTree,
    cfg: CompressionConfig,
    seed: int = 0,
    return_state: bool = False,
    timings: dict | None = None,
):
    """Full compression: exact block norms as weights, the column basis from
    the adjoint, then the row basis from the matrix, whose pass forms the
    best-approximation coupling matrices from its reduced rows, and the
    verbatim nearfield, read straight into one stack per shape
    (``dh2core.empty_stacks``).  The passes hand over their matrices
    stacked, so ``dh2core._stacked_matrix`` makes the matrix of the stacks
    as they are and no stored matrix is copied.  Each admissible block is read
    three times and each nearfield block once.  ``access`` is called on the
    calling thread only.

    The result does not depend on ``seed``, which is kept so that callers
    passing one keep working.  With ``return_state`` the row and the column
    pass's ``CompressionState`` are returned after the matrix.  ``timings``
    receives the wall time of the block weights ("weights"), of the column
    pass ("col"), of the row pass with the couplings ("row") and of the
    nearfield reads ("projection")."""
    start = time.perf_counter()
    weights = compute_block_weights(access, tree, bt)

    t0 = time.perf_counter()
    adjoint = lambda rows, cols: access(cols, rows).conj().T
    col_basis, col_state = build_basis(adjoint, tree, dirs, bt, cfg, weights, side="col")
    col_state = col_state if return_state else None  # a state holds two dict entries per pair
    t1 = time.perf_counter()
    row_basis, row_state = build_basis(access, tree, dirs, bt, cfg, weights, side="row", col_basis=col_basis)
    coupling, row_state = row_state.coupling, row_state if return_state else None
    t2 = time.perf_counter()
    near, size = list(bt.entries(bt.inadmissible_leaves)), np.diff(tree.set_ptr).tolist()
    nearfield = empty_stacks({bid: (size[t], size[s]) for bid, t, s, _ in near})
    for bid, t, s, _ in near:
        nearfield[bid][...] = access(tree.index_set(t), tree.index_set(s))
    t3 = time.perf_counter()
    if timings is not None:
        timings.update(weights=t0 - start, row=t2 - t1, col=t1 - t0, projection=t3 - t2)

    a = _stacked_matrix(tree, dirs, bt, row_basis, col_basis, coupling, nearfield)
    if return_state:
        return a, row_state, col_state
    return a


# -- cross approximation baseline -------------------------------------------


def aca_approximate(block: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Fully pivoted cross approximation of an explicit block.

    Returns (a, b) with block ~= a @ b.conj().T; stops when the pivot drops
    below tolerance times the first pivot or the residual is zero.
    """
    block = np.asarray(block, dtype=np.complex128)
    rows, cols = block.shape
    residual = block.copy()
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    first = 0.0
    for _ in range(min(rows, cols)):
        i, j = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        pivot = residual[i, j]
        mag = abs(pivot)
        if mag == 0.0:
            break
        if first == 0.0:
            first = mag
        elif mag <= tolerance * first:
            break
        col = residual[:, j] / pivot
        row = residual[i, :]
        a_parts.append(col)
        b_parts.append(row.conj())
        residual -= np.outer(col, row)
    if not a_parts:
        return (
            np.zeros((rows, 0), dtype=np.complex128),
            np.zeros((cols, 0), dtype=np.complex128),
        )
    return np.stack(a_parts, axis=1), np.stack(b_parts, axis=1)


@dataclass(frozen=True, eq=False)
class AcaMatrix:
    """Blockwise low-rank approximation on the admissible leaves plus dense
    nearfield; the comparison baseline.

    A block a b^H is applied as a (b^H x) through the phase plans of
    ``dh2core``: construction copies the factors and the nearfield into one
    new stack per shape, as ``DH2Matrix(...)`` copies its payload, and the
    container holds new read-only dicts of the slots, so the given dicts and
    arrays are left as they are.  There is one run of coefficients per block
    between the two factors.  Two matrices are equal only if they are one
    object."""

    tree: ClusterTree
    blocks: BlockTree
    factors: dict[int, tuple[np.ndarray, np.ndarray]]
    nearfield: dict[int, np.ndarray]

    def __post_init__(self):
        tree, t, s = self.tree, self.blocks.t.tolist(), self.blocks.s.tolist()
        left, left_stacks = _stacks({bid: a for bid, (a, _) in self.factors.items()})
        right, right_stacks = _stacks({bid: b for bid, (_, b) in self.factors.items()})
        nearfield, near_stacks = _stacks(self.nearfield)
        offsets, rank_total = run_offsets({bid: a.shape[1] for bid, a in left.items()})
        coefficients = lambda bid: offsets[bid]
        rows, cols = lambda bid: tree.index_set(t[bid]), lambda bid: tree.index_set(s[bid])
        # the dataclass is frozen, so the copies and the private plans are set past it
        object.__setattr__(self, "factors", MappingProxyType({bid: (left[bid], right[bid]) for bid in self.factors}))
        object.__setattr__(self, "nearfield", MappingProxyType(nearfield))
        object.__setattr__(self, "_rank_total", rank_total)
        object.__setattr__(self, "_left", _phase(left_stacks, rows, coefficients))
        object.__setattr__(self, "_right", _phase(right_stacks, cols, coefficients))
        object.__setattr__(self, "_nearfield", _phase(near_stacks, rows, cols))

    @property
    def n(self) -> int:
        return self.tree.index_set(self.tree.root).size

    def _apply(self, x: np.ndarray, hermitian: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        src, dst = (self._left, self._right) if hermitian else (self._right, self._left)
        coefficients = np.zeros(self._rank_total, dtype=np.complex128)
        apply_groups(coefficients, x, src, True)
        y = np.zeros(self.n, dtype=np.complex128)
        apply_groups(y, coefficients, dst)
        apply_groups(y, x, self._nearfield, hermitian)
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, False)

    def matvec_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, True)

    def storage_entries(self) -> int:
        low_rank = sum(a.size + b.size for a, b in self.factors.values())
        return low_rank + sum(m.size for m in self.nearfield.values())

    def max_rank(self) -> int:
        return max((a.shape[1] for a, _ in self.factors.values()), default=0)


def aca_compress(access, tree: ClusterTree, bt: BlockTree, tolerance: float) -> AcaMatrix:
    t, s = bt.t.tolist(), bt.s.tolist()
    read = lambda bid: access(tree.index_set(t[bid]), tree.index_set(s[bid]))
    factors = {bid: aca_approximate(read(bid), tolerance) for bid in bt.admissible_leaves.tolist()}
    nearfield = {bid: read(bid) for bid in bt.inadmissible_leaves.tolist()}
    return AcaMatrix(tree=tree, blocks=bt, factors=factors, nearfield=nearfield)
