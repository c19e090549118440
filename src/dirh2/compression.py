"""SVD-based construction of orthogonal directional cluster bases from an
arbitrary matrix, plus a cross-approximation baseline.

The input matrix is only touched through an accessor ``access(rows, cols)``
returning the corresponding sub-block, so dense arrays, lazily evaluated
kernels and expanded nested representations all compress the same way.
Where two CPUs may run, the basis passes call ``access`` from two threads
at once (see below), so it must be thread-safe: an accessor that keeps
state, such as scratch buffers, file handles or counters, races otherwise.

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
The subtrees under the root are independent, so where two CPUs may run the
block weights and both passes run in two parts on two threads, with the
bits of one part (``compute_block_weights``, ``build_basis``).
Truncation tolerances decay by zeta per level below the shallowest
admissible block above each pair, calibrated so no block ever exceeds the
requested accuracy relative to its norm.  There is no rank cap.

The column basis is built first.  The row pass forms each block's coupling
while its pair's reduced rows (the row basis applied to the weighted strip)
are held: the block's columns of them, times its weight, times the expanded
column basis.  An admissible block is read three times (weight, row strip,
column strip) and a nearfield block once.  Results are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocktree import BlockTree, _ranges
from .clustering import ClusterTree
from .dh2core import (
    DH2Matrix,
    DirectionalClusterBasis,
    apply_groups,
    expand_factor,
    run_offsets,
    stack_groups,
    stack_slots,
)
from .directions import DirectionHierarchy
# power_iteration_norm is not called here; it is imported for callers that
# look it up in this module, such as the benchmark's trace
from .linalg import power_iteration_norm, svd, truncation_rank, two_cpus, two_parts  # noqa: F401

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
    """Per-(cluster, direction) artifacts of one basis construction pass."""

    q: dict = field(default_factory=dict)  # leaf factor, or stacked son-rank factor
    r: dict = field(default_factory=dict)  # reduced rows over the farfield columns
    cols: dict = field(default_factory=dict)  # sorted global farfield column indices
    groups: dict = field(default_factory=dict)  # list of (source cluster, block id)
    realized_eps: dict = field(default_factory=dict)  # first discarded singular value
    target_eps: dict = field(default_factory=dict)  # truncation tolerance actually used
    block_weights: dict = field(default_factory=dict)
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


def compute_block_weights(access, tree: ClusterTree, bt: BlockTree) -> dict:
    """Exact spectral norm per admissible block.  The blocks of one target
    cluster are read with one accessor call over their column sets side by
    side (disjoint, since the leaf blocks partition the matrix).  Sorted by
    row count and target, the blocks of one row count are read into one
    array and go into one stack per column count, whose norms come from one
    batched singular-value computation without singular vectors (a zero
    block gets the weight 1; for blocks of a few dozen rows and columns, a
    batched QR first costs more than it saves).

    Where two CPUs may run, each stack's slots are cut in two halves, the
    first computed on the calling thread and the second on the worker
    thread (``linalg.two_parts``); the reads stay on the caller.  A batched
    singular-value computation treats each slot on its own, so a half
    gives every slot the bits of the whole stack.  Whole row-count groups
    are not cut, because that would hold two read arrays at once."""
    sizes = np.diff(tree.set_ptr)
    t = bt.t[bt.admissible_leaves]
    bid = bt.admissible_leaves[np.lexsort((t, sizes[t]))]  # a target's blocks stay in id order
    t, width, start = bt.t[bid], sizes[bt.s[bid]], tree.set_ptr[bt.s[bid]]
    column = np.concatenate([[0], np.cumsum(width)])  # each block's first column, counted over all blocks
    cut = [*np.flatnonzero(np.diff(sizes[t], prepend=-1)).tolist(), bid.size]  # each row count's first block
    weights: dict[int, float] = {}
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
            weights.update(zip(bid[mine].tolist(), np.where(norms > 0.0, norms, 1.0).tolist()))
    return weights


def _norms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of each slot of ``stack``, from one batched
    singular-value computation without singular vectors per half of its
    slots, the halves on two threads where two CPUs may run."""
    norms, half = np.empty(len(stack)), len(stack) // 2

    def part(a: int, b: int) -> None:
        norms[a:b] = np.linalg.svd(stack[a:b], compute_uv=False)[:, 0]

    if half and two_cpus():
        two_parts(lambda: part(0, half), lambda: part(half, len(stack)))
    else:
        part(0, len(stack))
    return norms


def build_basis(
    access,
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    bt: BlockTree,
    cfg: CompressionConfig,
    side: str = "row",
    block_weights: dict | None = None,
    keep_reduced: bool = True,
    col_basis: DirectionalClusterBasis | None = None,
) -> tuple[DirectionalClusterBasis, CompressionState]:
    """Bottom-up construction of one orthogonal directional cluster basis
    from sub-blocks of the matrix whose row space it shall capture (pass an
    adjoint accessor for the column basis), as the module docstring says.
    Each strip g is reduced by one ``np.linalg.qr`` of g^H per pair, the
    floor sigma_1 max(g.shape) eps keeps g's shape, and the reduced rows are
    q^H g.  With ``keep_reduced`` the state holds every pair's reduced rows
    and the values of ``farfield_sets`` (``groups``, ``cols``); without it
    these end empty, and reduced rows are dropped once no parent reads them.

    Given the column basis, a row pass also forms the coupling matrix of
    every admissible block b = (t, s, c) into ``state.coupling``: the reduced
    rows R of (t, c) are V_tc^H times the weighted strip, so V_tc^H A_b W_sc
    = omega_b R[:, cols of s] W_sc, with the columns of s found through the
    index arrays.  Each product is formed on its own: batching the few
    blocks of one shape cost more than it saved.

    Where two CPUs may run, the subtrees of the root's sons are cut in two
    sets of about equal index count (``_two_subtree_sets``), visited on the
    calling thread and on the worker thread (``linalg.two_parts``), each
    sons first in descending id order, into its own dicts and with its own
    column memo; the root has no pairs.  ``access`` is then called from both
    threads at once.  A cluster reads only its sons' reduced rows and ranks,
    which its own part made, so every matrix and number has the bits of a
    pass in one part, and the merged dicts are put back in that pass's order
    (``_sort_by_cluster``).
    """
    if col_basis is not None and side != "row":
        raise ValueError("couplings are formed in the row pass")
    max_sons = max(int(np.diff(tree.son_ptr).max()), 1)
    cfg.validate(max_sons)
    if block_weights is None:
        matrix = access if side == "row" else _adjoint_access(access)  # the weights are norms of A[t, s]
        block_weights = compute_block_weights(matrix, tree, bt)
    levels, where = _farfield(tree, dirs, bt, side)
    n, inverse = tree.index_set(tree.root).size, np.ones(len(bt))  # 1/weight per block
    inverse[bt.admissible_leaves] = [1.0 / block_weights[bid] for bid in bt.admissible_leaves.tolist()]
    state = CompressionState(block_weights=block_weights)
    if keep_reduced:
        state.groups, state.cols = farfield_sets(tree, dirs, bt, side)
    basis = DirectionalClusterBasis()
    col_memo: dict = {}

    # Per-pair truncation target: a block rooted at level l_t collects the
    # squared budget sum_{r in desc(t)} eps_r^2, which must stay within
    # (eps/sqrt(2))**2 per side so the row/column split keeps the total block
    # error at eps.  The shallowest admissible block above a pair governs it.
    eps_base = cfg.eps * float(np.sqrt((1.0 - max_sons * cfg.zeta**2) / 2.0))
    tolerance = np.array([eps_base * cfg.zeta**d for d in range(tree.depth + 1)])
    for lv in levels:
        state.target_eps.update(zip(zip(lv.cid.tolist(), lv.c.tolist()), tolerance[lv.below].tolist()))

    def visit(cids: list, basis: DirectionalClusterBasis, state: CompressionState, col_memo: dict) -> None:
        """Build the pairs of ``cids``, sons before parents, into ``basis``
        and ``state``."""
        for cid in cids:
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
                # freed before the factorizations, as is each QR's output below: the
                # worker thread's heap keeps the high-water mark of its part resident
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
                    np.concatenate([state.r[(son, c2)][:, parts[i * len(sons) + j]] for j, son in enumerate(sons)])
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
                q = state.q[key] = u[i][:, :k].copy()  # a view would keep the whole stack alive
                r = q.conj().T @ g
                reduced.append(r)
                if keep_reduced or read_by_parent[i]:
                    state.r[key] = r
                if not sons:
                    basis.leaf[key] = q
                else:
                    off, c2 = 0, dirs.son_index(l, c)
                    for son in sons:
                        ks = basis.rank[(son, c2)]
                        basis.transfer[(son, c)] = q[off : off + ks]
                        off += ks
            if col_basis is not None:  # the cluster's own blocks lead each pair's items
                own = i0 + np.nonzero(lv.via[i0:i1] < 0)[0]
                pair = np.searchsorted(lv.item_ptr, own, side="right") - 1 - p0
                starts, ends = (lv.cols[own] - span[0]).tolist(), (lv.cols[own + 1] - span[0]).tolist()
                for i, bid, s, a, b in zip(pair.tolist(), lv.bid[own].tolist(), lv.src[own].tolist(), starts, ends):
                    w = expand_factor(col_basis, tree, dirs, s, cs[i], col_memo)
                    state.coupling[bid] = block_weights[bid] * (reduced[i][:, at[a:b] - bounds[i]] @ w)
            if not keep_reduced and sons:  # the sons' reduced rows have been read
                for key in {(son, c2) for son in sons for c2 in chained.tolist()}:
                    state.r.pop(key)

    order = sorted(where, reverse=True)  # sons before parents
    part = _two_subtree_sets(tree) if two_cpus() else None
    if part is None:
        visit(order, basis, state, col_memo)
        return basis, state
    # the root holds no pair (its one block, with itself, is not admissible),
    # so the two parts visit every cluster that has pairs
    halves = [(DirectionalClusterBasis(), CompressionState(), {}) for _ in range(2)]
    first, second = ([c for c in order if part[c] == k] for k in (0, 1))
    two_parts(lambda: visit(first, *halves[0]), lambda: visit(second, *halves[1]))
    for half_basis, half_state, _ in halves:
        for holder, half, names in ((basis, half_basis, _BASIS_DICTS), (state, half_state, _STATE_DICTS)):
            for name in names:
                getattr(holder, name).update(getattr(half, name))
    _sort_by_cluster(basis, state, tree, bt)
    return basis, state


_BASIS_DICTS = ("leaf", "transfer", "rank")
_STATE_DICTS = ("q", "r", "realized_eps", "coupling")


def _two_subtree_sets(tree: ClusterTree) -> list | None:
    """Each cluster's part in a basis pass cut in two: 0 or 1 for the
    subtrees of the root's sons, split largest first onto the lighter set,
    -1 for the root; None if the root has fewer than two sons."""
    size = np.diff(tree.set_ptr).tolist()
    sets, load = ([], []), [0, 0]
    for c in sorted(tree.sons_of(tree.root), key=lambda c: -size[c]):
        k = int(load[1] < load[0])
        sets[k].append(c)
        load[k] += size[c]
    if not sets[1]:
        return None
    part = [-1] * len(tree)
    for k, below in enumerate(sets):
        while below:
            c = below.pop()
            part[c] = k
            below.extend(tree.sons_of(c))
    return part


def _sort_by_cluster(basis: DirectionalClusterBasis, state: CompressionState, tree: ClusterTree, bt: BlockTree):
    """Put the dicts that a basis pass fills in the order a pass in one part
    gives them: by descending cluster, each cluster's entries in the order
    they were made, which a stable sort keeps.  A transfer matrix belongs to
    its son's parent, a coupling to its block's row cluster."""
    parent, t = tree.parent.tolist(), bt.t.tolist()
    owners = {"transfer": lambda key: parent[key[0]], "coupling": lambda bid: t[bid]}
    for holder, names in ((basis, _BASIS_DICTS), (state, _STATE_DICTS)):
        for name in names:
            owner = owners.get(name, lambda key: key[0])
            setattr(holder, name, dict(sorted(getattr(holder, name).items(), key=lambda item: -owner(item[0]))))


def subtree_tolerance_sq(
    state: CompressionState, tree: ClusterTree, dirs: DirectionHierarchy, cid: int, c: int
) -> float:
    """Sum of squared realized truncation errors over the cluster's subtree,
    following the direction chain."""
    total = state.realized_eps.get((cid, c), 0.0) ** 2
    for son in tree.sons_of(cid):
        total += subtree_tolerance_sq(state, tree, dirs, son, dirs.son_index(tree.level[cid], c))
    return total


def _adjoint_access(access):
    return lambda rows, cols: access(cols, rows).conj().T


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
    verbatim nearfield.  Each admissible block is read three times and each
    nearfield block once.  Where two CPUs may run, both basis passes call
    ``access`` from two threads at once, so it must be thread-safe.

    The result does not depend on ``seed``, which is kept so that callers
    passing one keep working.  ``timings`` receives the wall time of the
    block weights ("weights"), of the column pass ("col"), of the row pass
    with the couplings ("row") and of the nearfield reads ("projection")."""
    start = time.perf_counter()
    weights = compute_block_weights(access, tree, bt)

    t0 = time.perf_counter()
    kwargs = dict(block_weights=weights, keep_reduced=return_state)
    col_basis, col_state = build_basis(_adjoint_access(access), tree, dirs, bt, cfg, side="col", **kwargs)
    col_state = col_state if return_state else None  # a state holds several dict entries per pair
    t1 = time.perf_counter()
    row_basis, row_state = build_basis(access, tree, dirs, bt, cfg, side="row", col_basis=col_basis, **kwargs)
    coupling, row_state = row_state.coupling, row_state if return_state else None
    t2 = time.perf_counter()
    near = [(bid, tree.index_set(t), tree.index_set(s)) for bid, t, s, _ in bt.entries(bt.inadmissible_leaves)]
    nearfield = stack_slots({bid: (t.size, s.size) for bid, t, s in near})
    for bid, t, s in near:
        nearfield[bid][...] = access(t, s)
    t3 = time.perf_counter()
    if timings is not None:
        timings.update(weights=t0 - start, row=t2 - t1, col=t1 - t0, projection=t3 - t2)

    a = DH2Matrix(tree, dirs, bt, row_basis, col_basis, coupling, nearfield)
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


@dataclass(frozen=True)
class AcaMatrix:
    """Blockwise low-rank approximation on the admissible leaves plus dense
    nearfield; the comparison baseline.

    A block a b^H is applied as a (b^H x) through the phase plans of
    ``dh2core``: the factors are stacked like the nested bases, with one run
    of coefficients per block between the two factors."""

    tree: ClusterTree
    blocks: BlockTree
    factors: dict[int, tuple[np.ndarray, np.ndarray]]
    nearfield: dict[int, np.ndarray]

    def __post_init__(self):
        tree, t, s = self.tree, self.blocks.t.tolist(), self.blocks.s.tolist()
        left = {bid: a for bid, (a, _) in self.factors.items()}
        right = {bid: b for bid, (_, b) in self.factors.items()}
        offsets, rank_total = run_offsets({bid: a.shape[1] for bid, a in left.items()})
        coefficients = lambda bid: offsets[bid]
        left_groups = stack_groups(left, lambda bid: tree.index_set(t[bid]), coefficients)
        right_groups = stack_groups(right, lambda bid: tree.index_set(s[bid]), coefficients)
        self.factors.update((bid, (left[bid], right[bid])) for bid in left)
        nearfield = stack_groups(self.nearfield, lambda bid: tree.index_set(t[bid]), lambda bid: tree.index_set(s[bid]))
        # the dataclass is frozen, so its private plans are set past it
        object.__setattr__(self, "_rank_total", rank_total)
        object.__setattr__(self, "_left", left_groups)
        object.__setattr__(self, "_right", right_groups)
        object.__setattr__(self, "_nearfield", nearfield)

    @property
    def n(self) -> int:
        return self.tree.index_set(self.tree.root).size

    def _apply(self, x: np.ndarray, hermitian: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
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
