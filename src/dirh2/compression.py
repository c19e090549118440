"""SVD-based construction of orthogonal directional cluster bases from an
arbitrary matrix, plus a cross-approximation baseline.

The input matrix is only touched through an accessor ``access(rows, cols)``
returning the corresponding sub-block, so dense arrays, lazily evaluated
kernels and expanded nested representations all compress the same way.

Every admissible block is weighted by its exact spectral norm, read once
into a stack per block shape.  For every (cluster, direction) pair
referenced by some admissible block (the pairs of
``blocktree.used_directions``) the algorithm collects the farfield columns
the basis has to serve.  Leaf clusters take that strip directly;
non-leaf clusters stack their sons' reduced rows, so each level works on
small matrices only.  Each strip g is reduced to its triangular factor L
(g = L Q^H, from the QR factorization of g^H), which has g's singular values
and left singular vectors and no more columns than g has rows; the basis
comes from the SVD of L, and no right singular vectors of g are formed.
Clusters are visited one at a time, and all of a cluster's direction pairs
are handled together: a leaf cluster reads its farfield strips with one
accessor call over the union of their columns (the sets are disjoint,
because the leaf blocks partition the matrix), and the cluster's
triangular factors go through one ``svd`` call per factor shape.
Truncation tolerances decay by zeta per level below the shallowest
admissible block above each pair, calibrated so no block ever exceeds the
requested accuracy relative to its norm: every column group is pre-divided
by the spectral norm of the admissible block that contributed it.  There
is no rank cap.

The column basis is built first.  The row pass then forms each coupling
matrix while its pair's reduced rows are held: they are the row basis
applied to the weighted strip, so a block's coupling is its columns of the
reduced rows, times its weight, times the expanded column basis.  An
admissible block is thus read three times (weight, row strip, column strip)
and a nearfield block once.  ``DH2Matrix`` stacks the couplings once per
shape.

Each (cluster, direction) result slot is written exactly once and parents
only read their own sons; clusters are visited sons first in descending id
order, a cluster's pairs in the order of ``used_directions``, and results
are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocktree import BlockTree, used_directions
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
from .linalg import power_iteration_norm, svd, truncation_rank  # noqa: F401

__all__ = [
    "CompressionConfig",
    "CompressionState",
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
            raise ValueError(
                f"zeta={self.zeta} too large for trees with up to {max_sons} sons"
            )


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


def _farfield_groups(
    tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str, used: dict
) -> tuple[dict, dict]:
    """Farfield block lists per (cluster, direction) pair, and per pair the
    level of the shallowest cluster that owns one of its blocks."""
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    shallowest: dict[tuple[int, int], int] = {}
    for bid in bt.admissible_leaves:
        b = bt[bid]
        cid, other = (b.t, b.s) if side == "row" else (b.s, b.t)
        groups.setdefault((cid, b.c_index), []).append((other, bid))
        shallowest[(cid, b.c_index)] = tree[cid].level

    for cid in range(len(tree)):  # ids are parent-first
        cluster = tree[cid]
        if cluster.is_leaf:
            continue
        for c in used.get(cid, ()):
            c2 = dirs.son_index(cluster.level, c)
            level = shallowest[(cid, c)]
            for son in cluster.sons:
                groups.setdefault((son, c2), []).extend(groups[(cid, c)])
                shallowest[(son, c2)] = min(shallowest.get((son, c2), level), level)
    return groups, shallowest


def _sorted_columns(tree: ClusterTree, items: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted farfield columns of one pair, from one sort of its sources'
    concatenated index sets.  The sets are disjoint, so ``inverse``, the
    inverse of the sorting permutation, maps each concatenated index to its
    position in the sorted columns: ``inverse[offsets[i]:offsets[i + 1]]``
    are the positions of item i's source indices."""
    sets = [tree[s].index_set for s, _ in items]
    merged = np.concatenate(sets)
    order = np.argsort(merged, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    offsets = np.cumsum([0] + [x.size for x in sets])
    return merged[order], inverse, offsets


def farfield_sets(
    tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str = "row"
) -> tuple[dict, dict]:
    """Farfield block lists and column index sets per (cluster, direction).

    A source cluster s belongs to (t, c) when some ancestor-or-self of t has
    an admissible block against s whose direction chains down to c at t's
    level.  The keys are the pairs of ``blocktree.used_directions``.  Returns
    (groups, cols); groups values are (source id, block id) pairs, cols
    values are sorted arrays of matrix column indices.
    """
    groups, _ = _farfield_groups(tree, dirs, bt, side, used_directions(tree, dirs, bt, side))
    cols = {key: _sorted_columns(tree, items)[0] for key, items in groups.items()}
    return groups, cols


def compute_block_weights(access, tree: ClusterTree, bt: BlockTree) -> dict:
    """Exact spectral norm per admissible block.  The blocks of one target
    cluster are read with one accessor call over their column sets side by
    side (the sets are disjoint, because the leaf blocks partition the
    matrix), and each block is a column slice of that strip.  The blocks
    go into one stack per shape, and each stack's norms come from one
    batched singular-value computation without singular vectors; a zero
    block gets the weight 1.  The blocks have at most a few dozen rows and
    columns, where reducing them by a batched QR first costs more than it
    saves.  Targets are read one row count at a time, so the strips held
    at once are the blocks of that row count, not all admissible blocks."""
    by_rows: dict[int, list[int]] = {}
    for bid in bt.admissible_leaves:
        by_rows.setdefault(tree[bt[bid].t].size, []).append(bid)
    weights: dict[int, float] = {}
    for _, group in sorted(by_rows.items()):
        by_target: dict[int, list[int]] = {}
        for bid in group:
            by_target.setdefault(bt[bid].t, []).append(bid)
        blocks: dict[int, np.ndarray] = {}
        for t, bids in by_target.items():
            sets = [tree[bt[bid].s].index_set for bid in bids]
            strip = access(tree[t].index_set, np.concatenate(sets))
            blocks.update(zip(bids, np.split(strip, np.cumsum([x.size for x in sets[:-1]]), axis=1)))
        by_shape: dict[tuple[int, int], list[int]] = {}
        for bid in group:
            by_shape.setdefault(blocks[bid].shape, []).append(bid)
        for bids in by_shape.values():
            norms = np.linalg.svd(np.stack([blocks[bid] for bid in bids]), compute_uv=False)[:, 0]
            weights.update((bid, float(w) if w > 0.0 else 1.0) for bid, w in zip(bids, norms))
    return weights


def _svd_by_shape(factors: dict) -> dict:
    """Left singular vectors and singular values of every factor, from one
    ``svd`` call per factor shape on the stack of that shape's factors."""
    by_shape: dict[tuple[int, int], list] = {}
    for key, f in factors.items():
        by_shape.setdefault(f.shape, []).append(key)
    out = {}
    for keys in by_shape.values():
        res = svd(np.stack([factors[key] for key in keys]))
        out.update((key, (res.u[i], res.sigma[i])) for i, key in enumerate(keys))
    return out


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
    """Bottom-up construction of one orthogonal directional cluster basis.

    ``access`` must read sub-blocks of the matrix whose row space the basis
    shall capture (pass an adjoint accessor for the column basis).
    Clusters are visited sons first, in descending id order, with all
    their direction pairs together.  A leaf cluster reads its pairs' strips
    with one accessor call over their farfield columns side by side, and
    each pair's strip is a column slice of that read.
    Each pair's weighted strip g is reduced to its triangular factor
    L = R^H, where g^H = Q R; the cluster's factors are grouped by shape
    and truncated through one ``svd`` call per shape on their stack.  The
    floor sigma_1 max(g.shape) eps keeps g's shape, and the reduced rows
    are q^H g.  A pair's sorted farfield columns, the positions of each
    source cluster's indices in them and its column weights come from one
    sort.
    Without ``keep_reduced`` every pair's reduced rows and farfield columns
    are dropped once no parent pair reads them, so ``state.r`` ends empty.

    Given the column basis, a row pass also forms the coupling matrix of
    every admissible block b = (t, s, c) into ``state.coupling`` while the
    reduced rows R of (t, c) are held: R is V_tc^H times the weighted strip,
    so V_tc^H A_b W_sc = omega_b R[:, cols of s] W_sc.
    """
    if col_basis is not None and side != "row":
        raise ValueError("couplings are formed in the row pass")
    max_sons = max((len(c.sons) for c in tree.clusters if c.sons), default=1)
    cfg.validate(max_sons)
    if block_weights is None:
        matrix = access if side == "row" else _adjoint_access(access)  # the weights are norms of A[t, s]
        block_weights = compute_block_weights(matrix, tree, bt)
    used = used_directions(tree, dirs, bt, side)
    groups, shallowest = _farfield_groups(tree, dirs, bt, side, used)
    cols: dict = {}
    state = CompressionState(groups=groups, cols=cols, block_weights=block_weights)
    basis = DirectionalClusterBasis()
    read_by_parent = {
        (son, dirs.son_index(tree[cid].level, c)) for cid, cs in used.items() for c in cs for son in tree[cid].sons
    }
    col_memo: dict = {}

    # Per-pair truncation target: a block rooted at level l_t collects the
    # squared budget sum_{r in desc(t)} eps_r^2, which must stay within
    # (eps/sqrt(2))**2 per side so the row/column split keeps the total block
    # error at eps.  Each pair is governed by the shallowest admissible block
    # above it.
    eps_base = cfg.eps * float(np.sqrt((1.0 - max_sons * cfg.zeta**2) / 2.0))
    for key, level in shallowest.items():
        state.target_eps[key] = eps_base * cfg.zeta ** (tree[key[0]].level - level)

    for cid in sorted(used, reverse=True):  # sons before parents
        cluster = tree[cid]
        keys = [(cid, c) for c in used[cid]]
        columns = [_sorted_columns(tree, groups[key]) for key in keys]
        if cluster.is_leaf:
            # the leaf blocks partition the matrix, so the directions' column
            # sets are disjoint and one read of them side by side serves all
            read = access(cluster.index_set, np.concatenate([fcols for fcols, _, _ in columns]))
        strips = []
        start = 0
        for key, (fcols, inverse, offsets) in zip(keys, columns):
            items = groups[key]
            if cluster.is_leaf:
                g = read[:, start : start + fcols.size]
                start += fcols.size
                w = np.empty(fcols.size)
                w[inverse] = np.repeat([1.0 / block_weights[bid] for _, bid in items], np.diff(offsets))
                g = g * w[None, :]
            else:
                c2 = dirs.son_index(cluster.level, key[1])
                parts = []
                for son in cluster.sons:
                    rs = state.r[(son, c2)]
                    pos = np.searchsorted(cols[(son, c2)], fcols)
                    parts.append(rs[:, pos])
                g = np.vstack(parts)
            strips.append(g)
        # g = L Q^H: L has g's singular values and left singular vectors, and
        # at most as many columns as g has rows
        factors = {
            key: np.linalg.qr(g.conj().T, mode="r").conj().T for key, g in zip(keys, strips) if g.shape[0]
        }
        svds = _svd_by_shape(factors)

        for key, g, (fcols, inverse, offsets) in zip(keys, strips, columns):
            c = key[1]
            items = groups[key]
            if key not in svds:
                k = 0
                q = np.zeros((0, 0), dtype=np.complex128)
                state.realized_eps[key] = 0.0
            else:
                u, sigma = svds[key]
                tol = state.target_eps[key]
                if sigma.size:
                    tol = max(tol, sigma[0] * max(g.shape) * _EPS)
                k = truncation_rank(sigma, tol)
                q = u[:, :k].copy()  # a view would keep the whole stack alive
                state.realized_eps[key] = float(sigma[k]) if k < sigma.size else 0.0
            state.q[key] = q
            r = q.conj().T @ g
            if col_basis is not None:
                for i, (s, bid) in enumerate(items):
                    if bt[bid].t == cid:  # blocks owned by this pair, not by an ancestor
                        w = expand_factor(col_basis, tree, dirs, s, c, col_memo)
                        pos = inverse[offsets[i] : offsets[i + 1]]
                        state.coupling[bid] = block_weights[bid] * (r[:, pos] @ w)
            if keep_reduced or key in read_by_parent:
                state.r[key] = r
                cols[key] = fcols
            basis.rank[key] = k
            if cluster.is_leaf:
                basis.leaf[key] = q
            else:
                off = 0
                c2 = dirs.son_index(cluster.level, c)
                for son in cluster.sons:
                    ks = basis.rank[(son, c2)]
                    basis.transfer[(son, c)] = q[off : off + ks]
                    off += ks
        if not keep_reduced:
            for son in cluster.sons:
                for c_son in used.get(son, ()):  # parents are done with these
                    state.r.pop((son, c_son), None)
                    cols.pop((son, c_son), None)
    return basis, state


def subtree_tolerance_sq(
    state: CompressionState, tree: ClusterTree, dirs: DirectionHierarchy, cid: int, c: int
) -> float:
    """Sum of squared realized truncation errors over the cluster's subtree,
    following the direction chain."""
    total = state.realized_eps.get((cid, c), 0.0) ** 2
    cluster = tree[cid]
    if not cluster.is_leaf:
        c2 = dirs.son_index(cluster.level, c)
        for son in cluster.sons:
            total += subtree_tolerance_sq(state, tree, dirs, son, c2)
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
    nearfield block once.

    The result does not depend on ``seed``, which is kept so that callers
    passing one keep working.  ``timings`` receives the wall time of the
    column pass ("col"), of the row pass with the couplings ("row") and of
    the nearfield reads ("projection")."""
    weights = compute_block_weights(access, tree, bt)

    t0 = time.perf_counter()
    col_basis, col_state = build_basis(
        _adjoint_access(access), tree, dirs, bt, cfg, side="col",
        block_weights=weights, keep_reduced=return_state,
    )
    if not return_state:
        col_state = None
    t1 = time.perf_counter()
    row_basis, row_state = build_basis(
        access, tree, dirs, bt, cfg, side="row",
        block_weights=weights, keep_reduced=return_state, col_basis=col_basis,
    )
    coupling = row_state.coupling
    if not return_state:
        row_state = None
    t2 = time.perf_counter()
    nearfield = stack_slots({bid: (tree[bt[bid].t].size, tree[bt[bid].s].size) for bid in bt.inadmissible_leaves})
    for bid in bt.inadmissible_leaves:
        nearfield[bid][...] = access(tree[bt[bid].t].index_set, tree[bt[bid].s].index_set)
    t3 = time.perf_counter()
    if timings is not None:
        timings["row"] = t2 - t1
        timings["col"] = t1 - t0
        timings["projection"] = t3 - t2

    a = DH2Matrix(
        tree=tree,
        directions=dirs,
        blocks=bt,
        row_basis=row_basis,
        col_basis=col_basis,
        coupling=coupling,
        nearfield=nearfield,
    )
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
        tree, blocks = self.tree, self.blocks
        left = {bid: a for bid, (a, _) in self.factors.items()}
        right = {bid: b for bid, (_, b) in self.factors.items()}
        offsets, rank_total = run_offsets({bid: a.shape[1] for bid, a in left.items()})
        coefficients = lambda bid: offsets[bid]
        left_groups = stack_groups(left, lambda bid: tree[blocks[bid].t].index_set, coefficients)
        right_groups = stack_groups(right, lambda bid: tree[blocks[bid].s].index_set, coefficients)
        self.factors.update((bid, (left[bid], right[bid])) for bid in left)
        nearfield = stack_groups(
            self.nearfield,
            lambda bid: tree[blocks[bid].t].index_set,
            lambda bid: tree[blocks[bid].s].index_set,
        )
        # the dataclass is frozen, so its private plans are set past it
        object.__setattr__(self, "_rank_total", rank_total)
        object.__setattr__(self, "_left", left_groups)
        object.__setattr__(self, "_right", right_groups)
        object.__setattr__(self, "_nearfield", nearfield)

    @property
    def n(self) -> int:
        return self.tree[self.tree.root].size

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
    factors = {}
    for bid in bt.admissible_leaves:
        b = bt[bid]
        blk = access(tree[b.t].index_set, tree[b.s].index_set)
        factors[bid] = aca_approximate(blk, tolerance)
    nearfield = {
        bid: access(tree[bt[bid].t].index_set, tree[bt[bid].s].index_set)
        for bid in bt.inadmissible_leaves
    }
    return AcaMatrix(tree=tree, blocks=bt, factors=factors, nearfield=nearfield)
