"""Minimal admissible block trees and their sparsity statistics.

A block pairs two same-level clusters.  It becomes an admissible leaf when
the parabolic and standard conditions hold,

    kappa * max(diam_t, diam_s)^2 <= eta2 * dist(B_t, B_s)
    max(diam_t, diam_s)           <= eta2 * dist(B_t, B_s),
    dist(B_t, B_s)                 > 0,

an inadmissible leaf when either cluster cannot be subdivided further, and
is split into all son pairs otherwise.  B_t is the cluster's support box,
the smallest box holding its points.
Admissible leaves carry the index of the level direction closest to the
line between the box centers, an exact tie going to the lexicographically
smallest direction (``directions.nearest_direction_index``).

``build_block_tree`` decides all pairs of one level at once: the box
functions and ``is_admissible`` take arrays of boxes as well as single
boxes, with one rule for both, and the directions of a level's admissible
blocks come from one ``nearest_direction_index`` call.  Distances and
diameters are the norms of ``directions.vector_norms``, which are those
of ``np.linalg.norm`` on each single vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterTree
from .directions import DirectionHierarchy, nearest_direction_index, vector_norms

__all__ = [
    "Block",
    "BlockTree",
    "box_distance",
    "box_diameter",
    "is_admissible",
    "build_block_tree",
    "used_directions",
    "sparsity_stats",
    "SparsityStats",
    "blocks_to_csv",
]

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
SUBDIVIDED = "subdivided"


@dataclass
class Block:
    id: int
    t: int
    s: int
    status: str
    c_index: int = -1  # direction index at the block's level; -1 unless admissible
    sons: list[int] = field(default_factory=list)


@dataclass
class BlockTree:
    blocks: list[Block]
    root: int
    admissible_leaves: list[int]
    inadmissible_leaves: list[int]
    kappa: float
    eta1: float
    eta2: float
    parabolic: bool

    def __getitem__(self, bid: int) -> Block:
        return self.blocks[bid]

    def __len__(self) -> int:
        return len(self.blocks)


def box_distance(bmin_t, bmax_t, bmin_s, bmax_s):
    """Euclidean distance of two boxes, over the leading axes of the corner
    arrays (a float for single boxes)."""
    gap = np.maximum(0.0, np.maximum(np.subtract(bmin_t, bmax_s), np.subtract(bmin_s, bmax_t)))
    return vector_norms(gap)


def box_diameter(bmin, bmax):
    """Length of the box diagonal, over the leading axes of the corner arrays."""
    return vector_norms(np.subtract(bmax, bmin))


def is_admissible(box_t, box_s, kappa: float, eta2: float, parabolic: bool = True):
    """Whether the boxes (bmin, bmax) meet the conditions of the module
    docstring; a bool array over the leading axes of the corner arrays."""
    dist = box_distance(box_t[0], box_t[1], box_s[0], box_s[1])
    diam = np.maximum(box_diameter(*box_t), box_diameter(*box_s))
    # touching boxes, even point-sized ones, share a singularity
    ok = (dist > 0.0) & (diam <= eta2 * dist)
    if parabolic:
        ok &= kappa * diam * diam <= eta2 * dist
    return ok


def build_block_tree(
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    kappa: float,
    eta1: float,
    eta2: float,
    parabolic: bool = True,
) -> BlockTree:
    """Descent from the root pair, subdividing only inadmissible pairs whose
    clusters both have sons.

    The pairs of one level are decided together, in arrays; son pairs
    follow their parent in the order (sons of t) x (sons of s).  Blocks are
    then numbered depth first: a block, then the blocks of its first son
    pair, then those of the next."""
    if dirs.depth < tree.depth:
        raise ValueError("direction hierarchy is shallower than the cluster tree")
    for name, value in (("eta1", eta1), ("eta2", eta2)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be finite and >= 0")

    bmin = np.array([c.support_min for c in tree.clusters])
    bmax = np.array([c.support_max for c in tree.clusters])
    center = 0.5 * (bmin + bmax)
    n_sons = np.array([len(c.sons) for c in tree.clusters])
    first_son = np.cumsum(n_sons) - n_sons
    sons = np.array([s for c in tree.clusters for s in c.sons], dtype=np.int64)

    # per level, as lists: the pairs (t, s), their status and direction
    # index, and where in the next level their son pairs start and how many
    levels = []
    t = s = np.array([tree.root])
    while t.size:
        admissible = is_admissible((bmin[t], bmax[t]), (bmin[s], bmax[s]), kappa, eta2, parabolic)
        c_index = np.full(t.size, -1, dtype=np.int64)
        if admissible.any():
            c_index[admissible] = nearest_direction_index(
                dirs.levels[len(levels)], center[t[admissible]] - center[s[admissible]]
            )
        split = ~admissible & (n_sons[t] > 0) & (n_sons[s] > 0)
        status = np.where(admissible, ADMISSIBLE, np.where(split, SUBDIVIDED, INADMISSIBLE))
        count = np.where(split, n_sons[t] * n_sons[s], 0)
        first = np.cumsum(count) - count
        levels.append([a.tolist() for a in (t, s, status, c_index, first, count)])
        # son pair k of pair i: son k // n_s of t_i with son k % n_s of s_i
        parent = np.repeat(np.arange(t.size), count)
        k = np.arange(count.sum()) - first[parent]
        n_s = n_sons[s[parent]]
        t, s = sons[first_son[t[parent]] + k // n_s], sons[first_son[s[parent]] + k % n_s]

    blocks: list[Block] = []

    def number(level: int, i: int) -> int:
        t, s, status, c_index, first, count = levels[level]
        bid = len(blocks)
        blocks.append(None)
        son_ids = [number(level + 1, k) for k in range(first[i], first[i] + count[i])]
        blocks[bid] = Block(bid, t[i], s[i], status[i], c_index[i], son_ids)
        return bid

    number(0, 0)
    del number  # a recursive closure refers to itself; unbound, it frees `levels` on return, not at a later GC
    return BlockTree(
        blocks=blocks,
        root=0,
        admissible_leaves=[b.id for b in blocks if b.status == ADMISSIBLE],
        inadmissible_leaves=[b.id for b in blocks if b.status == INADMISSIBLE],
        kappa=kappa,
        eta1=eta1,
        eta2=eta2,
        parabolic=parabolic,
    )


def used_directions(
    tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, side: str = "row"
) -> dict[int, list[int]]:
    """Direction indices each cluster actually needs: those of its own
    admissible blocks plus the chained-down directions of its ancestors'."""
    if side not in ("row", "col"):
        raise ValueError("side must be 'row' or 'col'")
    used: dict[int, set[int]] = {}
    for bid in bt.admissible_leaves:
        b = bt[bid]
        cid = b.t if side == "row" else b.s
        used.setdefault(cid, set()).add(b.c_index)
    for cid in range(len(tree)):  # parent-first ids, chains propagate down
        cluster = tree[cid]
        if cluster.is_leaf or cid not in used:
            continue
        for c in used[cid]:
            c2 = dirs.son_index(cluster.level, c)
            for son in cluster.sons:
                used.setdefault(son, set()).add(c2)
    return {cid: sorted(cs) for cid, cs in used.items()}


@dataclass
class SparsityStats:
    row_counts: np.ndarray  # blocks (t, s) in the tree, per cluster t
    col_counts: np.ndarray
    level_max_row: list[int]
    level_mean_row: list[float]
    row_directions: np.ndarray  # distinct block directions over admissible (t, .)
    col_directions: np.ndarray


def sparsity_stats(tree: ClusterTree, bt: BlockTree) -> SparsityStats:
    n = len(tree)
    row = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    row_dirs: list[set] = [set() for _ in range(n)]
    col_dirs: list[set] = [set() for _ in range(n)]
    for b in bt.blocks:
        row[b.t] += 1
        col[b.s] += 1
        if b.status == ADMISSIBLE:
            row_dirs[b.t].add(b.c_index)
            col_dirs[b.s].add(b.c_index)
    level_max = []
    level_mean = []
    for level in range(tree.depth + 1):
        ids = tree.level_ids(level)
        counts = row[ids]
        level_max.append(int(counts.max()) if len(ids) else 0)
        level_mean.append(float(counts.mean()) if len(ids) else 0.0)
    return SparsityStats(
        row_counts=row,
        col_counts=col,
        level_max_row=level_max,
        level_mean_row=level_mean,
        row_directions=np.array([len(d) for d in row_dirs], dtype=np.int64),
        col_directions=np.array([len(d) for d in col_dirs], dtype=np.int64),
    )


def blocks_to_csv(tree: ClusterTree, bt: BlockTree) -> str:
    """Leaf structure dump: tLevel, tId, sId, status, directionIndex."""
    lines = ["tLevel,tId,sId,status,directionIndex"]
    for b in bt.blocks:
        if b.status == SUBDIVIDED:
            continue
        lines.append(f"{tree[b.t].level},{b.t},{b.s},{b.status},{b.c_index}")
    return "\n".join(lines) + "\n"
