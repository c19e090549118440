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
line between the box centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterTree
from .directions import DirectionHierarchy, nearest_direction_index

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


def box_distance(bmin_t, bmax_t, bmin_s, bmax_s) -> float:
    gap = np.maximum(0.0, np.maximum(bmin_t - bmax_s, bmin_s - bmax_t))
    return float(np.linalg.norm(gap))


def box_diameter(bmin, bmax) -> float:
    return float(np.linalg.norm(np.asarray(bmax) - np.asarray(bmin)))


def is_admissible(box_t, box_s, kappa: float, eta2: float, parabolic: bool = True) -> bool:
    dist = box_distance(box_t[0], box_t[1], box_s[0], box_s[1])
    if dist <= 0.0:  # touching boxes, even point-sized ones, share a singularity
        return False
    diam = max(box_diameter(*box_t), box_diameter(*box_s))
    if diam > eta2 * dist:
        return False
    if parabolic and kappa * diam * diam > eta2 * dist:
        return False
    return True


def build_block_tree(
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    kappa: float,
    eta1: float,
    eta2: float,
    parabolic: bool = True,
) -> BlockTree:
    """Recursive descent from the root pair, subdividing only inadmissible
    pairs whose clusters both have sons."""
    if dirs.depth < tree.depth:
        raise ValueError("direction hierarchy is shallower than the cluster tree")

    blocks: list[Block] = []
    admissible: list[int] = []
    inadmissible: list[int] = []

    def descend(t: int, s: int) -> int:
        bid = len(blocks)
        blocks.append(Block(id=bid, t=t, s=s, status=SUBDIVIDED))
        ct, cs = tree[t], tree[s]
        if is_admissible(tree.support_box(t), tree.support_box(s), kappa, eta2, parabolic):
            level_dirs = dirs.levels[ct.level]
            blocks[bid].status = ADMISSIBLE
            blocks[bid].c_index = nearest_direction_index(
                level_dirs, tree.center(t) - tree.center(s)
            )
            admissible.append(bid)
        elif ct.is_leaf or cs.is_leaf:
            blocks[bid].status = INADMISSIBLE
            inadmissible.append(bid)
        else:
            for t2 in ct.sons:
                for s2 in cs.sons:
                    blocks[bid].sons.append(descend(t2, s2))
        return bid

    root = descend(tree.root, tree.root)
    return BlockTree(
        blocks=blocks,
        root=root,
        admissible_leaves=admissible,
        inadmissible_leaves=inadmissible,
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
