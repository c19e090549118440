"""Minimal admissible block trees, held in arrays, and their sparsity statistics.

A block pairs two same-level clusters.  It becomes an admissible leaf when
the parabolic and standard conditions hold,

    kappa * max(diam_t, diam_s)^2 <= eta2 * dist(B_t, B_s)
    max(diam_t, diam_s)           <= eta2 * dist(B_t, B_s),
    dist(B_t, B_s)                 > 0,

an inadmissible leaf when either cluster cannot be subdivided further, and
is split into all son pairs otherwise.  B_t is the cluster's support box,
the smallest box holding its points.
Admissible leaves carry the index of the level direction closest to the
unit vector from the center of B_s to that of B_t, an exact tie going to
the lexicographically smallest direction.

``build_block_tree`` decides all pairs of one level at once: the box
functions and ``is_admissible`` take arrays of boxes as well as single
boxes, with one rule for both, and the directions of a level's admissible
blocks come from one ``directions.nearest_direction_index`` call, which
compares at most 27 grid cells per block (the whole level when it holds
at most 54 directions).  Distances and diameters are the norms of
``directions.vector_norms``, which are those of ``np.linalg.norm`` on each
single vector.

A ``BlockTree`` holds per-block arrays (clusters t and s, status code,
direction index or -1, level) and the ascending ids of the admissible and
inadmissible leaves.  Blocks are numbered depth first (a block, then the
blocks of its first son pair, then of the next), so the root pair is block
0, and without recursion: subtree sizes bottom-up, then ids top-down.  No
son lists are stored: a subdivided block's sons are the blocks that follow
it in depth-first order, the pairs (sons of t) x (sons of s) in turn, each
followed by its own subtree.  So the status codes in id order give every
block's clusters, which ``BlockTree.from_statuses`` derives for a loaded
tree.  ``bt[bid]`` and ``bt.blocks`` make read-only ``Block`` records of
Python values when they are read; the library reads the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    "sparsity_stats",
    "SparsityStats",
    "blocks_to_csv",
]

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
SUBDIVIDED = "subdivided"
STATUSES = (ADMISSIBLE, INADMISSIBLE, SUBDIVIDED)  # the names of the status codes
_ADMISSIBLE, _INADMISSIBLE, _SUBDIVIDED = range(3)


class Block(NamedTuple):
    """One block of a ``BlockTree`` as Python values."""

    id: int
    t: int
    s: int
    status: str
    c_index: int  # direction index at the block's level; -1 unless admissible


@dataclass(frozen=True, eq=False)
class BlockTree:
    """The blocks as read-only arrays in depth-first id order; see the module
    docstring.  Two block trees are equal only if they are one object."""

    t: np.ndarray
    s: np.ndarray
    status: np.ndarray
    c_index: np.ndarray
    level: np.ndarray
    kappa: float
    eta1: float
    eta2: float
    parabolic: bool
    admissible_leaves: np.ndarray = field(init=False)
    inadmissible_leaves: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "admissible_leaves", np.flatnonzero(self.status == _ADMISSIBLE))
        object.__setattr__(self, "inadmissible_leaves", np.flatnonzero(self.status == _INADMISSIBLE))
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @classmethod
    def from_statuses(cls, tree: ClusterTree, status: np.ndarray, c_index: np.ndarray, *parameters) -> BlockTree:
        """The blocks of the status codes and direction indices in id order,
        and of ``kappa, eta1, eta2, parabolic``: the depth-first expansion of
        the root pair gives each block's clusters.  A one-line ValueError if a
        subdivided block's clusters have no son pairs, or the expansion ends
        before the last block or after it."""
        pairs, todo = [], [(tree.root, tree.root)]  # the pairs to come, next last
        for bid, code in enumerate(status.tolist()):
            if not todo:
                raise ValueError(f"block {bid} follows the end of the depth-first expansion of the root pair")
            t, s = todo.pop()
            pairs.append((t, s))
            if code == _SUBDIVIDED:
                sons = [(t2, s2) for t2 in tree.sons_of(t) for s2 in tree.sons_of(s)]
                if not sons:
                    raise ValueError(f"block {bid} is subdivided, but clusters ({t}, {s}) have no son pairs")
                todo.extend(reversed(sons))
        if todo:
            raise ValueError(f"the blocks end before the pair {todo[-1]} of the depth-first expansion")
        t, s = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
        return cls(t, s, status, c_index, tree.level[t], *parameters)

    def __getitem__(self, bid: int) -> Block:
        bid = range(len(self))[bid]
        return Block(bid, int(self.t[bid]), int(self.s[bid]), STATUSES[self.status[bid]], int(self.c_index[bid]))

    def __len__(self) -> int:
        return len(self.t)

    def entries(self, ids: np.ndarray):
        """(id, t, s, c_index) of each block of ``ids``, as Python ints."""
        return zip(ids.tolist(), self.t[ids].tolist(), self.s[ids].tolist(), self.c_index[ids].tolist())

    @property
    def blocks(self) -> list[Block]:
        """Every block's record, made anew on each access."""
        return [self[bid] for bid in range(len(self))]


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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[i], ..., starts[i] + counts[i] - 1, side by side."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def build_block_tree(
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    kappa: float,
    eta1: float,
    eta2: float,
    parabolic: bool = True,
) -> BlockTree:
    """Descent from the root pair, subdividing only inadmissible pairs whose
    clusters both have sons.  The pairs of one level are decided together,
    son pairs following their parent as (sons of t) x (sons of s)."""
    if dirs.depth < tree.depth:
        raise ValueError("direction hierarchy is shallower than the cluster tree")
    for name, value in (("eta1", eta1), ("eta2", eta2)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be finite and >= 0")

    bmin, bmax, center, n_sons = tree.bmin, tree.bmax, 0.5 * (tree.bmin + tree.bmax), np.diff(tree.son_ptr)

    # per level: the pairs (t, s), their status code and direction index, and
    # how many son pairs each has in the next level, where they lie side by side
    levels = []
    t = s = np.array([tree.root], dtype=np.int64)
    while t.size:
        admissible = is_admissible((bmin[t], bmax[t]), (bmin[s], bmax[s]), kappa, eta2, parabolic)
        c_index = np.full(t.size, -1, dtype=np.int64)
        if admissible.any():
            c_index[admissible] = nearest_direction_index(
                dirs.levels[len(levels)], center[t[admissible]] - center[s[admissible]]
            )
        split = ~admissible & (n_sons[t] > 0) & (n_sons[s] > 0)
        status = np.where(admissible, _ADMISSIBLE, np.where(split, _SUBDIVIDED, _INADMISSIBLE)).astype(np.int8)
        count = np.where(split, n_sons[t] * n_sons[s], 0)
        levels.append((t, s, status, c_index, count))
        # son pair k of pair i: son k // n_s of t_i with son k % n_s of s_i
        parent = np.repeat(np.arange(t.size), count)
        k = _ranges(np.zeros(t.size, dtype=np.int64), count)
        n_s = n_sons[s[parent]]
        t, s = tree.sons[tree.son_ptr[t[parent]] + k // n_s], tree.sons[tree.son_ptr[s[parent]] + k % n_s]

    # below[l][i]: blocks in the subtrees of level l's pairs before pair i; a
    # son pair's id is its parent's + 1 + the subtrees of the son pairs before it
    below = [np.zeros(1, dtype=np.int64)]
    for *_, count in reversed(levels):
        end = np.cumsum(count)
        below.insert(0, np.concatenate([[0], np.cumsum(1 + below[0][end] - below[0][end - count])]))
    ids = [np.zeros(1, dtype=np.int64)]
    for (*_, count), before in zip(levels, below[1:]):
        ids.append(np.repeat(ids[-1] + 1 - before[np.cumsum(count) - count], count) + before[:-1])

    arrays = [np.empty(below[0][-1], dtype=x.dtype) for x in (*levels[0][:4], below[0])]  # and int64 levels
    for l, (bid, (*pairs, _)) in enumerate(zip(ids, levels)):
        for out, values in zip(arrays, (*pairs, l)):
            out[bid] = values
    return BlockTree(*arrays, kappa, eta1, eta2, parabolic)


@dataclass
class SparsityStats:
    row_counts: np.ndarray  # blocks (t, s) in the tree, per cluster t
    col_counts: np.ndarray
    level_max_row: list[int]
    level_mean_row: list[float]
    row_directions: np.ndarray  # distinct block directions over admissible (t, .)
    col_directions: np.ndarray


def sparsity_stats(tree: ClusterTree, bt: BlockTree) -> SparsityStats:
    n, adm, width = len(tree), bt.admissible_leaves, int(bt.c_index.max(initial=0)) + 1

    def directions(cid: np.ndarray) -> np.ndarray:  # distinct directions per cluster
        return np.bincount(np.unique(cid[adm] * width + bt.c_index[adm]) // width, minlength=n)

    row = np.bincount(bt.t, minlength=n)
    per_level = [row[tree.level == l] for l in range(tree.depth + 1)]
    return SparsityStats(
        row_counts=row,
        col_counts=np.bincount(bt.s, minlength=n),
        level_max_row=[int(x.max(initial=0)) for x in per_level],
        level_mean_row=[float(x.mean()) if x.size else 0.0 for x in per_level],
        row_directions=directions(bt.t),
        col_directions=directions(bt.s),
    )


def blocks_to_csv(tree: ClusterTree, bt: BlockTree) -> str:
    """Leaf structure dump: tLevel, tId, sId, status, directionIndex."""
    leaves = np.flatnonzero(bt.status != _SUBDIVIDED)
    rows = zip(*(x[leaves].tolist() for x in (bt.level, bt.t, bt.s, bt.status, bt.c_index)))
    lines = ["tLevel,tId,sId,status,directionIndex"]
    lines += [f"{level},{t},{s},{STATUSES[k]},{c}" for level, t, s, k, c in rows]
    return "\n".join(lines) + "\n"
