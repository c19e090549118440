"""Cluster trees over point sets, one box per cluster, held in arrays.

Clusters come from adaptive geometric bisection: a cluster halves the
bounding box of its points across its longest side (all longest sides when
they tie, so a cube splits into octants).  Each cluster keeps that bounding
box, the smallest box holding its points (its support box B_t).  Blocks
are judged admissible on it, the kernel is interpolated on it, and the
largest support-box diameter on a level sizes that level's direction set.

A ``ClusterTree`` holds read-only arrays in id order: each cluster's level
and parent (-1 for the root), the son lists and the sorted index sets as
CSR pairs (``son_ptr`` / ``sons`` and ``set_ptr`` / ``sets``) and the
(C, 3) box corners ``bmin`` / ``bmax``.  ``sons_of(c)`` gives a cluster's
sons as Python ints and ``index_set(c)`` a view of its index set, both cut
once when the tree is made.  ``ClusterTree.from_sons`` makes a built and a
loaded tree alike from the son lists and the leaves' index sets and boxes:
it derives the parents, levels and depth, and each inner cluster's index
set and box as the sorted union and the hull of its sons', which is the
sorted index set and the support box of the points below it.  The basis
passes visit sons before parents in descending id, and read a cluster's
sons as one ascending run, so below the root every son has a larger id than
its parent and every son list is ascending; ``build_cluster_tree`` numbers
depth first, a cluster before its sons, and ``from_sons`` rejects any other
numbering.
``tree[cid]`` makes a read-only ``Cluster`` record when it is read; the
library reads the arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .directions import vector_norms

__all__ = ["Cluster", "ClusterTree", "build_cluster_tree", "level_diameter", "tree_to_jsonl"]


class Cluster(NamedTuple):
    """One cluster of a ``ClusterTree`` as Python values and read-only views."""

    id: int
    level: int
    parent: int  # -1 for the root
    index_set: np.ndarray  # sorted point indices
    support_min: np.ndarray  # bounding box of the points
    support_max: np.ndarray
    sons: list[int]

    @property
    def size(self) -> int:
        return int(self.index_set.size)

    @property
    def is_leaf(self) -> bool:
        return not self.sons


@dataclass(frozen=True, eq=False)
class ClusterTree:
    """The clusters as read-only arrays in id order; see the module docstring.
    Two trees are equal only if they are one object."""

    level: np.ndarray
    parent: np.ndarray
    son_ptr: np.ndarray
    sons: np.ndarray
    set_ptr: np.ndarray
    sets: np.ndarray
    bmin: np.ndarray
    bmax: np.ndarray
    depth: int
    root: int = 0
    # (index-set view, son tuple) per cluster: the phase plans and the basis
    # expansions read them once per key, and slicing the arrays each time
    # made the compression of apply-dir2048 about 1 % slower
    _runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        sons, ptr = self.sons.tolist(), self.son_ptr.tolist()
        runs = zip(np.split(self.sets, self.set_ptr[1:-1]), (tuple(sons[a:b]) for a, b in zip(ptr, ptr[1:])))
        object.__setattr__(self, "_runs", tuple(runs))

    def __getitem__(self, cid: int) -> Cluster:
        cid = range(len(self))[cid]
        values = int(self.level[cid]), int(self.parent[cid]), self.index_set(cid), self.bmin[cid], self.bmax[cid]
        return Cluster(cid, *values, list(self.sons_of(cid)))

    def __len__(self) -> int:
        return len(self.level)

    def index_set(self, cid: int) -> np.ndarray:
        """The cluster's sorted point indices, a view of ``sets``."""
        return self._runs[cid][0]

    def sons_of(self, cid: int) -> tuple:
        """The cluster's sons in order, as Python ints."""
        return self._runs[cid][1]

    @classmethod
    def from_sons(cls, sons: list, leaf_sets: list, leaf_min: np.ndarray, leaf_max: np.ndarray) -> ClusterTree:
        """The tree of each cluster's son list and of the leaves' index sets
        and support boxes, in id order; its root is the one cluster that is no
        son.  Each inner cluster gets the sorted union of its sons' index sets
        and the hull of their boxes.  A one-line ValueError unless every other
        cluster is named by one son list and reached from the root, the
        numbering is one the module docstring allows, and the leaves' lists
        hold one entry per leaf."""
        count, son_ptr = len(sons), np.cumsum([0] + [len(x) for x in sons])
        son_ids = np.array([s for x in sons for s in x], dtype=np.int64)
        parent, level = np.full(count, -1, dtype=np.int64), np.full(count, -1, dtype=np.int64)
        if son_ids.size == count - 1 and np.isin(np.arange(count), son_ids).sum() == count - 1:  # one parent each
            parent[son_ids] = np.repeat(np.arange(count), np.diff(son_ptr))
            at, depth = np.flatnonzero(parent < 0), -1
            while at.size:  # ends, as a cluster reached from the root has no second parent
                depth += 1
                level[at] = depth
                at = np.flatnonzero(np.isin(parent, at))
        if not count or (level < 0).any():  # a cycle of sons stays unreached
            raise ValueError("the clusters' son lists do not form a tree")
        root, owner = int(np.flatnonzero(parent < 0)[0]), parent[son_ids]
        early = son_ids[(son_ids < owner) & (owner != root)]
        if early.size:
            raise ValueError(f"cluster {early[0]} has a smaller id than its parent {parent[early[0]]}")
        unsorted = owner[1:][(np.diff(son_ids) < 0) & (np.diff(owner) == 0)]
        if unsorted.size:
            raise ValueError(f"the sons of cluster {unsorted[0]} are not in ascending id order")
        leaves = np.flatnonzero(np.diff(son_ptr) == 0)
        if not len(leaf_sets) == len(leaf_min) == len(leaf_max) == leaves.size:
            raise ValueError(f"the tree has {leaves.size} leaves, but {len(leaf_sets)} leaf index sets and boxes")
        sets, bmin, bmax = [None] * count, np.empty((count, 3)), np.empty((count, 3))
        for cid, leaf_set in zip(leaves.tolist(), leaf_sets):
            sets[cid] = leaf_set
        bmin[leaves], bmax[leaves] = leaf_min, leaf_max
        for cid in np.argsort(-level, kind="stable").tolist():  # sons before their parents
            below = son_ids[son_ptr[cid] : son_ptr[cid + 1]]
            if below.size:
                sets[cid] = np.sort(np.concatenate([sets[son] for son in below.tolist()]))
                bmin[cid], bmax[cid] = bmin[below].min(axis=0), bmax[below].max(axis=0)
        set_ptr = np.cumsum([0] + [len(x) for x in sets])
        return cls(level, parent, son_ptr, son_ids, set_ptr, np.concatenate(sets), bmin, bmax, depth, root)


def _split_box(points, idx):
    """Bisect the bounding box of the points across its longest side, or
    across all longest sides when they tie (a cube yields eight octants).
    Ties on a plane go to the lower side.  Returns the indices of each
    nonempty part."""
    pts = points[idx]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    ext = hi - lo
    axes = ext == ext.max()
    mid = 0.5 * (lo + hi)
    upper = (pts > mid[None, :]) & axes[None, :]  # p <= mid stays in the lower part
    part = upper[:, 0] * 4 + upper[:, 1] * 2 + upper[:, 2] * 1
    parts = (idx[part == o] for o in range(8))
    return [sub for sub in parts if sub.size]


def build_cluster_tree(points, leaf_size: int) -> ClusterTree:
    """Adaptive bisection stopping at clusters of at most ``leaf_size`` indices.

    A cluster splits the bounding box of its points at the midpoints of its
    longest sides (``_split_box``) and keeps the nonempty parts as sons.
    Unless the points coincide, the lowest and highest points on a longest
    side land in different parts, so no cluster ever has exactly one son;
    clusters whose points cannot be separated become leaves regardless of
    size.  Clusters are numbered depth first, a cluster before its sons.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, 3) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")

    sons: list[list] = []
    leaves: list[tuple] = []  # (index set, support box corners) of each leaf, in id order
    todo = [(-1, np.arange(points.shape[0], dtype=np.int64))]  # (parent, indices), next last
    while todo:
        parent, idx = todo.pop()
        cid = len(sons)
        sons.append([])
        if parent >= 0:
            sons[parent].append(cid)
        parts = _split_box(points, idx) if idx.size > leaf_size else []
        if len(parts) > 1:  # coinciding points cannot be separated
            todo.extend((cid, sub) for sub in reversed(parts))
        else:
            pts = points[idx]
            leaves.append((np.sort(idx), pts.min(axis=0), pts.max(axis=0)))
    sets, bmin, bmax = zip(*leaves)
    return ClusterTree.from_sons(sons, sets, np.array(bmin), np.array(bmax))


def level_diameter(tree: ClusterTree, level: int) -> float:
    """Largest Euclidean diameter of a support box on the level."""
    if level < 0 or level > tree.depth:
        raise ValueError(f"level {level} out of range 0..{tree.depth}")
    at = tree.level == level
    return float(vector_norms(tree.bmax[at] - tree.bmin[at]).max())


def tree_to_jsonl(tree: ClusterTree) -> str:
    """One cluster per line: id, level, parent, support box corners, index count."""
    columns = zip(*(x.tolist() for x in (tree.level, tree.parent, tree.bmin, tree.bmax, np.diff(tree.set_ptr))))
    lines = [
        json.dumps({"id": i, "level": l, "parent": p, "box_min": lo, "box_max": hi, "count": k}, sort_keys=True)
        for i, (l, p, lo, hi, k) in enumerate(columns)
    ]
    return "\n".join(lines) + "\n"
