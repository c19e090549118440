"""Cluster trees over point sets, one box per cluster.

Clusters come from adaptive geometric bisection: a cluster halves the
bounding box of its points across its longest side (all longest sides when
they tie, so a cube splits into octants).  Each cluster keeps that bounding
box, the smallest box holding its points (its support box B_t).  Blocks
are judged admissible on it, the kernel is interpolated on it, and the
largest support-box diameter on a level sizes that level's direction set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Cluster", "ClusterTree", "build_cluster_tree", "level_diameter", "tree_to_jsonl"]


@dataclass
class Cluster:
    id: int
    level: int
    parent: int  # -1 for the root
    index_set: np.ndarray  # sorted point indices
    support_min: np.ndarray  # bounding box of the points
    support_max: np.ndarray
    sons: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return int(self.index_set.size)

    @property
    def is_leaf(self) -> bool:
        return not self.sons


@dataclass
class ClusterTree:
    clusters: list[Cluster]
    root: int
    depth: int

    def __getitem__(self, cid: int) -> Cluster:
        return self.clusters[cid]

    def __len__(self) -> int:
        return len(self.clusters)

    def level_ids(self, level: int) -> list[int]:
        return [c.id for c in self.clusters if c.level == level]

    def center(self, cid: int) -> np.ndarray:
        """Center of the support box."""
        c = self.clusters[cid]
        return 0.5 * (c.support_min + c.support_max)

    def support_box(self, cid: int) -> tuple[np.ndarray, np.ndarray]:
        """Smallest box holding the cluster's points (the B_t on which
        admissibility is decided and the kernel interpolated)."""
        c = self.clusters[cid]
        return c.support_min, c.support_max


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

    clusters: list[Cluster] = []
    todo = [(0, -1, np.arange(points.shape[0], dtype=np.int64))]  # (level, parent, indices), next last
    while todo:
        level, parent, idx = todo.pop()
        cid, pts = len(clusters), points[idx]
        clusters.append(Cluster(cid, level, parent, np.sort(idx), pts.min(axis=0), pts.max(axis=0)))
        if parent >= 0:
            clusters[parent].sons.append(cid)
        parts = _split_box(points, idx) if idx.size > leaf_size else []
        if len(parts) > 1:  # coinciding points cannot be separated
            todo.extend((level + 1, cid, sub) for sub in reversed(parts))
    return ClusterTree(clusters=clusters, root=0, depth=max(c.level for c in clusters))


def level_diameter(tree: ClusterTree, level: int) -> float:
    """Largest Euclidean diameter of a support box on the level."""
    if level < 0 or level > tree.depth:
        raise ValueError(f"level {level} out of range 0..{tree.depth}")
    return max(float(np.linalg.norm(c.support_max - c.support_min)) for c in tree.clusters if c.level == level)


def tree_to_jsonl(tree: ClusterTree) -> str:
    """One cluster per line: id, level, parent, support box corners, index count."""
    lines = []
    for c in tree.clusters:
        lines.append(
            json.dumps(
                {
                    "id": c.id,
                    "level": c.level,
                    "parent": c.parent,
                    "box_min": c.support_min.tolist(),
                    "box_max": c.support_max.tolist(),
                    "count": c.size,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
