"""Cluster trees over point sets with per-level translation-equivalent boxes.

Clusters come from adaptive geometric bisection: a cluster halves the
bounding box of its points across its longest side (all longest sides when
they tie, so a cube splits into octants).  Every cluster keeps the cell it
was carved from; after construction the cell boxes are padded per level to
a common extent, so all level-l boxes are translates of one reference box;
their diameters size the direction sets.  Each cluster also keeps the
bounding box that just encloses its points (its support box), on which
blocks are judged admissible and the kernel is interpolated.  Optional
per-point support radii widen both kinds of box so basis-function supports
fit.
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
    cell_min: np.ndarray
    cell_max: np.ndarray
    support_min: np.ndarray  # bounding box of the points widened by their radii
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
    level_extents: np.ndarray  # (depth+1, 3) padded box extent per level

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

    def box(self, cid: int) -> tuple[np.ndarray, np.ndarray]:
        """Padded, translation-equivalent box of the cluster's cell."""
        c = self.clusters[cid]
        half = 0.5 * self.level_extents[c.level]
        mid = 0.5 * (c.cell_min + c.cell_max)
        return mid - half, mid + half

    def support_box(self, cid: int) -> tuple[np.ndarray, np.ndarray]:
        """Smallest box holding the cluster's supports (the B_t on which
        admissibility is decided and the kernel interpolated); it lies
        inside ``box(cid)``."""
        c = self.clusters[cid]
        return c.support_min, c.support_max


def _split_box(points, idx):
    """Bisect the bounding box of the points across its longest side, or
    across all longest sides when they tie (a cube yields eight octants).
    Ties on a plane go to the lower side.  Returns (indices, cell_min,
    cell_max) for each nonempty part."""
    pts = points[idx]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    ext = hi - lo
    axes = ext == ext.max()
    mid = 0.5 * (lo + hi)
    upper = (pts > mid[None, :]) & axes[None, :]  # p <= mid stays in the lower part
    part = upper[:, 0] * 4 + upper[:, 1] * 2 + upper[:, 2] * 1
    cells = []
    for o in range(8):
        sub = idx[part == o]
        if sub.size == 0:
            continue
        bits = np.array([(o >> 2) & 1, (o >> 1) & 1, o & 1], dtype=bool)
        cells.append((sub, np.where(axes & bits, mid, lo), np.where(axes & ~bits, mid, hi)))
    return cells


def build_cluster_tree(points, leaf_size: int, support_radii=None) -> ClusterTree:
    """Adaptive bisection stopping at clusters of at most ``leaf_size`` indices.

    The root cell is the bounding cube of the points.  A cluster splits the
    bounding box of its points at the midpoints of its longest sides
    (``_split_box``) and keeps the nonempty parts as sons with those parts as
    their cells.  Unless the points coincide, the lowest and highest points
    on a longest side land in different parts, so no cluster ever has
    exactly one son; clusters whose points cannot be separated become leaves
    regardless of size.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, 3) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if support_radii is None:
        support_radii = np.zeros(points.shape[0])
    support_radii = np.asarray(support_radii, dtype=float)

    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = 0.5 * (lo + hi)
    side = float((hi - lo).max())
    root_min = center - 0.5 * side
    root_max = center + 0.5 * side

    clusters: list[Cluster] = []

    def add(level, parent, idx, cmin, cmax) -> int:
        cid = len(clusters)
        radii = support_radii[idx][:, None]
        clusters.append(
            Cluster(
                id=cid,
                level=level,
                parent=parent,
                index_set=np.sort(idx),
                cell_min=np.array(cmin, dtype=float),
                cell_max=np.array(cmax, dtype=float),
                support_min=(points[idx] - radii).min(axis=0),
                support_max=(points[idx] + radii).max(axis=0),
            )
        )
        return cid

    def build(level, parent, idx, cmin, cmax) -> int:
        cid = add(level, parent, idx, cmin, cmax)
        if idx.size <= leaf_size:
            return cid
        cells = _split_box(points, idx)
        if len(cells) < 2:
            return cid  # coinciding points cannot be separated
        for sub, smin, smax in cells:
            son = build(level + 1, cid, sub, smin, smax)
            clusters[cid].sons.append(son)
        return cid

    root = build(0, -1, np.arange(points.shape[0], dtype=np.int64), root_min, root_max)
    depth = max(c.level for c in clusters)

    extents = np.zeros((depth + 1, 3))
    radius = np.zeros(depth + 1)
    for c in clusters:
        extents[c.level] = np.maximum(extents[c.level], c.cell_max - c.cell_min)
        if c.index_set.size:
            radius[c.level] = max(radius[c.level], float(support_radii[c.index_set].max()))
    extents += 2.0 * radius[:, None]

    return ClusterTree(clusters=clusters, root=root, depth=depth, level_extents=extents)


def level_diameter(tree: ClusterTree, level: int) -> float:
    """Euclidean diameter of the common (padded) level box."""
    if level < 0 or level > tree.depth:
        raise ValueError(f"level {level} out of range 0..{tree.depth}")
    return float(np.linalg.norm(tree.level_extents[level]))


def tree_to_jsonl(tree: ClusterTree) -> str:
    """One cluster per line: id, level, parent, padded box corners, index count."""
    lines = []
    for c in tree.clusters:
        bmin, bmax = tree.box(c.id)
        lines.append(
            json.dumps(
                {
                    "id": c.id,
                    "level": c.level,
                    "parent": c.parent,
                    "box_min": bmin.tolist(),
                    "box_max": bmax.tolist(),
                    "count": c.size,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
