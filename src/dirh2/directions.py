"""Per-level direction sets obtained by projecting cube-face grids to the sphere.

Level l gets directions fine enough that every unit vector is within
eta1 / (kappa * delta_l) of the set, where delta_l is the largest
support-box diameter on the level.  Coarse levels (large boxes) get many
directions, deep levels degenerate to the single zero direction, which
recovers the standard non-directional structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionHierarchy",
    "build_directions",
    "cube_surface_directions",
    "project_to_sphere",
    "nearest_direction_index",
]


@dataclass
class DirectionHierarchy:
    levels: list[np.ndarray]  # levels[l] has shape (m_l, 3); unit rows or a single zero row
    son_maps: list[np.ndarray]  # son_maps[l] maps indices of levels[l] into levels[l+1]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def count(self, level: int) -> int:
        return self.levels[level].shape[0]

    def son_index(self, level: int, c_index: int) -> int:
        return int(self.son_maps[level][c_index])


def project_to_sphere(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot project a (near-)zero vector")
    return v / n


def cube_surface_directions(m: int) -> np.ndarray:
    """Midpoints of an m-by-m grid on each face of [-1,1]^3, projected to the
    unit sphere.  Fixed face-major, row-major ordering."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ticks = -1.0 + (2.0 * np.arange(m) + 1.0) / m
    dirs = []
    # faces: x=+1, x=-1, y=+1, y=-1, z=+1, z=-1; free axes in increasing order
    for axis, sign in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)):
        free = [a for a in range(3) if a != axis]
        for u in ticks:
            for v in ticks:
                p = np.empty(3)
                p[axis] = sign
                p[free[0]] = u
                p[free[1]] = v
                dirs.append(project_to_sphere(p))
    return np.array(dirs)


def _zero_set() -> np.ndarray:
    return np.zeros((1, 3))


def build_directions(level_diameters, kappa: float, eta1: float) -> DirectionHierarchy:
    """Direction sets plus nearest-neighbor son maps for every level.

    A level degenerates to {0} once a single grid square of the admissible
    diagonal 2*eta1/(kappa*delta) covers a whole cube face, and so does a
    level of diameter 0 (point-sized clusters); otherwise the faces are
    split into the smallest grid meeting that diagonal.
    """
    if eta1 <= 0.0:
        raise ValueError("eta1 must be positive")
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    deltas = np.asarray(level_diameters, dtype=float)
    if not np.isfinite(deltas).all() or (deltas < 0.0).any():
        raise ValueError("level diameters must be finite and >= 0")

    levels = []
    for delta in deltas:
        if kappa * delta == 0.0 or 2.0 * eta1 / (kappa * delta) >= 2.0 * np.sqrt(2.0):
            levels.append(_zero_set())
        else:
            m = int(np.ceil(np.sqrt(2.0) * kappa * delta / eta1))
            levels.append(cube_surface_directions(m))

    son_maps = [
        np.array(
            [nearest_direction_index(levels[l + 1], c) for c in levels[l]],
            dtype=np.int64,
        )
        for l in range(len(levels) - 1)
    ]
    return DirectionHierarchy(levels=levels, son_maps=son_maps)


def nearest_direction_index(dirs: np.ndarray, z) -> int:
    """Index of the direction closest to z/||z||; ties break to the
    lexicographically smallest direction."""
    dirs = np.asarray(dirs, dtype=float)
    if dirs.size == 0:
        raise ValueError("empty direction set")
    if dirs.shape[0] == 1 and not dirs[0].any():
        return 0
    z = np.asarray(z, dtype=float)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise ValueError("zero vector has no direction")
    dist = np.linalg.norm(dirs - z / nz, axis=1)
    best = np.nonzero(dist == dist.min())[0]
    if best.size == 1:
        return int(best[0])
    order = np.lexsort((dirs[best, 2], dirs[best, 1], dirs[best, 0]))
    return int(best[order[0]])
