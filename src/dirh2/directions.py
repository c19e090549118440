"""Per-level direction sets obtained by projecting cube-face grids to the sphere.

Level l gets directions fine enough that every unit vector is within
eta1 / (kappa * delta_l) of the set, where delta_l is the largest
support-box diameter on the level.  Coarse levels (large boxes) get many
directions, deep levels degenerate to the single zero direction, which
recovers the standard non-directional structure.

Each direction of level l maps to its nearest direction of level l + 1
(its son).  Nearest means the smallest Euclidean distance to z/||z||, and
an exact tie goes to the lexicographically smallest direction; ties are
common, because the grids are symmetric.  ``nearest_direction_index``
takes all vectors of a level at once, a son map or the admissible blocks
of one block-tree level, and gives each the index a search of that one
vector gives.
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
    "vector_norms",
]

NEAREST_CHUNK = 1 << 18  # distances per array in nearest_direction_index


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


def vector_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis of v, each with the bits of
    ``np.linalg.norm`` of that one vector: the square root of numpy's dot
    product of the vector with itself (a BLAS dot, not a pairwise sum)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def project_to_sphere(v) -> np.ndarray:
    """v / ||v|| for one vector or for each row of an array, with the norms
    of ``vector_norms``."""
    v = np.asarray(v, dtype=float)
    norms = vector_norms(v)
    if (norms < 1e-12).any():
        raise ValueError("cannot project a (near-)zero vector")
    return v / norms[..., None]


def cube_surface_directions(m: int) -> np.ndarray:
    """Midpoints of an m-by-m grid on each face of [-1,1]^3, projected to the
    unit sphere.  Fixed face-major, row-major ordering."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ticks = -1.0 + (2.0 * np.arange(m) + 1.0) / m
    faces = []
    # faces: x=+1, x=-1, y=+1, y=-1, z=+1, z=-1; free axes in increasing order
    for axis, sign in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)):
        free = [a for a in range(3) if a != axis]
        p = np.empty((m * m, 3))
        p[:, axis] = sign
        p[:, free[0]] = np.repeat(ticks, m)
        p[:, free[1]] = np.tile(ticks, m)
        faces.append(p)
    return project_to_sphere(np.concatenate(faces))


def _zero_set() -> np.ndarray:
    return np.zeros((1, 3))


def build_directions(level_diameters, kappa: float, eta1: float) -> DirectionHierarchy:
    """Direction sets plus nearest-neighbor son maps for every level.

    A level degenerates to {0} once a single grid square of the admissible
    diagonal 2*eta1/(kappa*delta) covers a whole cube face, and so does a
    level of diameter 0 (point-sized clusters); otherwise the faces are
    split into the smallest grid meeting that diagonal.
    """
    if not (np.isfinite(eta1) and eta1 > 0.0):
        raise ValueError("eta1 must be finite and > 0")
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be finite and >= 0")
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

    son_maps = [nearest_direction_index(levels[l + 1], levels[l]) for l in range(len(levels) - 1)]
    return DirectionHierarchy(levels=levels, son_maps=son_maps)


def nearest_direction_index(dirs: np.ndarray, z):
    """Index of the direction closest to z/||z||, for one vector z (an int)
    or for each row of a (k, 3) array (an int64 array).

    ||z|| is taken by ``vector_norms``, and the distances are those of
    ``np.linalg.norm(dirs - z / ||z||, axis=1)``: sqrt((dx*dx + dy*dy) +
    dz*dz).  Ties break to the lexicographically smallest direction, and
    among equal directions to the first.  Rows are taken in chunks of
    ``NEAREST_CHUNK`` distances, so no temporary grows with len(z) *
    len(dirs).
    """
    dirs = np.asarray(dirs, dtype=float)
    if dirs.size == 0:
        raise ValueError("empty direction set")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != 3:
        raise ValueError("z must be a 3-vector or a (k, 3) array")
    if not np.isfinite(z).all():
        raise ValueError("a non-finite vector has no direction")
    rows = z.reshape(-1, 3)
    index = np.zeros(len(rows), dtype=np.int64)
    if not (dirs.shape[0] == 1 and not dirs[0].any()):
        nz = vector_norms(rows)
        if (nz == 0.0).any():
            raise ValueError("zero vector has no direction")
        unit = rows / nz[:, None]
        lex = np.lexsort((dirs[:, 2], dirs[:, 1], dirs[:, 0]))
        rank = np.empty(len(dirs), dtype=np.int64)
        rank[lex] = np.arange(len(dirs))
        step = max(1, NEAREST_CHUNK // len(dirs))
        for start in range(0, len(rows), step):
            u = unit[start : start + step]
            dist = np.square(dirs[:, 0] - u[:, 0, None])
            dist += np.square(dirs[:, 1] - u[:, 1, None])
            dist += np.square(dirs[:, 2] - u[:, 2, None])
            np.sqrt(dist, out=dist)
            tied = dist == dist.min(axis=1, keepdims=True)
            index[start : start + step] = np.where(tied, rank, len(dirs)).argmin(axis=1)
    return int(index[0]) if z.ndim == 1 else index
