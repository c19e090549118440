"""Per-level direction sets obtained by projecting cube-face grids to the sphere.

Level l gets directions fine enough that every unit vector is within
eta1 / (kappa * delta_l) of the set, where delta_l is the largest
support-box diameter on the level.  Coarse levels (large boxes) get many
directions, deep levels degenerate to the single zero direction, which
recovers the standard non-directional structure.

Each direction of level l maps to its nearest direction of level l + 1 (its
son): the smallest Euclidean distance to z/||z||, an exact tie (common on
the symmetric grids) going to the lexicographically smallest direction.
``nearest_direction_index`` compares only, for each axis a, the 3 x 3 cells
around z_free / |z_a| (clipped to the face, the cells moved inward at its
edge) on the face of the sign of z_a, or the whole level when m <= 3.  That
these hold every nearest direction is not proved, though it holds locally
(a direction outside them is 1.5 cells or more from that point, the cell's
own at most 0.71, at a projection scale anisotropic by at most sqrt(3));
the tests compare the search with a scan on every son map to n = 32768.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionHierarchy",
    "build_directions",
    "cube_surface_directions",
    "project_to_sphere",
    "grid_size",
    "nearest_direction_index",
    "vector_norms",
]

NEAREST_CHUNK = 1 << 15  # distances per array in nearest_direction_index
_FREE = np.array([[1, 2], [0, 2], [0, 1]])  # the free axes of the faces of each axis, in increasing order


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
    p = np.empty((3, 2, m, m, 3))  # faces x=+1, x=-1, y=+1, y=-1, z=+1, z=-1, then rows, columns
    for axis, (row, col) in enumerate(_FREE):
        p[axis, ..., axis], p[axis, ..., row], p[axis, ..., col] = [[[1.0]], [[-1.0]]], ticks[:, None], ticks
    return project_to_sphere(p.reshape(-1, 3))


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

    levels = [
        np.zeros((1, 3))
        if kappa * delta == 0.0 or 2.0 * eta1 / (kappa * delta) >= 2.0 * np.sqrt(2.0)
        else cube_surface_directions(int(np.ceil(np.sqrt(2.0) * kappa * delta / eta1)))
        for delta in deltas
    ]
    son_maps = [nearest_direction_index(levels[l + 1], levels[l]) for l in range(len(levels) - 1)]
    return DirectionHierarchy(levels=levels, son_maps=son_maps)


def grid_size(dirs) -> int | None:
    """m if dirs equals ``cube_surface_directions(m)`` as floats, 0 if it is the zero set, else None."""
    dirs, m = np.asarray(dirs, dtype=float), int(np.sqrt(np.size(dirs) / 18))
    if dirs.shape == (1, 3) and not dirs.any():
        return 0
    return m if m and np.array_equal(dirs, cube_surface_directions(m)) else None


def _grid_cells(u: np.ndarray, m: int) -> np.ndarray:
    """(27, k) indices into ``cube_surface_directions(m)``: the candidates of the (3, k) unit columns u."""
    a = np.abs(u)[:, None]
    x = np.clip(u[_FREE], -a, a) / np.where(a > 0.0, a, 1.0)
    i = np.clip(np.floor((x + 1.0) * (m / 2)), 1, m - 2).astype(np.int64)[:, :, None] + np.array([-1, 0, 1])[:, None]
    face = (2 * np.arange(3)[:, None] + (u < 0.0)) * m * m
    return (face[:, None, None] + i[:, 0, :, None] * m + i[:, 1, None, :]).reshape(27, -1)


def nearest_direction_index(dirs: np.ndarray, z):
    """Index of the direction of dirs, a cube grid or the zero set, closest to
    z/||z|| (||z|| by ``vector_norms``, the distances those of
    ``np.linalg.norm(dirs - z / ||z||, axis=1)``), for one vector z (an int)
    or each row of a (k, 3) array (int64), in chunks of ``NEAREST_CHUNK``."""
    m = grid_size(dirs)
    if m is None:
        raise ValueError(f"the {len(dirs)} directions are neither a cube-face grid nor the zero set")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != 3:
        raise ValueError("z must be a 3-vector or a (k, 3) array")
    if not np.isfinite(z).all():
        raise ValueError("a non-finite vector has no direction")
    rows = z.reshape(-1, 3)
    index = np.zeros(len(rows), dtype=np.int64)
    if m:
        nz = vector_norms(rows)
        if (nz == 0.0).any():
            raise ValueError("zero vector has no direction")
        unit, cols = (rows / nz[:, None]).T.copy(), np.asarray(dirs, dtype=float).T.copy()
        lex = np.lexsort(cols[::-1])
        rank = np.argsort(lex)
        step = max(1, NEAREST_CHUNK // (len(lex) if m <= 3 else 27))
        for start in range(0, len(rows), step):
            u = unit[:, start : start + step]
            c = np.arange(len(lex))[:, None] if m <= 3 else _grid_cells(u, m)
            dist = np.sqrt(sum(np.square(cols[a][c] - u[a]) for a in range(3)))
            index[start : start + step] = lex[np.where(dist == dist.min(axis=0), rank[c], len(lex)).min(axis=0)]
    return int(index[0]) if z.ndim == 1 else index
