"""Unit-sphere triangle meshes and Helmholtz layer-potential kernels.

The dense matrix built here is the reference object every approximation in
this package is measured against.  It uses a one-point midpoint rule per
triangle, so entries are cheap and fully reproducible; the diagonal uses an
equivalent-disk rule for the single layer and a flat-panel limit for the
double layer.  ``dense_block`` evaluates a block in real arithmetic on
(rows, cols) arrays, one cos and one sin per entry, and its docstring fixes
the order of every sum and product, so a block has the same bits however
it is cut out of the matrix.

``dense_block`` runs two steps: the part of an entry that depends on r
alone (r, cos and sin of kappa*r, 1/(4*pi*r) and the double layer's
(1 - i*kappa*r)/r**2), then dn and the two area products.
``assemble_dense_matrix`` runs the same steps on square tiles, the first
once per unordered pair of tiles (I, J) for both (I, J) and (J, I).
x_i - x_j is exactly -(x_j - x_i), so that part is bitwise symmetric, and
the matrix has ``dense_block``'s bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import cut_in_two

__all__ = [
    "SurfaceMesh",
    "KernelSpec",
    "build_sphere_mesh",
    "kernel_value",
    "directional_kernel_value",
    "assemble_dense_matrix",
    "dense_block",
    "mesh_to_off",
    "write_off",
]

# side of assemble_dense_matrix's square tiles, in indices; the temporaries of
# a tile pair are up to ten (side, side) float arrays, 1.25 MiB at 128
ASSEMBLY_CHUNK = 128

_OCTAHEDRON_VERTICES = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)

# Faces of {|x|+|y|+|z|=1}, ordered counter-clockwise seen from outside.
_OCTAHEDRON_FACES = [
    (0, 2, 4),
    (2, 1, 4),
    (1, 3, 4),
    (3, 0, 4),
    (2, 0, 5),
    (1, 2, 5),
    (3, 1, 5),
    (0, 3, 5),
]


@dataclass
class SurfaceMesh:
    vertices: np.ndarray  # (nv, 3), all on the unit sphere
    triangles: np.ndarray  # (nt, 3) vertex indices
    midpoints: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    normals: np.ndarray = field(init=False)

    def __post_init__(self):
        corners = self.vertices[self.triangles]  # (nt, 3, 3)
        self.midpoints = corners.mean(axis=1)
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        self.areas = 0.5 * norms
        self.normals = cross / norms[:, None]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class KernelSpec:
    """kind is 'slp' or 'dlp'; 'dlp' means the combined operator M/2 + DLP."""

    kind: str
    kappa: float

    def __post_init__(self):
        if self.kind not in ("slp", "dlp"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not np.isfinite(self.kappa) or self.kappa < 0.0:
            raise ValueError("wave number must be finite and >= 0")


def build_sphere_mesh(level: int) -> SurfaceMesh:
    """Octahedron refined ``level`` times by midpoint subdivision, vertices
    shifted to the unit sphere.  Yields 8 * 4**level triangles.

    Triangles are indexed in depth-first order with children ordered
    (corner0, corner1, corner2, center), and vertices by first use; the
    faces of a level are refined at once, each face's children side by side.
    """
    if level < 0 or level > 8:
        raise ValueError("level must be in 0..8")
    corners = _OCTAHEDRON_VERTICES[np.array(_OCTAHEDRON_FACES)]  # (faces, 3, 3)
    for _ in range(level):
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        ab, bc, ac = (a + b) / 2.0, (b + c) / 2.0, (a + c) / 2.0
        corners = np.stack([a, ab, ac, ab, b, bc, ac, bc, c, ab, bc, ac], axis=1).reshape(-1, 3, 3)
    points = corners.reshape(-1, 3)
    order = np.lexsort(points.T[::-1])  # stable: equal points in the order of their use
    start = np.concatenate([[True], (points[order[1:]] != points[order[:-1]]).any(axis=1)])
    first = order[start]  # each distinct point's first use
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    index = np.empty(len(points), dtype=np.int64)
    index[order] = rank[np.cumsum(start) - 1]
    verts = points[np.sort(first)]
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return SurfaceMesh(vertices=verts, triangles=index.reshape(-1, 3))


def kernel_value(spec: KernelSpec, x, y, normal_y=None) -> complex:
    """Point evaluation of the kernel.  Raises on the singular point x == y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("kernel is singular at x == y")
    kappa = spec.kappa
    slp = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    if spec.kind == "slp":
        return complex(slp)
    if normal_y is None:
        raise ValueError("dlp kernel needs the normal at y")
    return complex((1.0 - 1j * kappa * r) * slp / r**2 * float(d @ np.asarray(normal_y)))


def directional_kernel_value(spec: KernelSpec, c, x, y) -> complex:
    """Plane-wave-modulated kernel exp(i kappa (r - <x-y, c>)) / (4 pi r).

    For c = 0 this coincides with the single-layer kernel value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("kernel is singular at x == y")
    phase = spec.kappa * (r - float(d @ np.asarray(c, dtype=float)))
    return complex(np.exp(1j * phase) / (4.0 * np.pi * r))


def _slp_diagonal(areas: np.ndarray) -> np.ndarray:
    # Equivalent-disk self term of the weak singularity.
    return areas**1.5 / (2.0 * np.sqrt(np.pi))


def dense_block(mesh: SurfaceMesh, spec: KernelSpec, rows, cols) -> np.ndarray:
    """Galerkin-surrogate entries for the index sets rows x cols.

    Off-diagonal: kernel(midpoint_i, midpoint_j) * area_i * area_j.
    Diagonal: the fixed self-term rules (slp) / flat-panel zero plus the
    lumped mass term (dlp).

    The entries are computed in real arithmetic on (rows, cols) arrays, in
    this order, which defines their bits.  With d = x_i - y_j,

        r   = sqrt((dx*dx + dy*dy) + dz*dz)
        g   = (cos(kappa*r) * s, sin(kappa*r) * s),  s = 1 / (4*pi*r)
        dlp: g = ((g_r + (kappa*r)*g_i) * q, (g_i - (kappa*r)*g_r) * q),
             q = 1 / (r*r)
        dn  = (dx*nx + dz*nz) + dy*ny,                n the normal at y_j
        entry = ((g * dn) * area_i) * area_j   (dlp)
        entry = (g * area_i) * area_j          (slp),

    each product taken left to right and applied to both parts of g.
    These are the bits of the complex form exp(1j*kappa*r) / (4*pi*r) (slp)
    and (1 - 1j*kappa*r) * g / r**2 * dn (dlp), because numpy divides and
    multiplies a complex by a real number part by part, and dn is summed in
    the order numpy 2.4's ``einsum("ijk,jk->ij")`` sums it.  Only the sign
    of a zero imaginary part can differ from the complex form (dlp at
    kappa = 0).
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    g, diagonal, (dn, _) = _radial_part(mesh, spec, rows, cols)
    block = np.empty((rows.size, cols.size), dtype=np.complex128)
    _finish(mesh, spec, g, dn, rows, cols, diagonal, block)
    return block


def _differences(mesh: SurfaceMesh, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # d[k] is coordinate k of x_i - y_j, a contiguous (rows, cols) array;
    # without order="C" numpy would keep the coordinate innermost, as in its inputs
    return np.subtract(mesh.midpoints[rows].T[:, :, None], mesh.midpoints[cols].T[:, None, :], order="C")


def _radial_part(mesh: SurfaceMesh, spec: KernelSpec, rows: np.ndarray, cols: np.ndarray, back: bool = False):
    """The factor g of ``dense_block``'s entries, which depends on r alone,
    as a (2, rows, cols) array of its real and imaginary parts, and the
    positions (di, dj) of the diagonal entries, rows[di] == cols[dj], where
    r is set to 1 and the entry is later set by its own rule.  Also, from
    the same differences d = x_i - y_j, the double layer's dn = d . n_j for
    (rows, cols) and, with ``back``, its dn for (cols, rows), -(d . n_i)
    transposed (each dot product summed as (dx*nx + dz*nz) + dy*ny).

    x_i - y_j is exactly -(y_j - x_i), so r, and with it g, is bitwise
    symmetric: the transpose of g for (rows, cols) is g for (cols, rows)."""
    d = _differences(mesh, rows, cols)
    dot = lambda n: (d[0] * n[0] + d[2] * n[2]) + d[1] * n[1]
    dn = (None, None)
    if spec.kind == "dlp":
        back_dn = np.negative(dot(mesh.normals[rows].T[:, :, None])).T if back else None
        dn = dot(mesh.normals[cols].T[:, None, :]), back_dn
    d *= d
    r = d[0] + d[1]
    r += d[2]
    np.sqrt(r, out=r)
    di, dj = np.nonzero(rows[:, None] == cols)
    r[di, dj] = 1.0
    kr = spec.kappa * r
    g, s = d[:2], d[2]  # real and imaginary part, and a scale, in d's memory
    np.cos(kr, out=g[0])
    np.sin(kr, out=g[1])
    np.multiply(4.0 * np.pi, r, out=s)
    np.divide(1.0, s, out=s)
    g *= s
    if spec.kind == "dlp":
        krg = kr * g[::-1]  # (kappa*r*g_i, kappa*r*g_r)
        g[0] += krg[0]
        g[1] -= krg[1]
        np.multiply(r, r, out=s)
        np.divide(1.0, s, out=s)
        g *= s
    return g, (di, dj), dn


def _finish(mesh: SurfaceMesh, spec: KernelSpec, g, dn, rows, cols, diagonal, out: np.ndarray) -> None:
    """Write the rows x cols entries into the complex array ``out`` from
    their radial part g and, for the double layer, dn (both only read): the
    area products and the diagonal rules."""
    row_areas, col_areas = mesh.areas[rows][:, None], mesh.areas[cols]
    for part, gp in ((out.real, g[0]), (out.imag, g[1])):
        if spec.kind == "dlp":
            np.multiply(gp, dn, out=part)
            part *= row_areas
        else:
            np.multiply(gp, row_areas, out=part)
        part *= col_areas
    di, dj = diagonal
    if di.size:
        areas = mesh.areas[rows[di]]
        out[di, dj] = _slp_diagonal(areas) if spec.kind == "slp" else 0.5 * areas  # dlp: G's self term is 0, M/2 remains


def assemble_dense_matrix(mesh: SurfaceMesh, spec: KernelSpec) -> np.ndarray:
    """Full n-by-n surrogate matrix, with ``dense_block``'s bits, assembled
    in square tiles of ``ASSEMBLY_CHUNK`` indices.

    Each unordered pair of tiles (I, J), J >= I, is visited once: the radial
    part g (r, cos and sin of kappa*r, 1/(4*pi*r) and the double layer's
    (1 - i*kappa*r)/r**2) is computed once for (I, J), and its transpose
    serves the (J, I) tile.  The transpose holds the same bits, because
    x_i - y_j is exactly -(y_j - x_i), so r and everything formed from it is
    bitwise symmetric.  The differences serve both tiles as well: the (J, I)
    tile's dn, with the normal at x_i, is -((x_i - y_j) . n_i) transposed,
    as a negation is exact.  Only the area products are formed per tile.

    The tile rows I are cut in two runs by pair count (``linalg.cut_in_two``).
    A pair writes only its own two tiles, so the runs write disjoint parts
    of the matrix."""
    n = mesh.n_triangles
    out = np.empty((n, n), dtype=np.complex128)
    starts = list(range(0, n, ASSEMBLY_CHUNK))

    def tile_rows(a: int, b: int) -> None:
        for i0 in starts[a:b]:
            i1 = min(i0 + ASSEMBLY_CHUNK, n)
            rows = np.arange(i0, i1)
            for j0 in range(i0, n, ASSEMBLY_CHUNK):
                j1 = min(j0 + ASSEMBLY_CHUNK, n)
                cols = np.arange(j0, j1)
                g, diagonal, (dn, dn_back) = _radial_part(mesh, spec, rows, cols, back=j0 != i0)
                _finish(mesh, spec, g, dn, rows, cols, diagonal, out[i0:i1, j0:j1])
                if j0 != i0:
                    _finish(mesh, spec, g.transpose(0, 2, 1), dn_back, cols, rows, diagonal[::-1], out[j0:j1, i0:i1])

    cut_in_two(tile_rows, np.arange(len(starts), 0, -1))  # tile row k has len(starts) - k pairs
    return out


def mesh_to_off(mesh: SurfaceMesh) -> str:
    """Plain-text dump: counts, vertex coordinates, triangle index triples."""
    lines = [f"{len(mesh.vertices)} {mesh.n_triangles}"]
    for v in mesh.vertices:
        lines.append(f"{v[0]!r} {v[1]!r} {v[2]!r}")
    for t in mesh.triangles:
        lines.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(lines) + "\n"


def write_off(mesh: SurfaceMesh, path: str | Path) -> None:
    Path(path).write_text(mesh_to_off(mesh))
