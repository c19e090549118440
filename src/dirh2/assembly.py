"""Direct construction of the directional representation by tensor-Chebyshev
interpolation of the plane-wave-smoothed kernel.

Interpolation runs on each cluster's support box, the box the block tree
judged admissible.  Leaf basis rows integrate plane-wave-modulated Lagrange
polynomials against the piecewise-constant panels (one-point midpoint rule,
matching the dense surrogate); transfer matrices re-expand a parent's
polynomials at the son's points with the direction-change plane wave;
coupling matrices sample the smoothed kernel at the clusters' interpolation
points.
"""

from __future__ import annotations

import numpy as np

from .blocktree import BlockTree
from .clustering import ClusterTree
from .compression import used_directions
from .dh2core import DH2Matrix, DirectionalClusterBasis
from .directions import DirectionHierarchy
from .geometry import KernelSpec, SurfaceMesh, dense_block

__all__ = [
    "chebyshev_points_1d",
    "tensor_points",
    "lagrange_tensor",
    "assemble_dh2_by_interpolation",
]


def chebyshev_points_1d(a: float, b: float, m: int) -> np.ndarray:
    i = np.arange(m)
    ref = np.cos(np.pi * (2.0 * i + 1.0) / (2.0 * m))
    return 0.5 * (a + b) + 0.5 * (b - a) * ref


def tensor_points(bmin, bmax, m: int) -> np.ndarray:
    """m**3 tensor Chebyshev points of the box, x-major ordering."""
    axes = [chebyshev_points_1d(bmin[d], bmax[d], m) for d in range(3)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grid], axis=1)


def _lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, shape (len(x), len(nodes)).

    On a zero-width interval all nodes coincide and every function is
    constant; each basis function is then the constant 1/len(nodes), which
    keeps the basis a partition of unity and re-expansion exact."""
    if nodes.size > 1 and (nodes == nodes[0]).all():
        return np.full((x.size, nodes.size), 1.0 / nodes.size)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / diff.prod(axis=1)
    dx = x[:, None] - nodes[None, :]
    exact = dx == 0.0
    out = np.empty((x.size, nodes.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights[None, :] / dx
        out[:] = terms / terms.sum(axis=1)[:, None]
    hit = exact.any(axis=1)
    if hit.any():
        out[hit] = exact[hit].astype(float)
    return out


def lagrange_tensor(bmin, bmax, m: int, points: np.ndarray) -> np.ndarray:
    """Values of all m**3 tensor Lagrange polynomials at the given points,
    columns ordered like ``tensor_points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    parts = [
        _lagrange_1d(chebyshev_points_1d(bmin[d], bmax[d], m), points[:, d])
        for d in range(3)
    ]
    return np.einsum("pi,pj,pk->pijk", *parts).reshape(points.shape[0], m**3)


def _plane_wave(kappa: float, points: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.exp(1j * kappa * (points @ c))


def _leaf_matrix(mesh, tree, dirs, kappa, cid, c_idx, m):
    rows = tree.index_set(cid)
    pts = mesh.midpoints[rows]
    basis = lagrange_tensor(tree.bmin[cid], tree.bmax[cid], m, pts).astype(np.complex128)
    c = dirs.levels[tree.level[cid]][c_idx]
    return basis * (_plane_wave(kappa, pts, c) * mesh.areas[rows])[:, None]


def _transfer_matrix(tree, dirs, kappa, son_id, parent_id, c_idx, m):
    level = tree.level[parent_id]
    c = dirs.levels[level][c_idx]
    c2 = dirs.levels[level + 1][dirs.son_index(level, c_idx)]
    son_pts = tensor_points(tree.bmin[son_id], tree.bmax[son_id], m)
    basis = lagrange_tensor(tree.bmin[parent_id], tree.bmax[parent_id], m, son_pts).astype(np.complex128)
    return basis * _plane_wave(kappa, son_pts, c - c2)[:, None]


def _coupling_matrix(tree, dirs, kappa, t, s, c_idx, m):
    c = dirs.levels[tree.level[t]][c_idx]
    xt = tensor_points(tree.bmin[t], tree.bmax[t], m)
    ys = tensor_points(tree.bmin[s], tree.bmax[s], m)
    d = xt[:, None, :] - ys[None, :, :]
    r = np.linalg.norm(d, axis=2)
    if not (r > 0.0).all():
        raise ValueError("coinciding interpolation points in an admissible block")
    return np.exp(1j * kappa * (r - d @ c)) / (4.0 * np.pi * r)


def assemble_dh2_by_interpolation(
    mesh: SurfaceMesh,
    spec: KernelSpec,
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    bt: BlockTree,
    order: int,
) -> DH2Matrix:
    """Interpolation-based representation of the single-layer matrix with
    order**3 points per cluster.  Only directions referenced by some block
    are materialized."""
    if spec.kind != "slp":
        raise ValueError("interpolation assembly supports the single-layer kernel only")
    if order < 1:
        raise ValueError("order must be >= 1")
    m = order
    k = m**3
    kappa = spec.kappa

    row_used = used_directions(tree, dirs, bt, side="row")
    col_used = used_directions(tree, dirs, bt, side="col")

    def build_basis(used) -> DirectionalClusterBasis:
        basis = DirectionalClusterBasis()
        for cid in range(len(tree)):
            for c_idx in used.get(cid, ()):
                basis.rank[(cid, c_idx)] = k
                sons = tree.sons_of(cid)
                if not sons:
                    basis.leaf[(cid, c_idx)] = _leaf_matrix(
                        mesh, tree, dirs, kappa, cid, c_idx, m
                    )
                else:
                    for son in sons:
                        basis.transfer[(son, c_idx)] = _transfer_matrix(
                            tree, dirs, kappa, son, cid, c_idx, m
                        )
        return basis

    coupling = {
        bid: _coupling_matrix(tree, dirs, kappa, t, s, c, m) for bid, t, s, c in bt.entries(bt.admissible_leaves)
    }
    nearfield = {
        bid: dense_block(mesh, spec, tree.index_set(t), tree.index_set(s))
        for bid, t, s, _ in bt.entries(bt.inadmissible_leaves)
    }
    return DH2Matrix(
        tree=tree,
        directions=dirs,
        blocks=bt,
        row_basis=build_basis(row_used),
        col_basis=build_basis(col_used),
        coupling=coupling,
        nearfield=nearfield,
    )
