import numpy as np
import pytest

from dirh2.assembly import (
    assemble_dh2_by_interpolation,
    chebyshev_points_1d,
    lagrange_tensor,
    tensor_points,
)
from dirh2.blocktree import build_block_tree
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.dh2core import expand_dense, expand_factor
from dirh2.directions import build_directions
from dirh2.geometry import (
    KernelSpec,
    assemble_dense_matrix,
    build_sphere_mesh,
    directional_kernel_value,
    kernel_value,
)
from dirh2.linalg import power_iteration_norm


def sphere_pipeline(level, kappa, leaf_size=16):
    mesh = build_sphere_mesh(level)
    tree = build_cluster_tree(mesh.midpoints, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, 20.0)
    bt = build_block_tree(tree, dirs, kappa, 20.0, 5.0)
    return mesh, tree, dirs, bt


def spectral_norm(a, seed=0):
    return power_iteration_norm(
        lambda v: a @ v, lambda v: a.conj().T @ v, a.shape[1], 50, seed
    )


class TestInterpolationNodes:
    def test_order_one_is_center(self):
        assert chebyshev_points_1d(-2.0, 6.0, 1) == pytest.approx([2.0])

    def test_points_inside_box(self):
        rng = np.random.default_rng(0)
        lo = rng.standard_normal(3)
        hi = lo + rng.random(3) + 0.5
        pts = tensor_points(lo, hi, 4)
        assert pts.shape == (64, 3)
        assert (pts > lo).all() and (pts < hi).all()

    def test_lagrange_property(self):
        # basis values at the tensor points themselves form the identity
        rng = np.random.default_rng(1)
        lo = rng.standard_normal(3)
        hi = lo + rng.random(3) + 0.5
        for m in (1, 2, 3, 4):
            pts = tensor_points(lo, hi, m)
            values = lagrange_tensor(lo, hi, m, pts)
            assert np.abs(values - np.eye(m**3)).max() < 1e-12

    def test_polynomial_reproduction(self):
        # degree < m polynomials are reproduced exactly by the basis
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 3.0])
        rng = np.random.default_rng(2)
        sample = lo + rng.random((50, 3)) * (hi - lo)
        nodes = tensor_points(lo, hi, 3)

        def poly(x):
            return (x[:, 0] ** 2) * (x[:, 1]) - 3.0 * x[:, 2] ** 2 + 1.0

        interp = lagrange_tensor(lo, hi, 3, sample) @ poly(nodes)
        assert np.abs(interp - poly(sample)).max() < 1e-11

    def test_zero_width_axis(self):
        # a one-point or flat cluster has a support box of zero width along
        # some axis; the basis stays a partition of unity there and still
        # reproduces polynomials in the free coordinates
        lo, hi = np.array([0.0, -1.0, 0.5]), np.array([1.0, 1.0, 0.5])
        rng = np.random.default_rng(3)
        sample = lo + rng.random((20, 3)) * (hi - lo)
        values = lagrange_tensor(lo, hi, 3, sample)
        assert np.abs(values.sum(axis=1) - 1.0).max() < 1e-12
        nodes = tensor_points(lo, hi, 3)

        def poly(x):
            return x[:, 0] ** 2 - 2.0 * x[:, 1] + x[:, 2]

        assert np.abs(values @ poly(nodes) - poly(sample)).max() < 1e-12


class TestAssembledStructure:
    def test_rejects_dlp_and_bad_order(self):
        mesh, tree, dirs, bt = sphere_pipeline(1, 0.0)
        with pytest.raises(ValueError):
            assemble_dh2_by_interpolation(mesh, KernelSpec("dlp", 0.0), tree, dirs, bt, 2)
        with pytest.raises(ValueError):
            assemble_dh2_by_interpolation(mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 0)

    def test_laplace_order_one_is_rank_one_multipole(self):
        mesh, tree, dirs, bt = sphere_pipeline(3, 0.0)
        a = assemble_dh2_by_interpolation(mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 1)
        assert bt.admissible_leaves.size
        for bid in bt.admissible_leaves[:50]:
            b = bt[bid]
            s = a.coupling[bid]
            assert s.shape == (1, 1)
            expected = kernel_value(
                KernelSpec("slp", 0.0), 0.5 * (tree.bmin[b.t] + tree.bmax[b.t]), 0.5 * (tree.bmin[b.s] + tree.bmax[b.s])
            )
            assert abs(s[0, 0] - expected) < 1e-14 * abs(expected)
        for (cid, c), v in a.row_basis.leaf.items():
            assert np.allclose(v[:, 0], mesh.areas[tree[cid].index_set])

    def test_zero_direction_transfer_is_polynomial_reexpansion(self):
        # needs admissible blocks above the leaf level, hence the finer mesh
        mesh, tree, dirs, bt = sphere_pipeline(4, 0.0)
        a = assemble_dh2_by_interpolation(mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 3)
        checked = 0
        for (son, c), e in a.row_basis.transfer.items():
            parent = tree[son].parent
            expected = lagrange_tensor(
                tree.bmin[parent], tree.bmax[parent], 3, tensor_points(tree.bmin[son], tree.bmax[son], 3)
            )
            assert np.abs(e - expected).max() < 1e-12
            checked += 1
        assert checked > 0

    def test_single_block_matches_smoothed_kernel_double_sum(self):
        mesh, tree, dirs, bt = sphere_pipeline(3, 4.0)
        spec = KernelSpec("slp", 4.0)
        a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 3)
        bid = bt.admissible_leaves[0]
        b = bt[bid]
        rows, cols = tree[b.t].index_set, tree[b.s].index_set
        c = dirs.levels[tree[b.t].level][b.c_index]
        # direct evaluation: plane-wave-carrying polynomial factors around
        # the sampled smooth kernel
        xi_t = tensor_points(tree.bmin[b.t], tree.bmax[b.t], 3)
        xi_s = tensor_points(tree.bmin[b.s], tree.bmax[b.s], 3)
        s = np.array(
            [
                [directional_kernel_value(spec, c, x, y) for y in xi_s]
                for x in xi_t
            ]
        )
        lt = lagrange_tensor(tree.bmin[b.t], tree.bmax[b.t], 3, mesh.midpoints[rows])
        ls = lagrange_tensor(tree.bmin[b.s], tree.bmax[b.s], 3, mesh.midpoints[cols])
        vt = lt * (np.exp(4j * mesh.midpoints[rows] @ c) * mesh.areas[rows])[:, None]
        ws = ls * (np.exp(4j * mesh.midpoints[cols] @ c) * mesh.areas[cols])[:, None]
        direct = vt @ s @ ws.conj().T
        v = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
        w = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
        built = v @ a.coupling[bid] @ w.conj().T
        assert np.abs(built - direct).max() < 1e-13 * np.abs(direct).max()

    def test_admissible_block_error_decreases_with_order(self):
        mesh, tree, dirs, bt = sphere_pipeline(3, 4.0)
        spec = KernelSpec("slp", 4.0)
        dense = assemble_dense_matrix(mesh, spec)
        bid = max(
            bt.admissible_leaves,
            key=lambda i: tree[bt[i].t].size * tree[bt[i].s].size,
        )
        b = bt[bid]
        rows, cols = tree[b.t].index_set, tree[b.s].index_set
        ref = dense[np.ix_(rows, cols)]
        errs = []
        for m in (2, 3, 4):
            a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, m)
            v = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
            w = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
            errs.append(np.linalg.norm(v @ a.coupling[bid] @ w.conj().T - ref))
        assert errs[1] <= 1.5 * errs[0]
        assert errs[2] <= 1.5 * errs[1]
        assert errs[2] < errs[0]

    def test_nestedness_is_structural(self):
        # expanding the parent factor through transfers reproduces exactly
        # the stacked son expansions, by construction
        mesh, tree, dirs, bt = sphere_pipeline(4, 8.0)
        a = assemble_dh2_by_interpolation(mesh, KernelSpec("slp", 8.0), tree, dirs, bt, 2)
        nonleaf = [(cid, c) for cid, c in a.row_basis.rank if not tree[cid].is_leaf]
        assert nonleaf
        for cid, c in nonleaf[:10]:
            v = expand_factor(a.row_basis, tree, dirs, cid, c)
            c2 = dirs.son_index(tree[cid].level, c)
            for son in tree[cid].sons:
                vs = expand_factor(a.row_basis, tree, dirs, son, c2)
                pos = np.searchsorted(tree[cid].index_set, tree[son].index_set)
                assert np.array_equal(v[pos], vs @ a.row_basis.transfer[(son, c)])


class TestGlobalAccuracy:
    def test_coarse_spectral_bound_n2048(self):
        # order 4 on the high-frequency setup: interpolation (not
        # compression) accuracy, coarse 1e-2 bound
        mesh, tree, dirs, bt = sphere_pipeline(4, 8.0)
        spec = KernelSpec("slp", 8.0)
        dense = assemble_dense_matrix(mesh, spec)
        a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 4)
        diff = expand_dense(a) - dense
        rel = spectral_norm(diff, seed=1) / spectral_norm(dense, seed=1)
        assert rel <= 1e-2
