import numpy as np
import pytest

from dirh2.blocktree import box_diameter
from dirh2.clustering import build_cluster_tree, level_diameter, tree_to_jsonl
from dirh2.geometry import build_sphere_mesh


def unit_cube_grid():
    ticks = np.array([0.0, 0.5, 1.0])
    pts = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), -1).reshape(-1, 3)
    return pts


class TestBuild:
    def test_single_point(self):
        tree = build_cluster_tree(np.zeros((1, 3)), 4)
        assert len(tree) == 1
        assert tree.depth == 0
        assert tree[tree.root].is_leaf

    def test_identical_points_single_leaf(self):
        tree = build_cluster_tree(np.tile([0.3, -0.2, 0.9], (20, 1)), 4)
        assert len(tree) == 1
        assert tree.depth == 0

    def test_sphere_partition_exhaustive(self):
        mesh = build_sphere_mesh(4)
        tree = build_cluster_tree(mesh.midpoints, 16)
        leaves = [c.id for c in tree.clusters if c.is_leaf]
        sizes = [tree[lid].size for lid in leaves]
        assert max(sizes) <= 16
        assert min(sizes) >= 1
        merged = np.sort(np.concatenate([tree[lid].index_set for lid in leaves]))
        assert np.array_equal(merged, np.arange(2048))

    def test_sons_partition_parent(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16)
        for c in tree.clusters:
            if c.is_leaf:
                continue
            merged = np.sort(np.concatenate([tree[s].index_set for s in c.sons]))
            assert np.array_equal(merged, c.index_set)
            assert len(c.sons) != 1

    def test_every_node_reached_once(self):
        mesh = build_sphere_mesh(2)
        tree = build_cluster_tree(mesh.midpoints, 8)
        assert [c.id for c in tree.clusters] == list(range(len(tree)))
        sons = sorted(s for c in tree.clusters for s in c.sons)
        assert sons == [cid for cid in range(len(tree)) if cid != tree.root]
        for c in tree.clusters:
            for s in c.sons:
                assert tree[s].parent == c.id

    def test_points_inside_boxes(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16, mesh.support_radii)
        for c in tree.clusters:
            bmin, bmax = tree.box(c.id)
            pts = mesh.midpoints[c.index_set]
            assert (pts >= bmin - 1e-12).all() and (pts <= bmax + 1e-12).all()

    def test_skip_generation_keeps_invariants(self):
        # one tight blob plus a far point: the blob is split on its own
        # scale, several scales below the root cell's
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [1e-3 * rng.standard_normal((40, 3)), np.array([[1.0, 1.0, 1.0]])]
        )
        tree = build_cluster_tree(pts, 8)
        for c in tree.clusters:
            assert len(c.sons) != 1
            if c.is_leaf:
                assert c.size <= 8 or np.all(pts[c.index_set] == pts[c.index_set][0])
        merged = np.sort(np.concatenate([c.index_set for c in tree.clusters if c.is_leaf]))
        assert np.array_equal(merged, np.arange(41))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_cluster_tree(np.zeros((0, 3)), 4)
        with pytest.raises(ValueError):
            build_cluster_tree(np.zeros((4, 2)), 4)
        with pytest.raises(ValueError):
            build_cluster_tree(np.zeros((4, 3)), 0)


class TestBoxes:
    def test_translation_equivalence_exact(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16, mesh.support_radii)
        for level in range(tree.depth + 1):
            extents = []
            for cid in tree.level_ids(level):
                bmin, bmax = tree.box(cid)
                extents.append(bmax - bmin)
            extents = np.array(extents)
            assert np.abs(extents - extents[0]).max() <= 1e-12

    def test_son_box_growth(self):
        mesh = build_sphere_mesh(4)
        tree = build_cluster_tree(mesh.midpoints, 16, mesh.support_radii)
        for c in tree.clusters:
            for s in c.sons:
                assert box_diameter(*tree.box(c.id)) <= 2.01 * box_diameter(
                    *tree.box(s)
                )

    @pytest.mark.parametrize("radii", [False, True])
    def test_support_boxes_enclose_points_tightly(self, radii):
        mesh = build_sphere_mesh(3)
        r = mesh.support_radii if radii else np.zeros(mesh.n_triangles)
        tree = build_cluster_tree(mesh.midpoints, 16, r if radii else None)
        for c in tree.clusters:
            smin, smax = tree.support_box(c.id)
            pts = mesh.midpoints[c.index_set]
            rad = r[c.index_set][:, None]
            assert ((pts - rad) >= smin).all() and ((pts + rad) <= smax).all()
            # tight: every face touches a support
            assert np.array_equal((pts - rad).min(axis=0), smin)
            assert np.array_equal((pts + rad).max(axis=0), smax)
            bmin, bmax = tree.box(c.id)
            assert (bmin <= smin + 1e-12).all() and (smax <= bmax + 1e-12).all()

    def test_radius_padding_widens_boxes(self):
        mesh = build_sphere_mesh(2)
        plain = build_cluster_tree(mesh.midpoints, 16)
        padded = build_cluster_tree(mesh.midpoints, 16, mesh.support_radii)
        for level in range(plain.depth + 1):
            assert np.all(
                padded.level_extents[level]
                >= plain.level_extents[level] + 2 * mesh.support_radii.max() - 1e-12
            ) or np.all(padded.level_extents[level] >= plain.level_extents[level])


class TestLevelDiameter:
    def test_unit_cube_root(self):
        tree = build_cluster_tree(unit_cube_grid(), 27)
        assert abs(level_diameter(tree, 0) - np.sqrt(3.0)) < 1e-14

    def test_octant_split(self):
        tree = build_cluster_tree(unit_cube_grid(), 8)
        assert abs(level_diameter(tree, 1) - np.sqrt(3.0) / 2.0) < 1e-14

    def test_nonincreasing_on_sphere(self):
        mesh = build_sphere_mesh(4)
        tree = build_cluster_tree(mesh.midpoints, 16)
        deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_out_of_range(self):
        tree = build_cluster_tree(unit_cube_grid(), 27)
        with pytest.raises(ValueError):
            level_diameter(tree, 5)


class TestDump:
    def test_jsonl(self):
        import json

        mesh = build_sphere_mesh(1)
        tree = build_cluster_tree(mesh.midpoints, 8)
        lines = tree_to_jsonl(tree).strip().splitlines()
        assert len(lines) == len(tree)
        rec = json.loads(lines[0])
        assert rec["id"] == 0
        assert rec["parent"] == -1
        assert rec["count"] == 32
        assert len(rec["box_min"]) == 3
