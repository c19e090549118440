import numpy as np
import pytest

from conftest import reference_cluster_tree

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

    @pytest.mark.parametrize("points, leaf_size", [("sphere", 16), ("sphere", 1), ("random", 3), ("repeated", 2)])
    def test_equal_to_the_recursive_reference(self, points, leaf_size):
        rng = np.random.default_rng(2)
        pts = {
            "sphere": lambda: build_sphere_mesh(4).midpoints,
            "random": lambda: rng.standard_normal((300, 3)),
            "repeated": lambda: np.repeat(rng.standard_normal((40, 3)), 3, axis=0),  # points that cannot be split
        }[points]()
        tree = build_cluster_tree(pts, leaf_size)
        want = reference_cluster_tree(pts, leaf_size)
        assert len(tree) == len(want) and tree.root == 0
        for c, (cid, level, parent, index_set, bmin, bmax, sons) in zip(tree.clusters, want):
            assert (c.id, c.level, c.parent, c.sons) == (cid, level, parent, sons)
            assert c.index_set.dtype == index_set.dtype and np.array_equal(c.index_set, index_set)
            assert c.support_min.tobytes() == bmin.tobytes() and c.support_max.tobytes() == bmax.tobytes()

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
        tree = build_cluster_tree(mesh.midpoints, 16)
        for c in tree.clusters:
            bmin, bmax = tree.support_box(c.id)
            pts = mesh.midpoints[c.index_set]
            assert (pts >= bmin).all() and (pts <= bmax).all()
            for s in c.sons:
                smin, smax = tree.support_box(s)
                assert (bmin <= smin).all() and (smax <= bmax).all()

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
    def test_support_boxes_enclose_points_tightly(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16)
        for c in tree.clusters:
            pts = mesh.midpoints[c.index_set]
            # tight: every face touches a point
            assert np.array_equal(pts.min(axis=0), c.support_min)
            assert np.array_equal(pts.max(axis=0), c.support_max)


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

    def test_largest_support_box_on_level(self):
        mesh = build_sphere_mesh(4)
        tree = build_cluster_tree(mesh.midpoints, 16)
        for level in range(tree.depth + 1):
            diameters = [box_diameter(*tree.support_box(cid)) for cid in tree.level_ids(level)]
            assert level_diameter(tree, level) == max(diameters)

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
        rec = json.loads(lines[-1])
        bmin, bmax = tree.support_box(rec["id"])
        assert rec["box_min"] == bmin.tolist() and rec["box_max"] == bmax.tolist()
