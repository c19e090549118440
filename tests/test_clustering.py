import dataclasses

import numpy as np
import pytest

from conftest import ellipsoid_mesh, reference_cluster_tree

from dirh2.blocktree import box_diameter
from dirh2.clustering import Cluster, ClusterTree, build_cluster_tree, level_diameter, tree_to_jsonl
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
        assert len(tree) == len(want) and tree.root == 0 and tree.depth == max(w[1] for w in want)
        arrays = {
            "level": np.array([w[1] for w in want], dtype=np.int64),
            "parent": np.array([w[2] for w in want], dtype=np.int64),
            "son_ptr": np.cumsum([0] + [len(w[6]) for w in want]),
            "sons": np.array([s for w in want for s in w[6]], dtype=np.int64),
            "set_ptr": np.cumsum([0] + [w[3].size for w in want]),
            "sets": np.concatenate([w[3] for w in want]),
            "bmin": np.array([w[4] for w in want]),
            "bmax": np.array([w[5] for w in want]),
        }
        assert {f.name for f in dataclasses.fields(tree) if f.init} == {*arrays, "depth", "root"}
        for name, a in arrays.items():
            got = getattr(tree, name)
            assert (got.dtype, got.shape, got.tobytes()) == (a.dtype, a.shape, a.tobytes()), name
            with pytest.raises(ValueError, match="read-only"):
                got[...] = a
        for cid, (_, level, parent, index_set, bmin, bmax, sons) in enumerate(want):
            c = tree[cid]
            assert (c.id, c.level, c.parent, c.sons) == (cid, level, parent, sons)
            assert c.index_set.dtype == index_set.dtype and np.array_equal(c.index_set, index_set)
            assert c.support_min.tobytes() == bmin.tobytes() and c.support_max.tobytes() == bmax.tobytes()

    def test_records_are_python_values_and_views(self):
        tree = build_cluster_tree(build_sphere_mesh(3).midpoints, 16)
        c = tree[1]
        assert isinstance(c, Cluster) and c.size == c.index_set.size and not c.is_leaf
        assert all(type(getattr(c, f)) is int for f in ("id", "level", "parent")) and type(c.sons) is list
        assert c.sons == list(tree.sons_of(1)) and np.array_equal(c.index_set, tree.index_set(1))
        for view, array in ((c.index_set, tree.sets), (c.support_min, tree.bmin), (c.support_max, tree.bmax)):
            assert np.shares_memory(view, array) and not view.flags.writeable
        assert tree[-1].id == len(tree) - 1 and tree[-1].is_leaf
        with pytest.raises(IndexError):
            tree[len(tree)]
        with pytest.raises(AttributeError):
            c.level = 0

    def test_parents_levels_and_root_follow_from_the_son_lists(self):
        # cluster 1 is the root, whatever its id; its index set and box come
        # from those of its sons, the leaves 0 and 2
        leaf_sets, leaf_min, leaf_max = [np.array([2]), np.array([0, 1])], -np.eye(3)[:2], np.eye(3)[1:]
        tree = ClusterTree.from_sons([[], [0, 2], []], leaf_sets, leaf_min, leaf_max)
        assert (tree.root, tree.depth) == (1, 1)
        assert tree.parent.tolist() == [1, -1, 1] and tree.level.tolist() == [1, 0, 1]
        assert tree.son_ptr.tolist() == [0, 0, 2, 2] and tree.sons.tolist() == [0, 2]
        assert tree.set_ptr.tolist() == [0, 1, 4, 6] and tree.sets.tolist() == [2, 0, 1, 2, 0, 1]
        assert tree.bmin.tolist() == [[-1, 0, 0], [-1, -1, 0], [0, -1, 0]]
        assert tree.bmax.tolist() == [[0, 1, 0], [0, 1, 1], [0, 0, 1]]

    def test_leaf_lists_must_hold_one_entry_per_leaf(self):
        with pytest.raises(ValueError, match="^the tree has 2 leaves, but 3 leaf index sets and boxes$"):
            ClusterTree.from_sons([[], [0, 2], []], [np.arange(1)] * 3, *np.zeros((2, 3, 3)))

    @pytest.mark.parametrize(
        "sons",
        [
            pytest.param([], id="no-cluster"),
            pytest.param([[1], [0]], id="two-roots-missing"),
            pytest.param([[1, 1], [], []], id="son-twice"),
            pytest.param([[5], []], id="son-out-of-range"),
            pytest.param([[-1], []], id="negative-son"),
            pytest.param([[1], [], [3], [2]], id="cycle-apart-from-the-root"),
            pytest.param([[0]], id="own-son"),
        ],
    )
    def test_son_lists_that_form_no_tree_rejected(self, sons):
        leaves = sum(not x for x in sons)
        with pytest.raises(ValueError, match="^the clusters' son lists do not form a tree$"):
            ClusterTree.from_sons(sons, [np.arange(1)] * leaves, *np.zeros((2, leaves, 3)))

    @pytest.mark.parametrize(
        "sons, match",
        [
            pytest.param([[2, 3], [], [], [1]], "^cluster 1 has a smaller id than its parent 3$", id="son-below-parent"),
            pytest.param([[1], [3, 2], [], []], "^the sons of cluster 1 are not in ascending id order$", id="sons-falling"),
        ],
    )
    def test_numberings_the_basis_passes_cannot_visit_rejected(self, sons, match):
        # each tree breaks one of the two conditions and keeps the other
        leaves = sum(not x for x in sons)
        with pytest.raises(ValueError, match=match):
            ClusterTree.from_sons(sons, [np.arange(1)] * leaves, *np.zeros((2, leaves, 3)))

    def test_sphere_tree_with_reversed_ids_rejected(self):
        # every cluster below the root renumbered c -> count - c, so that sons
        # come before their parents and son lists fall
        tree = build_cluster_tree(build_sphere_mesh(3).midpoints, 8)
        count = len(tree)
        old = [0] + [count - c for c in range(1, count)]  # each new id's old id, and back
        sons = [[old[s] for s in tree.sons_of(old[c])] for c in range(count)]
        leaves = [old[c] for c in range(count) if not sons[c]]
        with pytest.raises(ValueError, match="has a smaller id than its parent"):
            ClusterTree.from_sons(sons, [tree.index_set(c) for c in leaves], tree.bmin[leaves], tree.bmax[leaves])
        same = [list(tree.sons_of(c)) for c in range(count)]
        leaves = [c for c in range(count) if not same[c]]
        kept = ClusterTree.from_sons(same, [tree.index_set(c) for c in leaves], tree.bmin[leaves], tree.bmax[leaves])
        for name in ("parent", "set_ptr", "sets", "bmin", "bmax"):
            assert getattr(kept, name).tobytes() == getattr(tree, name).tobytes(), name

    def test_sphere_partition_exhaustive(self):
        mesh = build_sphere_mesh(4)
        tree = build_cluster_tree(mesh.midpoints, 16)
        leaves = np.flatnonzero(np.diff(tree.son_ptr) == 0)
        sizes = np.diff(tree.set_ptr)[leaves]
        assert max(sizes) <= 16
        assert min(sizes) >= 1
        merged = np.sort(np.concatenate([tree.index_set(lid) for lid in leaves]))
        assert np.array_equal(merged, np.arange(2048))

    def test_sons_partition_parent(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16)
        for cid in range(len(tree)):
            sons = tree.sons_of(cid)
            if not sons:
                continue
            merged = np.sort(np.concatenate([tree.index_set(s) for s in sons]))
            assert np.array_equal(merged, tree.index_set(cid))
            assert len(sons) != 1

    def test_every_node_reached_once(self):
        mesh = build_sphere_mesh(2)
        tree = build_cluster_tree(mesh.midpoints, 8)
        assert [tree[cid].id for cid in range(len(tree))] == list(range(len(tree)))
        assert sorted(tree.sons.tolist()) == [cid for cid in range(len(tree)) if cid != tree.root]
        for cid in range(len(tree)):
            for s in tree.sons_of(cid):
                assert tree.parent[s] == cid and tree.level[s] == tree.level[cid] + 1

    def test_points_inside_boxes(self):
        mesh = build_sphere_mesh(3)
        tree = build_cluster_tree(mesh.midpoints, 16)
        for cid in range(len(tree)):
            bmin, bmax = tree.bmin[cid], tree.bmax[cid]
            pts = mesh.midpoints[tree.index_set(cid)]
            assert (pts >= bmin).all() and (pts <= bmax).all()
            for s in tree.sons_of(cid):
                assert (bmin <= tree.bmin[s]).all() and (tree.bmax[s] <= bmax).all()

    def test_skip_generation_keeps_invariants(self):
        # one tight blob plus a far point: the blob is split on its own
        # scale, several scales below the root cell's
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [1e-3 * rng.standard_normal((40, 3)), np.array([[1.0, 1.0, 1.0]])]
        )
        tree = build_cluster_tree(pts, 8)
        for c in map(tree.__getitem__, range(len(tree))):
            assert len(c.sons) != 1
            if c.is_leaf:
                assert c.size <= 8 or np.all(pts[c.index_set] == pts[c.index_set][0])
        merged = np.sort(tree.sets[np.repeat(np.diff(tree.son_ptr) == 0, np.diff(tree.set_ptr))])
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
        for cid in range(len(tree)):
            pts = mesh.midpoints[tree.index_set(cid)]
            # tight: every face touches a point
            assert np.array_equal(pts.min(axis=0), tree.bmin[cid])
            assert np.array_equal(pts.max(axis=0), tree.bmax[cid])

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("surface", ["sphere", "ellipsoid"])
    def test_inner_clusters_hold_the_sorted_indices_and_the_box_of_their_points(self, surface, level):
        # from_sons derives an inner cluster's index set and box from its
        # sons'; the reference sorts the indices and takes the box of the
        # points themselves, without from_sons
        points = (build_sphere_mesh if surface == "sphere" else ellipsoid_mesh)(level).midpoints
        tree = build_cluster_tree(points, 16)
        want = reference_cluster_tree(points, 16)
        assert len(tree) == len(want)
        inner = [w for w in want if w[6]]
        assert inner
        for cid, _, _, index_set, bmin, bmax, _ in inner:
            assert tree.index_set(cid).tobytes() == index_set.tobytes()
            assert tree.bmin[cid].tobytes() == bmin.tobytes() and tree.bmax[cid].tobytes() == bmax.tobytes()


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
            ids = np.flatnonzero(tree.level == level)
            diameters = [float(np.linalg.norm(tree.bmax[cid] - tree.bmin[cid])) for cid in ids]
            assert level_diameter(tree, level) == max(diameters) == box_diameter(tree.bmin[ids], tree.bmax[ids]).max()

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
        c = tree[rec["id"]]
        assert rec["box_min"] == c.support_min.tolist() and rec["box_max"] == c.support_max.tolist()
        assert [json.loads(line)["count"] for line in lines] == np.diff(tree.set_ptr).tolist()
