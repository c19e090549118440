import gc

import numpy as np
import pytest

from conftest import (
    cube_and_points_system,
    ellipsoid_mesh,
    is_exact_tie,
    reference_block_tree,
    reference_used_directions,
    sphere_system,
)

from dirh2.blocktree import (
    ADMISSIBLE,
    INADMISSIBLE,
    SUBDIVIDED,
    Block,
    blocks_to_csv,
    box_diameter,
    box_distance,
    build_block_tree,
    is_admissible,
    sparsity_stats,
)
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.compression import used_directions
from dirh2.directions import build_directions
from dirh2.geometry import build_sphere_mesh

ETA1, ETA2 = 20.0, 5.0


def sphere_setup(level, kappa, leaf_size=16, parabolic=True):
    mesh = build_sphere_mesh(level)
    tree = build_cluster_tree(mesh.midpoints, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, ETA1)
    bt = build_block_tree(tree, dirs, kappa, ETA1, ETA2, parabolic=parabolic)
    return mesh, tree, dirs, bt


def box(tree, cid):
    return tree.bmin[cid], tree.bmax[cid]


def center(tree, cid):
    return 0.5 * (tree.bmin[cid] + tree.bmax[cid])


UNIT = (np.zeros(3), np.ones(3))


def shifted(offset):
    return (np.zeros(3) + offset, np.ones(3) + offset)


class TestAdmissible:
    def test_identical_boxes_never_admissible(self):
        assert not is_admissible(UNIT, UNIT, kappa=0.0, eta2=ETA2)

    def test_separated_cubes_low_frequency(self):
        # gap (2,0,0): dist=2, diam=sqrt(3): sqrt(3) <= 10 and 0 <= 10
        other = shifted(np.array([3.0, 0.0, 0.0]))
        assert box_distance(*UNIT, *other) == 2.0
        assert is_admissible(UNIT, other, kappa=0.0, eta2=ETA2)

    def test_parabolic_condition_binds_at_high_frequency(self):
        # kappa*diam^2 = 12*3 = 36 > eta2*dist = 10
        other = shifted(np.array([3.0, 0.0, 0.0]))
        assert not is_admissible(UNIT, other, kappa=12.0, eta2=ETA2)
        assert is_admissible(UNIT, other, kappa=12.0, eta2=ETA2, parabolic=False)

    @pytest.mark.parametrize("parabolic", [True, False])
    def test_zero_distance_never_admissible(self, parabolic):
        point = (np.full(3, 0.5), np.full(3, 0.5))
        corner = (np.ones(3), np.full(3, 2.0))  # touches UNIT at one corner
        for kappa in (0.0, 4.0):
            assert not is_admissible(point, point, kappa, ETA2, parabolic)
            assert not is_admissible(point, UNIT, kappa, ETA2, parabolic)
            assert not is_admissible(UNIT, corner, kappa, ETA2, parabolic)

    def test_boxes_broadcast_over_leading_axes(self):
        # each pair of an array of boxes is decided as that pair alone
        rng = np.random.default_rng(4)
        lo = rng.standard_normal((2, 50, 3))
        hi = lo + rng.random((2, 50, 3))
        for kappa, parabolic in ((0.0, True), (3.0, True), (3.0, False)):
            got = is_admissible((lo[0], hi[0]), (lo[1], hi[1]), kappa, ETA2, parabolic)
            assert got.shape == (50,)
            for k in range(50):
                assert got[k] == is_admissible((lo[0, k], hi[0, k]), (lo[1, k], hi[1, k]), kappa, ETA2, parabolic)
        dist = box_distance(lo[0], hi[0], lo[1], hi[1])
        assert np.array_equal(dist, [box_distance(lo[0, k], hi[0, k], lo[1, k], hi[1, k]) for k in range(50)])
        # the bits of np.linalg.norm of each single vector
        assert np.array_equal(box_diameter(lo[0], hi[0]), [np.linalg.norm(hi[0, k] - lo[0, k]) for k in range(50)])

    def test_box_helpers(self):
        assert box_diameter(np.zeros(3), np.ones(3)) == pytest.approx(np.sqrt(3.0))
        a = (np.zeros(3), np.ones(3))
        b = (np.array([2.0, 2.0, 0.0]), np.array([3.0, 3.0, 1.0]))
        assert box_distance(*a, *b) == pytest.approx(np.sqrt(2.0))
        assert box_distance(*a, *a) == 0.0


class TestBuild:
    def test_single_cluster_tree(self):
        tree = build_cluster_tree(np.random.default_rng(0).standard_normal((5, 3)), 8)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, ETA1)
        bt = build_block_tree(tree, dirs, 0.0, ETA1, ETA2)
        assert len(bt) == 1
        assert bt[bt.root].status == INADMISSIBLE
        assert bt.admissible_leaves.size == 0

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_leaves_tile_product_exhaustively(self, kappa):
        mesh, tree, dirs, bt = sphere_setup(3, kappa)
        n = mesh.n_triangles
        cover = np.zeros((n, n), dtype=np.int8)
        for bid in np.concatenate([bt.admissible_leaves, bt.inadmissible_leaves]):
            b = bt[bid]
            cover[np.ix_(tree[b.t].index_set, tree[b.s].index_set)] += 1
        assert (cover == 1).all()

    def test_leaves_tile_product_n2048(self):
        mesh, tree, dirs, bt = sphere_setup(4, 8.0)
        n = mesh.n_triangles
        cover = np.zeros((n, n), dtype=np.int8)
        for bid in np.concatenate([bt.admissible_leaves, bt.inadmissible_leaves]):
            b = bt[bid]
            cover[np.ix_(tree[b.t].index_set, tree[b.s].index_set)] += 1
        assert (cover == 1).all()

    @pytest.mark.parametrize("kappa", [0.0, 8.0])
    def test_admissibility_decided_on_support_boxes(self, kappa):
        _, tree, dirs, bt = sphere_setup(4, kappa)
        assert bt.admissible_leaves.size
        for bid in bt.admissible_leaves:
            b = bt[bid]
            box_t, box_s = box(tree, b.t), box(tree, b.s)
            assert box_distance(*box_t, *box_s) > 0.0
            assert is_admissible(box_t, box_s, bt.kappa, bt.eta2, bt.parabolic)
        for b in bt.blocks:
            if b.status == SUBDIVIDED:
                box_t, box_s = box(tree, b.t), box(tree, b.s)
                assert not is_admissible(box_t, box_s, bt.kappa, bt.eta2, bt.parabolic)
                assert b.sons

    def test_one_index_clusters_never_admitted_against_themselves(self):
        # leaf size 1: every leaf holds one point and has a point-sized
        # support box; the diagonal blocks must stay in the nearfield
        pts = np.random.default_rng(3).standard_normal((40, 3))
        tree = build_cluster_tree(pts, 1)
        deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
        for kappa in (0.0, 2.0):
            dirs = build_directions(deltas, kappa, ETA1)
            bt = build_block_tree(tree, dirs, kappa, ETA1, ETA2)
            for bid in bt.admissible_leaves:
                b = bt[bid]
                assert b.t != b.s
                assert box_distance(*box(tree, b.t), *box(tree, b.s)) > 0.0
            diagonal = [bt[bid] for bid in bt.inadmissible_leaves if bt[bid].t == bt[bid].s]
            assert sorted(b.t for b in diagonal) == np.flatnonzero(np.diff(tree.son_ptr) == 0).tolist()

    def test_levels_match_in_every_block(self):
        _, tree, dirs, bt = sphere_setup(3, 4.0)
        for b in bt.blocks:
            assert tree[b.t].level == tree[b.s].level

    def test_inadmissible_leaf_has_leaf_cluster(self):
        _, tree, dirs, bt = sphere_setup(3, 4.0)
        for bid in bt.inadmissible_leaves:
            b = bt[bid]
            assert tree[b.t].is_leaf or tree[b.s].is_leaf

    def test_zero_wave_number_equals_standard_structure(self):
        _, tree, dirs, bt_par = sphere_setup(3, 0.0, parabolic=True)
        _, _, _, bt_std = sphere_setup(3, 0.0, parabolic=False)
        assert len(bt_par) == len(bt_std)
        for a, b in zip(bt_par.blocks, bt_std.blocks):
            assert (a.t, a.s, a.status) == (b.t, b.s, b.status)

    def test_directional_closeness(self):
        # admissible leaves carry the nearest level direction, as close as
        # the covering of the level's largest support-box diameter guarantees
        mesh, tree, dirs, bt = sphere_setup(4, 8.0)
        assert bt.admissible_leaves.size
        for bid in bt.admissible_leaves:
            b = bt[bid]
            level = tree[b.t].level
            diam = level_diameter(tree, level)
            z = center(tree, b.t) - center(tree, b.s)
            c = dirs.levels[level][b.c_index]
            dist = np.linalg.norm(z / np.linalg.norm(z) - c)
            assert bt.kappa * dist <= ETA1 / diam * (1 + 1e-9)

    def test_direction_assignment_is_nearest(self):
        _, tree, dirs, bt = sphere_setup(4, 8.0)
        from dirh2.directions import nearest_direction_index

        for bid in bt.admissible_leaves[:200]:
            b = bt[bid]
            level = tree[b.t].level
            expected = nearest_direction_index(
                dirs.levels[level], center(tree, b.t) - center(tree, b.s)
            )
            assert b.c_index == expected

    @pytest.mark.parametrize("level, kappa, eta1", [(3, 4.0, 20.0), (3, 4.0, 2.0), (4, 8.0, 2.0)])
    def test_blocks_equal_the_recursive_reference(self, level, kappa, eta1):
        _, tree, dirs, bt = sphere_system(level, kappa, eta1=eta1)
        want = reference_block_tree(tree, dirs, kappa, ETA2)
        assert [(b.id, b.t, b.s, b.status, b.c_index, b.sons) for b in bt.blocks] == want
        assert bt.root == 0
        assert bt.admissible_leaves.tolist() == [b[0] for b in want if b[3] == ADMISSIBLE]
        assert bt.inadmissible_leaves.tolist() == [b[0] for b in want if b[3] == INADMISSIBLE]
        if eta1 == 2.0:
            # the fixture holds exact ties, and the tie rule decides them
            ties = [
                b
                for b in bt.blocks
                if b.status == ADMISSIBLE
                and is_exact_tie(dirs.levels[tree[b.t].level], center(tree, b.t) - center(tree, b.s))
            ]
            assert ties
            plain_argmin = [
                int(np.argmin(np.linalg.norm(dirs.levels[tree[b.t].level] - z / np.linalg.norm(z), axis=1)))
                for b in ties
                for z in [center(tree, b.t) - center(tree, b.s)]
            ]
            assert any(c != b.c_index for c, b in zip(plain_argmin, ties))

    @pytest.mark.parametrize(
        "name, value", [("eta1", np.nan), ("eta1", 0.0), ("eta1", np.inf), ("eta2", np.nan),
                        ("eta2", -1.0), ("eta2", 0.0), ("eta2", np.inf), ("kappa", np.nan),
                        ("kappa", -1.0), ("kappa", np.inf)]
    )
    def test_parameters_validated(self, name, value):
        # eta2 = nan made 56 of 64 leaves admissible on this system, and
        # kappa = nan dropped the parabolic condition
        _, tree, dirs, _ = sphere_system(2, 4.0)
        args = {"kappa": 4.0, "eta1": ETA1, "eta2": ETA2, name: value}
        with pytest.raises(ValueError, match=name):
            build_block_tree(tree, dirs, args["kappa"], args["eta1"], args["eta2"])

    def test_depth_mismatch_rejected(self):
        mesh = build_sphere_mesh(2)
        tree = build_cluster_tree(mesh.midpoints, 16)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, ETA1)  # too shallow
        if tree.depth > 0:
            with pytest.raises(ValueError):
                build_block_tree(tree, dirs, 0.0, ETA1, ETA2)


class TestStats:
    def test_single_leaf_tree(self):
        tree = build_cluster_tree(np.random.default_rng(1).standard_normal((3, 3)), 8)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, ETA1)
        bt = build_block_tree(tree, dirs, 0.0, ETA1, ETA2)
        stats = sparsity_stats(tree, bt)
        assert stats.row_counts[tree.root] == 1

    def test_row_col_symmetry(self):
        _, tree, dirs, bt = sphere_setup(3, 4.0)
        stats = sparsity_stats(tree, bt)
        assert np.array_equal(np.sort(stats.row_counts), np.sort(stats.col_counts))
        for level in range(tree.depth + 1):
            ids = np.flatnonzero(tree.level == level)
            assert stats.row_counts[ids].max() == stats.col_counts[ids].max()

    def test_direction_usage_counts(self):
        _, tree, dirs, bt = sphere_setup(4, 8.0)
        stats = sparsity_stats(tree, bt)
        seen = {}
        for bid in bt.admissible_leaves:
            b = bt[bid]
            seen.setdefault(b.t, set()).add(b.c_index)
        for cid, dirset in seen.items():
            assert stats.row_directions[cid] == len(dirset)
        # never more distinct directions than admissible partners
        assert (stats.row_directions <= stats.row_counts).all()

    def test_used_directions_downward_closed(self):
        _, tree, dirs, bt = sphere_setup(4, 8.0)
        used = used_directions(tree, dirs, bt, side="row")
        for cid, cs in used.items():
            cluster = tree[cid]
            if cluster.is_leaf:
                continue
            for c in cs:
                c2 = dirs.son_index(cluster.level, c)
                for son in cluster.sons:
                    assert c2 in used[son]

    def test_csv_dump(self):
        _, tree, dirs, bt = sphere_setup(2, 0.0)
        lines = blocks_to_csv(tree, bt).strip().splitlines()
        assert lines[0] == "tLevel,tId,sId,status,directionIndex"
        assert len(lines) == 1 + len(bt.admissible_leaves) + len(bt.inadmissible_leaves)
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] in (ADMISSIBLE, INADMISSIBLE)


def ellipsoid_system(kappa, eta1, parabolic):
    """The n = 2048 sphere mesh stretched to a 4:1:1 ellipsoid along x,
    whose cluster tree has seven levels below the root."""
    tree = build_cluster_tree(ellipsoid_mesh(4).midpoints, 16)
    dirs = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], kappa, eta1)
    return tree, dirs, build_block_tree(tree, dirs, kappa, eta1, ETA2, parabolic=parabolic)


class TestArrays:
    """The array tree holds the blocks of the recursive reference, and the
    functions that read its arrays give what the reference tuples give."""

    @staticmethod
    def assert_equals_reference(tree, dirs, bt, kappa, parabolic=True):
        want = reference_block_tree(tree, dirs, kappa, ETA2, parabolic)
        assert [(b.id, b.t, b.s, b.status, b.c_index, b.sons) for b in bt.blocks] == want
        assert np.array_equal(bt.level, [tree[t].level for _, t, *_ in want])
        assert bt.admissible_leaves.tolist() == [b[0] for b in want if b[3] == ADMISSIBLE]
        assert bt.inadmissible_leaves.tolist() == [b[0] for b in want if b[3] == INADMISSIBLE]
        assert bt.son_ptr.tolist() == np.cumsum([0] + [len(b[5]) for b in want]).tolist()

    def test_cube_and_points(self):
        _, tree, dirs, bt = cube_and_points_system()
        assert len(bt) > 1 and bt.admissible_leaves.size
        self.assert_equals_reference(tree, dirs, bt, 10.0)

    @pytest.mark.parametrize("kappa, eta1, parabolic", [(8.0, 2.0, True), (8.0, 2.0, False), (0.0, 20.0, True)])
    def test_ellipsoid(self, kappa, eta1, parabolic):
        tree, dirs, bt = ellipsoid_system(kappa, eta1, parabolic)
        assert tree.depth == 7
        assert len(set(bt.level[bt.admissible_leaves].tolist())) > 1
        self.assert_equals_reference(tree, dirs, bt, kappa, parabolic)

    @pytest.mark.parametrize("system", ["ellipsoid", "cube"])
    def test_statistics_equal_those_of_the_reference(self, system):
        if system == "ellipsoid":
            tree, dirs, bt = ellipsoid_system(8.0, 2.0, True)
            kappa = 8.0
        else:
            _, tree, dirs, bt = cube_and_points_system()
            kappa = 10.0
        blocks = reference_block_tree(tree, dirs, kappa, ETA2)
        for side in ("row", "col"):
            assert used_directions(tree, dirs, bt, side) == reference_used_directions(tree, dirs, blocks, side)
        stats = sparsity_stats(tree, bt)
        sides = ((stats.row_counts, stats.row_directions, 1), (stats.col_counts, stats.col_directions, 2))
        for counts, directions, k in sides:  # k: the place of the cluster in a reference tuple
            assert counts.tolist() == [sum(b[k] == cid for b in blocks) for cid in range(len(tree))]
            assert directions.tolist() == [
                len({b[4] for b in blocks if b[k] == cid and b[3] == ADMISSIBLE}) for cid in range(len(tree))
            ]
        lines = [f"{tree[t].level},{t},{s},{status},{c}" for _, t, s, status, c, _ in blocks if status != SUBDIVIDED]
        assert blocks_to_csv(tree, bt) == "\n".join(["tLevel,tId,sId,status,directionIndex", *lines]) + "\n"

    def test_records_are_python_values_and_arrays_read_only(self):
        _, tree, dirs, bt = sphere_system(3, 4.0)
        b = bt[bt.admissible_leaves[0]]
        assert isinstance(b, Block)
        assert all(type(getattr(b, f)) is int for f in ("id", "t", "s", "c_index"))
        assert type(b.status) is str and type(b.sons) is list
        assert bt[-1] == bt.blocks[-1] == bt[len(bt) - 1]
        with pytest.raises(IndexError):
            bt[len(bt)]
        with pytest.raises(AttributeError):
            b.t = 0
        for a in (bt.t, bt.s, bt.status, bt.c_index, bt.level, bt.son_ptr, bt.sons, bt.admissible_leaves):
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_n8192_block_counts(self):
        # table A of ROADMAP.md: SLP, kappa = 16, eta1 = 20, leaf size 16
        _, _, _, bt = sphere_system(5, 16.0)
        assert (bt.admissible_leaves.size, bt.inadmissible_leaves.size) == (75_712, 11_432)


def test_set_up_leaves_no_reference_cycles():
    # the recursive closures that built the mesh, the cluster tree and the
    # block tree kept their working lists alive until the next collection
    gc.collect()
    gc.disable()
    try:
        sphere_system(3, 4.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
