import itertools
import warnings

import numpy as np
import pytest

from conftest import ellipsoid_mesh, is_exact_tie, reference_nearest_direction_index, sphere_system

import dirh2.directions
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.directions import (
    build_directions,
    cube_surface_directions,
    grid_size,
    nearest_direction_index,
    project_to_sphere,
    vector_norms,
)

# the grid size m of each level of the eta1 = 2 sphere hierarchies (level
# 3 to 6 of the mesh, kappa = 4, 8, 16 and 32), by number of triangles
SPHERE_GRID_SIZES = {
    512: [10, 5, 2],
    2048: [20, 10, 5, 3, 2],
    8192: [40, 20, 9, 7, 5, 4, 2],
    32768: [79, 39, 18, 13, 8, 6, 4, 3, 2],
}
REFERENCE_DISTANCES = 3e7  # per son map; past it a seeded sample of rows is checked


def random_unit(rng, count):
    z = rng.standard_normal((count, 3))
    return z / np.linalg.norm(z, axis=1)[:, None]


class TestProjection:
    def test_diagonal(self):
        assert np.allclose(project_to_sphere([1.0, 1, 1]), np.ones(3) / np.sqrt(3))

    def test_fixed_point(self):
        assert np.array_equal(project_to_sphere([1.0, 0, 0]), [1.0, 0, 0])

    def test_near_zero_rejected(self):
        with pytest.raises(ValueError):
            project_to_sphere([1e-13, 0, 0])
        with pytest.raises(ValueError):
            project_to_sphere([[1.0, 0, 0], [1e-13, 0, 0]])

    def test_rows_as_single_vectors(self):
        v = np.random.default_rng(5).standard_normal((300, 3))
        want = [vi / np.linalg.norm(vi) for vi in v]
        assert np.array_equal(project_to_sphere(v), want)
        assert np.array_equal([project_to_sphere(vi) for vi in v], want)

    def test_vector_norms_are_single_vector_norms(self):
        # np.linalg.norm of one vector is a BLAS dot; over an axis it is a
        # pairwise sum, which differs in the last bit for about 1 in 10
        v = np.random.default_rng(6).standard_normal((4, 500, 3))
        want = np.array([[np.linalg.norm(x) for x in block] for block in v])
        assert np.array_equal(vector_norms(v), want)
        assert vector_norms(v[0, 0]) == want[0, 0]

    def test_non_expansive(self):
        # projection to the sphere does not increase distances for
        # points with norm >= 1
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10_000, 3))
        y = rng.standard_normal((10_000, 3))
        x *= (1.0 + rng.random(10_000) * 3.0)[:, None] / np.linalg.norm(x, axis=1)[:, None]
        y *= (1.0 + rng.random(10_000) * 3.0)[:, None] / np.linalg.norm(y, axis=1)[:, None]
        proj = np.linalg.norm(
            x / np.linalg.norm(x, axis=1)[:, None] - y / np.linalg.norm(y, axis=1)[:, None],
            axis=1,
        )
        assert (proj <= np.linalg.norm(x - y, axis=1) + 1e-14).all()


class TestCubeGrid:
    def test_m1_face_centers(self):
        dirs = cube_surface_directions(1)
        expected = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=float,
        )
        assert np.allclose(dirs, expected, atol=1e-15)

    def test_counts_and_unit_norm(self):
        for m in (2, 3, 4):
            dirs = cube_surface_directions(m)
            assert dirs.shape == (6 * m * m, 3)
            assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12


class TestBuildDirections:
    def test_zero_wave_number_degenerates(self):
        hier = build_directions([4.0, 2.0, 1.0], 0.0, 20.0)
        for level in range(3):
            assert hier.count(level) == 1
            assert not hier.levels[level].any()
        for level in range(2):
            assert hier.son_index(level, 0) == 0

    def test_cutoff_to_zero_set(self):
        # kappa*delta <= eta1/sqrt(2) keeps the single zero direction
        eta1 = 20.0
        delta = 14.0  # kappa=1: 2*eta1/(kappa*delta) = 2.857 >= 2*sqrt(2)
        hier = build_directions([delta], 1.0, eta1)
        assert hier.count(0) == 1

    def test_grid_resolution(self):
        # kappa*delta/eta1 = 2.4 -> m = ceil(sqrt(2)*2.4) = 4
        hier = build_directions([48.0], 1.0, 20.0)
        assert hier.count(0) == 6 * 16

    def test_counts_nonincreasing_with_depth(self):
        hier = build_directions([8.0, 4.0, 2.0, 1.0], 4.0, 20.0)
        counts = [hier.count(l) for l in range(4)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_covering_bound(self):
        kappa, eta1 = 1.0, 20.0
        delta = 49.0  # m = 4
        hier = build_directions([delta], kappa, eta1)
        assert hier.count(0) == 96
        rng = np.random.default_rng(3)
        z = random_unit(rng, 100_000)
        d2 = ((z[:, None, :] - hier.levels[0][None, :, :]) ** 2).sum(axis=2)
        assert np.sqrt(d2.min(axis=1)).max() <= eta1 / (kappa * delta)

    @pytest.mark.parametrize("level, kappa, eta1", [(3, 4.0, 2.0), (4, 8.0, 2.0), (5, 16.0, 20.0)])
    def test_son_maps_equal_the_per_vector_reference(self, level, kappa, eta1):
        _, _, dirs, _ = sphere_system(level, kappa, eta1=eta1)
        ties = 0
        for l, son_map in enumerate(dirs.son_maps):
            coarse, fine = dirs.levels[l], dirs.levels[l + 1]
            assert son_map.dtype == np.int64
            assert son_map.tolist() == [reference_nearest_direction_index(fine, c) for c in coarse]
            ties += sum(is_exact_tie(fine, c) for c in coarse if c.any())
        if eta1 == 2.0:
            assert ties

    def test_son_map_compatibility_exhaustive(self):
        hier = build_directions([60.0, 30.0, 10.0], 1.0, 20.0)
        for level in range(2):
            coarse, fine = hier.levels[level], hier.levels[level + 1]
            for i, c in enumerate(coarse):
                dist = np.linalg.norm(fine - c, axis=1)
                assert np.isclose(
                    np.linalg.norm(fine[hier.son_index(level, i)] - c), dist.min()
                )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_directions([1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            build_directions([1.0], -1.0, 20.0)
        for kappa, eta1 in ((np.nan, 20.0), (np.inf, 20.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                build_directions([1.0], kappa, eta1)
        # a level of point-sized clusters gets the zero direction
        hier = build_directions([0.0], 1.0, 20.0)
        assert hier.count(0) == 1 and not hier.levels[0].any()
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError):
                build_directions([bad], 1.0, 20.0)


class TestNearestDirection:
    def test_dominant_axis(self):
        dirs = cube_surface_directions(1)
        assert np.array_equal(dirs[nearest_direction_index(dirs, [0.9, 0.1, 0.0])], [1.0, 0, 0])

    def test_zero_set_returns_zero(self):
        dirs = np.zeros((1, 3))
        assert nearest_direction_index(dirs, [0.3, -0.4, 0.1]) == 0
        assert nearest_direction_index(dirs, np.zeros(3)) == 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            nearest_direction_index(cube_surface_directions(1), np.zeros(3))
        with pytest.raises(ValueError):
            nearest_direction_index(cube_surface_directions(1), [[1.0, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        dirs = cube_surface_directions(2)
        for z in ([bad, 0.0, 0.0], [[1.0, 0, 0], [0.0, bad, 1.0]]):
            for d in (dirs, np.zeros((1, 3))):
                with pytest.raises(ValueError, match="non-finite"):
                    nearest_direction_index(d, z)

    def test_rows_as_single_vectors_with_ties(self, monkeypatch):
        # random vectors, and vectors halfway between grid directions and
        # on the grid's symmetry planes, which tie exactly
        dirs = cube_surface_directions(4)
        rng = np.random.default_rng(8)
        i, j = rng.integers(0, len(dirs), (2, 300))
        z = np.concatenate(
            [
                rng.standard_normal((300, 3)),
                dirs[i] + dirs[j],
                dirs[i] * [1.0, 1.0, 0.0],
                np.round(rng.standard_normal((300, 3)), 1),
            ]
        )
        z = z[np.linalg.norm(z, axis=1) > 0]
        want = [reference_nearest_direction_index(dirs, v) for v in z]
        assert sum(is_exact_tie(dirs, v) for v in z) > 10
        got = nearest_direction_index(dirs, z)
        assert got.dtype == np.int64 and got.tolist() == want
        assert [nearest_direction_index(dirs, v) for v in z] == want
        monkeypatch.setattr(dirh2.directions, "NEAREST_CHUNK", 100)  # one row per chunk
        assert nearest_direction_index(dirs, z).tolist() == want
        assert nearest_direction_index(np.zeros((1, 3)), z).tolist() == [0] * len(z)

    def test_matches_linear_scan(self):
        hier = build_directions([49.0], 1.0, 20.0)
        dirs = hier.levels[0]
        rng = np.random.default_rng(7)
        for z in rng.standard_normal((200, 3)):
            zn = z / np.linalg.norm(z)
            best = min(range(len(dirs)), key=lambda i: np.linalg.norm(dirs[i] - zn))
            got = nearest_direction_index(dirs, z)
            assert np.isclose(
                np.linalg.norm(dirs[got] - zn), np.linalg.norm(dirs[best] - zn)
            )

    def test_tie_breaks_lexicographically(self):
        # the face centers; each vector is as near to two of them
        dirs = cube_surface_directions(1)
        assert nearest_direction_index(dirs, [1.0, 1.0, 0.0]) == 2  # (0,1,0) before (1,0,0)
        assert nearest_direction_index(dirs, [0.0, 1.0, 1.0]) == 4  # (0,0,1) before (0,1,0)
        assert nearest_direction_index(dirs, [-1.0, 1.0, 0.0]) == 1  # (-1,0,0) before (0,1,0)
        for z in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [-1.0, 1.0, 0.0]):
            assert is_exact_tie(dirs, np.array(z))


def grid_hierarchy(sizes):
    """``build_directions`` on level diameters chosen so that level l is
    the grid of size sizes[l]; no mesh is needed."""
    hier = build_directions([(m - 0.5) * np.sqrt(2.0) for m in sizes], 1.0, 2.0)
    assert [grid_size(level) for level in hier.levels] == sizes
    return hier


def son_map_ties(hier, rng) -> int:
    """Assert that every son map equals the reference scan on its rows, or
    on a seeded sample of them where the scan is slow; the exact ties met."""
    ties = 0
    for l, son_map in enumerate(hier.son_maps):
        coarse, fine = hier.levels[l], hier.levels[l + 1]
        rows = np.arange(len(coarse))
        if len(coarse) * len(fine) > REFERENCE_DISTANCES:
            rows = np.sort(rng.choice(rows, int(REFERENCE_DISTANCES // len(fine)), replace=False))
        assert son_map[rows].tolist() == [reference_nearest_direction_index(fine, coarse[i]) for i in rows]
        ties += sum(is_exact_tie(fine, coarse[i]) for i in rows)
    return ties


def nudged(dirs):
    """dirs with one entry moved to the next float."""
    dirs = dirs.copy()
    dirs[5, 1] = np.nextafter(dirs[5, 1], 2.0)
    return dirs


class TestGridSearch:
    """The grid search gives the index of a scan of the whole level."""

    @pytest.mark.parametrize("n", sorted(SPHERE_GRID_SIZES))
    def test_sphere_son_maps_equal_the_reference(self, n):
        assert son_map_ties(grid_hierarchy(SPHERE_GRID_SIZES[n]), np.random.default_rng(n))

    def test_ellipsoid_son_maps_equal_the_reference(self):
        tree = build_cluster_tree(ellipsoid_mesh(4).midpoints, 16)
        hier = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], 8.0, 2.0)
        assert hier.count(0) == 6 * 48**2
        son_map_ties(hier, np.random.default_rng(4))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 10, 20, 40, 79])
    def test_special_vectors_equal_the_reference(self, m):
        dirs, finer = cube_surface_directions(m), cube_surface_directions(m + 1)
        rng = np.random.default_rng(m)
        count = 150 if m <= 20 else 40  # vectors of each kind
        i, j = rng.integers(0, len(dirs), (2, count))
        z = np.concatenate(
            [
                list(itertools.product((-1.0, -0.0, 0.0, 1.0), repeat=3)),  # axes, edges, corners, signed zeros
                dirs[i] + dirs[j],  # halfway between two directions
                dirs[i] * [1.0, 1.0, 0.0],  # the symmetry planes z = 0, x = y and x = -y
                dirs[i][:, [0, 0, 2]],
                dirs[i][:, [0, 0, 2]] * [1.0, -1.0, 1.0],
                dirs[rng.integers(0, len(dirs), count)],
                finer[rng.integers(0, len(finer), count)],
                rng.standard_normal((count, 3)),
            ]
        )
        z = z[vector_norms(z) > 0.0]
        want = [reference_nearest_direction_index(dirs, v) for v in z]
        assert sum(is_exact_tie(dirs, v) for v in z) > 10
        assert nearest_direction_index(dirs, z).tolist() == want
        assert [nearest_direction_index(dirs, v) for v in z[::7]] == want[::7]

    def test_random_vectors_equal_the_reference(self):
        rng = np.random.default_rng(9)
        for m in (4, 5, 7, 10, 20, 40, 79):
            dirs = cube_surface_directions(m)
            z = rng.standard_normal((int(REFERENCE_DISTANCES // 30 // len(dirs)), 3))
            assert nearest_direction_index(dirs, z).tolist() == [reference_nearest_direction_index(dirs, v) for v in z]

    def test_no_warning_on_tiny_and_signed_zero_components(self):
        dirs = cube_surface_directions(7)
        z = np.array(
            [
                [1.0, 5e-324, -0.0],
                [-0.0, -0.0, 2.0],
                [1e-300, 1.0, -1e-300],
                [1e150, -1e-150, 0.0],
                [-5e-324, -1.0, 1.0],
                [1.0, 1.0 + 2e-16, -1.0],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_direction_index(dirs, z)
            singles = [nearest_direction_index(dirs, v) for v in z]
        assert got.tolist() == singles == [reference_nearest_direction_index(dirs, v) for v in z]
        assert nearest_direction_index(dirs, z[:1]).tolist() == singles[:1]

    @pytest.mark.parametrize(
        "dirs",
        [
            np.eye(3),
            np.zeros((2, 3)),
            np.empty((0, 3)),
            cube_surface_directions(4)[:-1],
            cube_surface_directions(4)[::-1],
            nudged(cube_surface_directions(4)),
        ],
        ids=["axes", "two-zeros", "empty", "short", "reversed", "nudged"],
    )
    def test_other_sets_rejected(self, dirs):
        assert grid_size(dirs) is None
        with pytest.raises(ValueError, match=r"^the \d+ directions are neither a cube-face grid nor the zero set$"):
            nearest_direction_index(dirs, [1.0, 0.0, 0.0])

    def test_grid_sizes(self):
        assert grid_size(np.zeros((1, 3))) == grid_size([[-0.0, 0.0, 0.0]]) == 0
        assert [grid_size(cube_surface_directions(m)) for m in (1, 2, 3, 79)] == [1, 2, 3, 79]
