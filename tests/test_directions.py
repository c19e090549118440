import numpy as np
import pytest

from dirh2.directions import (
    build_directions,
    cube_surface_directions,
    nearest_direction_index,
    project_to_sphere,
)


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
        dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        assert nearest_direction_index(dirs, [0.0, 1.0, 0.0]) == 1  # (-1,0,0) smaller
