import cmath
import math

import numpy as np
import pytest

from conftest import reference_dense_block, reference_sphere_mesh

from dirh2.geometry import (
    KernelSpec,
    assemble_dense_matrix,
    build_sphere_mesh,
    dense_block,
    directional_kernel_value,
    kernel_value,
    mesh_to_off,
)


class TestSphereMesh:
    def test_octahedron(self):
        mesh = build_sphere_mesh(0)
        assert mesh.n_triangles == 8
        assert len(mesh.vertices) == 6

    def test_level4_dimension(self):
        assert build_sphere_mesh(4).n_triangles == 2048

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_counts_and_unit_vertices(self, level):
        mesh = build_sphere_mesh(level)
        assert mesh.n_triangles == 8 * 4**level
        assert np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0).max() < 1e-12

    def test_area_converges_to_sphere(self):
        # direct summation of triangle areas
        assert abs(build_sphere_mesh(2).areas.sum() - 4 * np.pi) < 0.05 * 4 * np.pi
        assert abs(build_sphere_mesh(3).areas.sum() - 4 * np.pi) < 0.05 * 4 * np.pi

    def test_normals_point_outward(self):
        mesh = build_sphere_mesh(2)
        assert (np.einsum("ij,ij->i", mesh.midpoints, mesh.normals) > 0).all()
        assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0).max() < 1e-12

    def test_refinement_quadruples_and_halves_edges(self):
        def max_edge(mesh):
            corners = mesh.vertices[mesh.triangles]
            edges = [corners[:, i] - corners[:, (i + 1) % 3] for i in range(3)]
            return max(np.linalg.norm(e, axis=1).max() for e in edges)

        prev = build_sphere_mesh(1)
        for level in (2, 3):
            cur = build_sphere_mesh(level)
            assert cur.n_triangles == 4 * prev.n_triangles
            ratio = max_edge(prev) / (2.0 * max_edge(cur))
            assert 1.0 / 1.2 <= ratio <= 1.2
            prev = cur

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    def test_equal_to_the_recursive_reference(self, level):
        mesh = build_sphere_mesh(level)
        vertices, triangles = reference_sphere_mesh(level)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.triangles.dtype == triangles.dtype
        assert np.array_equal(mesh.triangles, triangles)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_sphere_mesh(-1)
        with pytest.raises(ValueError):
            build_sphere_mesh(9)

    def test_off_dump(self):
        mesh = build_sphere_mesh(0)
        lines = mesh_to_off(mesh).splitlines()
        assert lines[0] == "6 8"
        assert len(lines) == 1 + 6 + 8


class TestKernelValue:
    def test_laplace_unit_distance(self):
        spec = KernelSpec("slp", 0.0)
        v = kernel_value(spec, np.array([1.0, 0, 0]), np.array([0.0, 0, 0]))
        assert abs(v - 1.0 / (4 * np.pi)) < 1e-15

    def test_helmholtz_half_distance(self):
        # exp(4i)/(2 pi), real part cos(4)/(2 pi)
        spec = KernelSpec("slp", 8.0)
        v = kernel_value(spec, np.array([0.5, 0, 0]), np.array([0.0, 0, 0]))
        assert abs(v - np.exp(4j) / (2 * np.pi)) < 1e-15
        assert abs(v.real - (-0.104032)) < 2e-6  # quoted value is 6-decimal rounded

    def test_dlp_orthogonal_normal(self):
        spec = KernelSpec("dlp", 3.0)
        v = kernel_value(
            spec, np.array([1.0, 0, 0]), np.array([0.0, 0, 0]), np.array([0.0, 0, 1.0])
        )
        assert v == 0.0

    def test_singular_point(self):
        x = np.array([0.3, 0.2, 0.1])
        with pytest.raises(ValueError):
            kernel_value(KernelSpec("slp", 1.0), x, x)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            KernelSpec("hankel", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("slp", -1.0)


class TestDirectionalKernel:
    def test_zero_direction_is_plain_kernel(self):
        spec = KernelSpec("slp", 5.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert directional_kernel_value(spec, np.zeros(3), x, y) == kernel_value(
                spec, x, y
            )

    def test_aligned_direction_removes_oscillation(self):
        spec = KernelSpec("slp", 7.0)
        x, y = np.array([2.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])
        c = (x - y) / np.linalg.norm(x - y)
        v = directional_kernel_value(spec, c, x, y)
        assert abs(v.imag) < 1e-15
        assert abs(v - 1.0 / (4 * np.pi * 2.0)) < 1e-15

    def test_orthogonal_direction(self):
        spec = KernelSpec("slp", 8.0)
        v = directional_kernel_value(
            spec, np.array([0.0, 1.0, 0]), np.array([1.0, 0, 0]), np.zeros(3)
        )
        assert abs(v - np.exp(8j) / (4 * np.pi)) < 1e-15

    def test_plane_wave_identity(self):
        # directional value times the plane wave recovers the kernel; points
        # on the unit sphere, the geometry everything else runs on
        spec = KernelSpec("slp", 6.0)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(10_000):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            c = rng.standard_normal(3)
            c /= np.linalg.norm(c)
            d = x - y
            lhs = directional_kernel_value(spec, c, x, y) * np.exp(1j * 6.0 * d @ c)
            ref = kernel_value(spec, x, y)
            worst = max(worst, abs(lhs - ref) / abs(ref))
        assert worst < 1e-14


class TestDenseMatrix:
    def test_octahedron_laplace(self):
        mesh = build_sphere_mesh(0)
        g = assemble_dense_matrix(mesh, KernelSpec("slp", 0.0))
        assert g.shape == (8, 8)
        assert np.isfinite(g).all()
        assert np.abs(g - g.T).max() < 1e-16
        assert (g.diagonal().real > 0).all()
        assert np.abs(g.diagonal().imag).max() == 0.0

    def test_entry_is_kernel_times_areas(self):
        mesh = build_sphere_mesh(1)
        spec = KernelSpec("slp", 2.0)
        g = assemble_dense_matrix(mesh, spec)
        expected = (
            kernel_value(spec, mesh.midpoints[0], mesh.midpoints[1])
            * mesh.areas[0]
            * mesh.areas[1]
        )
        assert g[0, 1] == expected

    def test_complex_symmetric_slp(self):
        mesh = build_sphere_mesh(2)
        g = assemble_dense_matrix(mesh, KernelSpec("slp", 2.0))
        assert np.abs(g - g.T).max() < 1e-14

    def test_slp_diagonal_rule(self):
        mesh = build_sphere_mesh(1)
        g = assemble_dense_matrix(mesh, KernelSpec("slp", 3.0))
        expected = mesh.areas ** 1.5 / (2.0 * np.sqrt(np.pi))
        assert np.allclose(g.diagonal(), expected, rtol=0, atol=1e-16)

    def test_dlp_combined_diagonal(self):
        mesh = build_sphere_mesh(1)
        g = assemble_dense_matrix(mesh, KernelSpec("dlp", 2.0))
        assert np.allclose(g.diagonal(), 0.5 * mesh.areas, rtol=0, atol=1e-16)
        entry = (
            kernel_value(
                KernelSpec("dlp", 2.0),
                mesh.midpoints[0],
                mesh.midpoints[3],
                mesh.normals[3],
            )
            * mesh.areas[0]
            * mesh.areas[3]
        )
        assert abs(g[0, 3] - entry) < 1e-14 * abs(entry)

    def test_dense_block_matches_full(self):
        mesh = build_sphere_mesh(1)
        spec = KernelSpec("dlp", 1.5)
        g = assemble_dense_matrix(mesh, spec)
        rows = np.array([1, 5, 7])
        cols = np.array([0, 5, 9])
        assert np.array_equal(dense_block(mesh, spec, rows, cols), g[np.ix_(rows, cols)])

    def test_chunked_assembly_identical(self, monkeypatch):
        # the assembly has dense_block's bits, signed zeros included; tiles of
        # 7 and 96 indices mirror off-diagonal tiles and leave ragged edges,
        # and at the default side of 512 the matrix is a single tile
        import dirh2.geometry

        mesh = build_sphere_mesh(3)
        everything = np.arange(mesh.n_triangles)
        chunks = (7, 96, dirh2.geometry.ASSEMBLY_CHUNK)
        for kind in ("slp", "dlp"):
            for kappa in (0.0, 8.0):
                spec = KernelSpec(kind, kappa)
                want = dense_block(mesh, spec, everything, everything).view(np.uint64)
                for chunk in chunks:
                    monkeypatch.setattr(dirh2.geometry, "ASSEMBLY_CHUNK", chunk)
                    got = assemble_dense_matrix(mesh, spec).view(np.uint64)
                    assert np.array_equal(got, want), (kind, kappa, chunk)


def entries_from_definition(mesh, spec, rows, cols):
    """Each entry on its own, from the kernel's definition in complex
    arithmetic: G(m_i, m_j) a_i a_j off the diagonal, and the self-term
    rules on it."""
    out = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            ai, aj = mesh.areas[i], mesh.areas[j]
            if i == j:
                out[a, b] = ai**1.5 / (2.0 * math.sqrt(math.pi)) if spec.kind == "slp" else 0.5 * ai
                continue
            d = [float(p - q) for p, q in zip(mesh.midpoints[i], mesh.midpoints[j])]
            r = math.sqrt(sum(x * x for x in d))
            g = cmath.exp(1j * spec.kappa * r) / (4.0 * math.pi * r)
            if spec.kind == "dlp":
                dn = sum(x * n for x, n in zip(d, mesh.normals[j]))
                g *= (1.0 - 1j * spec.kappa * r) / (r * r) * dn
            out[a, b] = g * ai * aj
    return out


class TestDenseBlockArithmetic:
    @pytest.fixture(scope="class")
    def mesh(self):
        return build_sphere_mesh(3)

    def index_sets(self, n):
        rng = np.random.default_rng(11)
        rows = rng.permutation(n)[:40]  # unsorted
        cols = np.concatenate([rows[5:25], rng.integers(0, n, 20), rows[:3], rows[:3]])  # diagonal, repeated
        return [(rows, cols), (cols, rows), (np.arange(16), np.arange(16)), (rows[:1], rows[:1]), (rows[:7], cols[:0])]

    @pytest.mark.parametrize("kind", ["slp", "dlp"])
    @pytest.mark.parametrize("kappa", [0.0, 8.0])
    def test_entries_match_the_definition(self, mesh, kind, kappa):
        spec = KernelSpec(kind, kappa)
        sets = self.index_sets(mesh.n_triangles)
        assert (sets[0][0][:, None] == sets[0][1]).any()  # diagonal entries
        for rows, cols in sets:
            got = dense_block(mesh, spec, rows, cols)
            want = entries_from_definition(mesh, spec, rows, cols)
            assert got.shape == (len(rows), len(cols))
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("kappa", [0.0, 2.5, 8.0])
    def test_single_layer_bits_of_the_complex_form(self, mesh, kappa):
        spec = KernelSpec("slp", kappa)
        for rows, cols in self.index_sets(mesh.n_triangles):
            got = dense_block(mesh, spec, rows, cols)
            want = reference_dense_block(mesh, spec, rows, cols)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kappa", [0.0, 8.0])
    def test_double_layer_equals_the_complex_form(self, mesh, kappa):
        # the bits follow the documented sums; the values are those of the
        # complex form wherever einsum sums in that order
        spec = KernelSpec("dlp", kappa)
        for rows, cols in self.index_sets(mesh.n_triangles):
            got = dense_block(mesh, spec, rows, cols)
            want = reference_dense_block(mesh, spec, rows, cols)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_block_bits_do_not_depend_on_the_cut(self, mesh):
        for kind in ("slp", "dlp"):
            spec = KernelSpec(kind, 8.0)
            rows, cols = self.index_sets(mesh.n_triangles)[0]
            whole = dense_block(mesh, spec, rows, cols)
            for k in range(0, len(rows), 7):
                part = dense_block(mesh, spec, rows[k : k + 7], cols[::-1])
                same = np.ascontiguousarray(whole[k : k + 7, ::-1])
                assert np.array_equal(part.view(np.uint64), same.view(np.uint64))
