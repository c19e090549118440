"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s
tests/test_acceptance.py`` to see them all).  Published reference values
from the source experiments are logged next to our measurements where they
exist; they are not asserted bit-exactly because the dense surrogate uses a
different quadrature by design.
"""

import time

import numpy as np
import pytest

from conftest import ETA1, ETA2, dense_accessor, line_system, sphere_system, weighted_strip

from dirh2.assembly import assemble_dh2_by_interpolation
from dirh2.blocktree import build_block_tree, is_admissible, sparsity_stats
from dirh2.cli import main, run_aca_comparison, run_compression_experiment
from dirh2.clustering import level_diameter
from dirh2.compression import (
    CompressionConfig,
    build_basis,
    compress,
    compute_block_weights,
    farfield_sets,
    subtree_tolerance_sq,
)
from dirh2.dh2core import expand_dense, expand_factor, storage_report
from dirh2.directions import build_directions
from dirh2.geometry import KernelSpec, assemble_dense_matrix, build_sphere_mesh
from dirh2.linalg import power_iteration_norm

EPS = 1e-4

# reference values reported for the original experiments (same parameters,
# different quadrature): relative spectral errors at n=2048 and the
# storage-per-DoF figures of the cross-approximation comparison at n=8192
REFERENCE_SLP_2048 = 6.4e-6
REFERENCE_DLP_2048 = 8.8e-6
REFERENCE_ACA_MEM_8192 = 30.0
REFERENCE_DH2_MEM_8192 = 15.7


def spectral(dense, seed=0):
    return power_iteration_norm(
        lambda v: dense @ v, lambda v: dense.conj().T @ v, dense.shape[0], 50, seed
    )


@pytest.fixture(scope="module")
def slp_2048():
    report, a = run_compression_experiment(4, 8.0, EPS, seed=1)
    return report, a


@pytest.fixture(scope="module")
def scaling_runs(slp_2048):
    """(n, k_max, total storage entries, sparsity stats, tree data) for the
    three sizes of the scaling study; the 2048 point reuses the slp run."""
    t0 = time.time()
    rows = {}

    def measure(level, kappa):
        mesh, tree, dirs, bt = sphere_system(level, kappa)
        dense = assemble_dense_matrix(mesh, KernelSpec("slp", kappa))
        a = compress(
            dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=EPS), seed=1
        )
        k_max = max([*a.row_basis.rank.values(), *a.col_basis.rank.values()], default=0)
        stats = sparsity_stats(tree, bt)
        lowfreq = [
            int(stats.row_counts[cid])
            for cid, level in enumerate(tree.level.tolist())
            if kappa * level_diameter(tree, level) <= 1.0
        ]
        leaf_rows = stats.row_counts[np.diff(tree.son_ptr) == 0].tolist()
        return {
            "n": mesh.n_triangles,
            "k_max": k_max,
            "entries": storage_report(a).total,
            "lowfreq_rows": lowfreq,
            "leaf_row_max": max(leaf_rows),
        }

    rows[512] = measure(3, 4.0)
    report, a = slp_2048
    stats = sparsity_stats(a.tree, a.blocks)
    lowfreq = [
        int(stats.row_counts[cid])
        for cid, level in enumerate(a.tree.level.tolist())
        if 8.0 * level_diameter(a.tree, level) <= 1.0
    ]
    rows[2048] = {
        "n": 2048,
        "k_max": report.k_max,
        "entries": int(report.mem_per_dof_kib * 64 * 2048),
        "lowfreq_rows": lowfreq,
        "leaf_row_max": int(stats.row_counts[np.diff(a.tree.son_ptr) == 0].max()),
    }
    rows[8192] = measure(5, 16.0)
    rows["elapsed"] = time.time() - t0
    return rows


class TestAcceptance:
    def test_criterion_01_oracle_equivalence(self):
        t0 = time.time()
        worst = 0.0
        for level, n in ((0, 8), (2, 128), (3, 512)):
            for kappa in (0.0, 2.0, 4.0):
                mesh, tree, dirs, bt = sphere_system(level, kappa)
                spec = KernelSpec("slp", kappa)
                dense = assemble_dense_matrix(mesh, spec)
                rng = np.random.default_rng(17)
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                built = [
                    assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 2),
                    compress(
                        dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=EPS)
                    ),
                ]
                for a in built:
                    expanded = expand_dense(a)
                    scale = np.linalg.norm(expanded, 2) * np.linalg.norm(x)
                    for y_fast, y_ref in (
                        (a.matvec(x), expanded @ x),
                        (a.matvec_adjoint(x), expanded.conj().T @ x),
                    ):
                        worst = max(worst, np.linalg.norm(y_fast - y_ref) / scale)
        elapsed = time.time() - t0
        print(
            f"CRITERION 1: PASS - fast matvec vs dense expansion, worst rel err "
            f"{worst:.3e} <= 1e-12 over n in (8,128,512) x kappa in (0,2,4), "
            f"{elapsed:.1f}s (< 30s)"
        )
        assert worst <= 1e-12
        assert elapsed < 30.0

    def test_criterion_02_compression_accuracy(self, slp_2048):
        t0 = time.time()
        report, _ = slp_2048
        dlp_report, _ = run_compression_experiment(4, 8.0, EPS, kernel="dlp", seed=1)
        elapsed = time.time() - t0
        print(
            f"CRITERION 2: "
            f"{'PASS' if max(report.rel_spectral_error, dlp_report.rel_spectral_error) <= EPS else 'FAIL'}"
            f" - n=2048 kappa=8 eps=1e-4: slp err {report.rel_spectral_error:.2e}"
            f" (reference {REFERENCE_SLP_2048:.1e}), dlp err "
            f"{dlp_report.rel_spectral_error:.2e} (reference {REFERENCE_DLP_2048:.1e});"
            f" slp mem/DoF {report.mem_per_dof_kib:.1f} KiB; {elapsed:.0f}s"
        )
        assert report.rel_spectral_error <= EPS
        assert dlp_report.rel_spectral_error <= EPS
        # published storage figure holds to order of magnitude only (the
        # dense surrogate uses a different quadrature by design)
        assert 24.2 / 10 < report.mem_per_dof_kib < 24.2 * 10
        assert elapsed < 600.0

    def test_criterion_03_error_bound_realized(self):
        mesh, tree, dirs, bt = sphere_system(3, 4.0)
        dense = assemble_dense_matrix(mesh, KernelSpec("slp", 4.0))
        a, row_state, col_state = compress(
            dense_accessor(dense),
            tree,
            dirs,
            bt,
            CompressionConfig(eps=EPS),
            return_state=True,
        )
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        violations = 0
        checked = 0
        for basis, state, mat, side in (
            (a.row_basis, row_state, dense, "row"),
            (a.col_basis, col_state, dense.conj().T, "col"),
        ):
            farfield = farfield_sets(tree, dirs, bt, side)
            for key in basis.rank:
                strip = weighted_strip(mat, tree, farfield, weights, key)
                q = expand_factor(basis, tree, dirs, *key)
                err = np.linalg.norm(strip - q @ (q.conj().T @ strip), 2)
                bound = np.sqrt(subtree_tolerance_sq(state, tree, dirs, *key))
                slack = 1e-13 * max(1.0, np.linalg.norm(strip, 2))
                checked += 1
                if err > bound * (1 + 1e-9) + slack:
                    violations += 1
        print(
            f"CRITERION 3: {'PASS' if violations == 0 else 'FAIL'} - realized "
            f"truncation budgets cover all projection errors, n=512 kappa=4, "
            f"{checked} (cluster, direction) pairs, {violations} violations"
        )
        assert checked > 0
        assert violations == 0

    def test_criterion_04_pythagoras_split(self):
        def run_split_checks(dense, tree, dirs, bt, require_two_sons):
            cfg = CompressionConfig(eps=EPS)
            weights = compute_block_weights(dense_accessor(dense), tree, bt)
            basis, _ = build_basis(dense_accessor(dense), tree, dirs, bt, cfg, weights, side="row")
            farfield = farfield_sets(tree, dirs, bt, "row")
            checked = 0
            worst = 0.0
            for key in basis.rank:
                cid, c = key
                cluster = tree[cid]
                if cluster.is_leaf:
                    continue
                if require_two_sons and len(cluster.sons) != 2:
                    continue
                strip = weighted_strip(dense, tree, farfield, weights, key)
                q = expand_factor(basis, tree, dirs, cid, c)
                lhs = np.linalg.norm(strip - q @ (q.conj().T @ strip), "fro") ** 2
                c2 = dirs.son_index(cluster.level, c)
                rhs = 0.0
                hat_rows = []
                for son in cluster.sons:
                    pos = np.searchsorted(cluster.index_set, tree[son].index_set)
                    sub = strip[pos]
                    qs = expand_factor(basis, tree, dirs, son, c2)
                    rhs += np.linalg.norm(sub - qs @ (qs.conj().T @ sub), "fro") ** 2
                    hat_rows.append(qs.conj().T @ sub)
                ghat = np.vstack(hat_rows)
                qhat = np.vstack([basis.transfer[(son, c)] for son in cluster.sons])  # the pass's factor
                rhs += np.linalg.norm(ghat - qhat @ (qhat.conj().T @ ghat), "fro") ** 2
                # pairs kept at full numerical rank have both sides at
                # squared-roundoff scale: the identity holds as 0 == 0 there
                # and the 1e-10-relative comparison applies to real residuals
                if max(lhs, rhs) > np.linalg.norm(strip, "fro") ** 2 * 1e-20:
                    worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
                checked += 1
            return checked, worst

        # the segment geometry yields a binary tree: two-son clusters at n=512
        dense, tree, dirs, bt = line_system(512, 4.0)
        assert set(np.diff(tree.son_ptr).tolist()) <= {0, 2}
        two_son_checked, worst_line = run_split_checks(dense, tree, dirs, bt, True)
        # generalized energy split on a multi-son sphere tree (smaller leaves
        # so blocks appear above the leaf level)
        mesh, tree_s, dirs_s, bt_s = sphere_system(3, 4.0, leaf_size=4)
        dense_s = assemble_dense_matrix(mesh, KernelSpec("slp", 4.0))
        multi_checked, worst_sphere = run_split_checks(dense_s, tree_s, dirs_s, bt_s, False)
        assert multi_checked > 0
        print(
            f"CRITERION 4: PASS - Frobenius energy split exact: "
            f"{two_son_checked} two-son clusters (n=512 segment, worst rel dev "
            f"{worst_line:.2e}), {multi_checked} multi-son clusters (sphere, "
            f"worst {worst_sphere:.2e}); tolerance 1e-10"
        )
        assert two_son_checked > 0
        assert worst_line <= 1e-10
        assert worst_sphere <= 1e-10

    def test_criterion_05_exact_recovery(self):
        mesh, tree, dirs, bt = sphere_system(3, 4.0)
        built = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 4.0), tree, dirs, bt, 3
        )
        dense = expand_dense(built)
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-12))
        ranks = [*a.row_basis.rank.values(), *a.col_basis.rank.values()]
        err = np.linalg.norm(expand_dense(a) - dense, 2) / np.linalg.norm(dense, 2)
        print(
            f"CRITERION 5: {'PASS' if err <= 1e-10 and max(ranks) <= 27 else 'FAIL'}"
            f" - recompression of an exactly nested matrix: rel err {err:.2e}"
            f" (<= 1e-10), max rank {max(ranks)} (<= 27)"
        )
        assert err <= 1e-10
        assert max(ranks) <= 27

    def test_criterion_06_direction_covering(self):
        _, tree, _, _ = sphere_system(4, 8.0)
        from dirh2.clustering import level_diameter

        deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
        rng = np.random.default_rng(23)
        checked_levels = 0
        for kappa in (8.0, 16.0, 32.0):
            hier = build_directions(deltas, kappa, ETA1)
            for level, dirs_l in enumerate(hier.levels):
                if dirs_l.shape[0] == 1 and not dirs_l.any():
                    continue
                z = rng.standard_normal((100_000, 3))
                z /= np.linalg.norm(z, axis=1)[:, None]
                d2 = ((z[:, None, :] - dirs_l[None, :, :]) ** 2).sum(axis=2)
                worst = float(np.sqrt(d2.min(axis=1)).max())
                assert worst <= ETA1 / (kappa * deltas[level]), (kappa, level)
                checked_levels += 1
        # non-expansiveness of the sphere projection
        x = rng.standard_normal((10_000, 3))
        y = rng.standard_normal((10_000, 3))
        x *= (1.0 + rng.random(10_000))[:, None] / np.linalg.norm(x, axis=1)[:, None]
        y *= (1.0 + rng.random(10_000))[:, None] / np.linalg.norm(y, axis=1)[:, None]
        lhs = np.linalg.norm(
            x / np.linalg.norm(x, axis=1)[:, None] - y / np.linalg.norm(y, axis=1)[:, None],
            axis=1,
        )
        nonexp = (lhs <= np.linalg.norm(x - y, axis=1) + 1e-14).all()
        print(
            f"CRITERION 6: {'PASS' if nonexp else 'FAIL'} - covering bound on "
            f"{checked_levels} direction grids (100k samples each), projection "
            f"non-expansive on 10k pairs"
        )
        assert checked_levels > 0
        assert nonexp

    def test_criterion_07_low_frequency_degeneration(self):
        mesh, tree, dirs, bt = sphere_system(3, 0.0)
        counts = [dirs.count(l) for l in range(tree.depth + 1)]
        assert counts == [1] * (tree.depth + 1)
        assert all(not dirs.levels[l].any() for l in range(tree.depth + 1))
        # parabolic condition can never exclude a block at kappa=0
        _, _, _, bt_std = sphere_system(3, 0.0, parabolic=False)
        same_structure = len(bt) == len(bt_std) and all(
            (a.t, a.s, a.status) == (b.t, b.s, b.status)
            for a, b in zip(bt.blocks, bt_std.blocks)
        )
        dense = assemble_dense_matrix(mesh, KernelSpec("slp", 0.0))
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=EPS))
        single = all(
            c == 0 for _, c in a.row_basis.rank
        ) and all(c == 0 for _, c in a.col_basis.rank)
        print(
            f"CRITERION 7: {'PASS' if same_structure and single else 'FAIL'} - "
            f"kappa=0: direction counts {counts}, per-cluster single zero-direction "
            f"bases, block structure identical with and without the parabolic "
            f"condition"
        )
        assert same_structure
        assert single

    def test_criterion_08_storage_scaling(self, scaling_runs):
        q = {
            n: scaling_runs[n]["entries"] / (scaling_runs[n]["n"] * scaling_runs[n]["k_max"])
            for n in (512, 2048, 8192)
        }
        r1 = q[2048] / q[512]
        r2 = q[8192] / q[2048]
        ok = r1 <= 2.0 and r2 <= 2.0
        print(
            f"CRITERION 8 (storage): {'PASS' if ok else 'FAIL'} - "
            f"storage/(n*k_max) = {q[512]:.1f} -> {q[2048]:.1f} -> {q[8192]:.1f} "
            f"(k_max {scaling_runs[512]['k_max']}/{scaling_runs[2048]['k_max']}/"
            f"{scaling_runs[8192]['k_max']}), growth {r1:.2f} and {r2:.2f} per "
            f"refinement (<= 2 required); elapsed {scaling_runs['elapsed']:.0f}s "
            f"(< 1800s)"
        )
        assert scaling_runs["elapsed"] < 1800.0
        assert r1 <= 2.0, (
            "storage/(n*k_max) more than doubles from n=512 to n=2048: "
            f"{q[512]:.1f} -> {q[2048]:.1f} (x{r1:.2f}). Storage of about n^2 "
            "makes q about n/k_max and this ratio about 4*k_max(512)/k_max(2048); "
            "that happens when the admissible blocks sit on clusters no larger "
            "than their ranks, whose bases stay at full rank and whose coupling "
            "matrices are as large as the blocks they stand for."
        )
        assert r2 <= 2.0

    def test_criterion_08_sparsity_scaling(self, scaling_runs):
        lowfreq = {n: scaling_runs[n]["lowfreq_rows"] for n in (512, 2048, 8192)}
        if all(len(v) == 0 for v in lowfreq.values()):
            # kappa ~ sqrt(n) keeps kappa times the leaf level's diameter at
            # 2.78, 2.09 and 2.61 > 1 for n = 512, 2048 and 8192, so the
            # low-frequency cluster set is empty at all three sizes and the
            # clause holds vacuously; the leaf-level row maxima are logged as
            # supplementary data (they show the same saturation onset between
            # the two smallest sizes as the storage metric, and settle from
            # n=2048 on)
            maxima = [scaling_runs[n]["leaf_row_max"] for n in (512, 2048, 8192)]
            settle = maxima[2] <= 2.0 * maxima[1]
            print(
                f"CRITERION 8 (sparsity): PASS - low-frequency cluster set "
                f"(kappa*diam <= 1) empty at all sizes, clause vacuous; "
                f"supplementary leaf-level max row counts {maxima}"
                f" (2048->8192 within factor 2: {settle})"
            )
        else:
            maxima = [max(v) for v in lowfreq.values() if v]
            ratio = max(maxima) / min(maxima)
            print(
                f"CRITERION 8 (sparsity): {'PASS' if ratio <= 2.0 else 'FAIL'} - "
                f"low-frequency max row counts {maxima}, spread x{ratio:.2f}"
            )
            assert ratio <= 2.0

    def test_criterion_09_aca_comparison(self):
        t0 = time.time()
        dh2_report, aca_report = run_aca_comparison(4, 8.0, EPS, seed=1)
        elapsed = time.time() - t0
        ok = (
            dh2_report.rel_spectral_error <= EPS
            and aca_report.rel_spectral_error <= EPS
            and dh2_report.mem_per_dof_kib < aca_report.mem_per_dof_kib
        )
        print(
            f"CRITERION 9: {'PASS' if ok else 'FAIL'} - standard admissibility, "
            f"n=2048: nested {dh2_report.mem_per_dof_kib:.1f} KiB/DoF @ err "
            f"{dh2_report.rel_spectral_error:.2e} vs cross approximation "
            f"{aca_report.mem_per_dof_kib:.1f} KiB/DoF @ err "
            f"{aca_report.rel_spectral_error:.2e} (published n=8192 figures: "
            f"{REFERENCE_DH2_MEM_8192} vs {REFERENCE_ACA_MEM_8192} KiB/DoF); "
            f"{elapsed:.0f}s"
        )
        assert dh2_report.rel_spectral_error <= EPS
        assert aca_report.rel_spectral_error <= EPS
        assert dh2_report.mem_per_dof_kib < aca_report.mem_per_dof_kib

    def test_criterion_10_determinism(self, tmp_path):
        args = [
            "compress", "--level", "3", "--kappa", "4.0", "--eps", "1e-4",
            "--seed", "11",
        ]
        csv1, csv2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        assert main(args + ["--out", str(csv1), "--save", str(d1)]) == 0
        assert main(args + ["--out", str(csv2), "--save", str(d2)]) == 0

        timing_fields = ("t_row", "t_col", "t_proj", "t_mvm")
        header = csv1.read_text().splitlines()[0].split(",")
        idx = [header.index(f) for f in timing_fields]

        def masked(path):
            lines = path.read_text().strip().splitlines()
            rows = []
            for line in lines[1:]:
                fields = line.split(",")
                for i in idx:
                    fields[i] = "<t>"
                rows.append(",".join(fields))
            return lines[0], rows

        csv_equal = masked(csv1) == masked(csv2)
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        payload_equal = names1 == names2 and all(
            (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names1
        )
        print(
            f"CRITERION 10: {'PASS' if csv_equal and payload_equal else 'FAIL'} - "
            f"reruns byte-identical: CSV (wall-clock timing columns excluded per "
            f"the reporting contract), {len(names1)} container files compared "
            f"byte-for-byte"
        )
        assert csv_equal
        assert payload_equal
