import numpy as np
import pytest

from dirh2.cli import ExperimentReport, main, run_aca_comparison, run_compression_experiment
from dirh2.geometry import KernelSpec, assemble_dense_matrix, build_sphere_mesh
from dirh2.linalg import read_cmx

TIMING_FIELDS = ("t_row", "t_col", "t_proj", "t_mvm")


def mask_timings(csv_text):
    """Blank the wall-clock columns; everything else must be reproducible."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    idx = [header.index(f) for f in TIMING_FIELDS if f in header]
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        for i in idx:
            fields[i] = "<t>"
        out.append(",".join(fields))
    return "\n".join(out)


class TestSubcommands:
    def test_mesh(self, tmp_path, capsys):
        out = tmp_path / "mesh.off"
        assert main(["mesh", "--level", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "18 32"
        assert "triangles=32" in capsys.readouterr().out

    def test_dense_writes_cmx(self, tmp_path):
        out = tmp_path / "g.cmx"
        assert main(
            ["dense", "--level", "1", "--kappa", "2.0", "--kernel", "slp", "--out", str(out)]
        ) == 0
        g = read_cmx(out)
        mesh = build_sphere_mesh(1)
        assert np.array_equal(g, assemble_dense_matrix(mesh, KernelSpec("slp", 2.0)))

    def test_assemble_and_matvec(self, tmp_path, capsys):
        container = tmp_path / "a"
        assert main(
            ["assemble", "--level", "2", "--kappa", "2.0", "--order", "2", "--out", str(container)]
        ) == 0
        assert (container / "manifest.json").exists()
        yout = tmp_path / "y.cmx"
        assert main(["matvec", str(container), "--seed", "7", "--out", str(yout)]) == 0
        assert read_cmx(yout).shape == (128, 1)
        assert "matvec n=128" in capsys.readouterr().out

    def test_stats(self, tmp_path):
        out = tmp_path / "stats"
        assert main(
            ["stats", "--level", "2", "--kappa", "4.0", "--out", str(out)]
        ) == 0
        assert (out / "tree.jsonl").exists()
        blocks = (out / "blocks.csv").read_text().splitlines()
        assert blocks[0] == "tLevel,tId,sId,status,directionIndex"
        levels = (out / "levels.csv").read_text().splitlines()
        assert levels[0] == "level,directions,max_row,mean_row"

    def test_compress_report(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(
            [
                "compress", "--level", "2", "--kappa", "2.0", "--eps", "1e-4",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ExperimentReport.header()
        fields = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert fields["n"] == "128"
        assert fields["kernel"] == "slp"
        assert float(fields["rel_spectral_error"]) <= 1e-4
        assert "e-" in fields["rel_spectral_error"]  # scientific notation

    def test_compare_aca(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            [
                "compare-aca", "--level", "2", "--kappa", "2.0", "--eps", "1e-4",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method," + ExperimentReport.header()
        assert lines[1].startswith("dh2,")
        assert lines[2].startswith("aca,")

    def test_error_path_is_one_line(self, tmp_path, capsys):
        rc = main(["mesh", "--level", "1"])  # missing --out
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    @pytest.mark.parametrize("option, value", [("--eta2", "nan"), ("--eta2", "0"), ("--kappa", "nan")])
    def test_stats_rejects_bad_parameters(self, tmp_path, capsys, option, value):
        rc = main(["stats", "--level", "2", "--kappa", "4.0", option, value, "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    def test_dense_cap(self, tmp_path, capsys):
        rc = main(["dense", "--level", "6", "--out", str(tmp_path / "g.cmx")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDeterminism:
    def test_csv_reports_identical_up_to_timings(self, tmp_path):
        args = [
            "compress", "--level", "2", "--kappa", "2.0", "--eps", "1e-4",
            "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert mask_timings(out1.read_text()) == mask_timings(out2.read_text())

    def test_saved_containers_byte_identical(self, tmp_path):
        args = [
            "compress", "--level", "2", "--kappa", "2.0", "--eps", "1e-4",
            "--seed", "11",
        ]
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        assert main(args + ["--out", str(tmp_path / "x1.csv"), "--save", str(d1)]) == 0
        assert main(args + ["--out", str(tmp_path / "x2.csv"), "--save", str(d2)]) == 0
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestReportApi:
    def test_run_compression_experiment_fields(self):
        report, a = run_compression_experiment(2, 2.0, 1e-4, seed=5)
        assert report.n == 128
        assert report.rel_spectral_error is not None
        assert report.rel_spectral_error <= 1e-4
        assert len(report.direction_counts) == a.tree.depth + 1
        assert len(report.sparsity_max) == a.tree.depth + 1
        assert report.k_max == max(
            [*a.row_basis.rank.values(), *a.col_basis.rank.values()], default=0
        )

    def test_block_weights_timed_but_not_a_csv_column(self):
        # a wall-clock column past the four that criterion 10 masks would
        # make reruns differ
        dh2, aca = run_aca_comparison(2, 2.0, 1e-4, seed=5)
        assert dh2.t_weights > 0.0
        assert aca.t_weights == 0.0
        assert "t_weights" not in ExperimentReport.header().split(",")
        assert len(dh2.row().split(",")) == len(ExperimentReport.header().split(","))

    def test_kappa_zero_single_direction_everywhere(self):
        report, _ = run_compression_experiment(2, 0.0, 1e-4, seed=5)
        assert all(c == 1 for c in report.direction_counts)

    def test_row_format(self):
        report, _ = run_compression_experiment(2, 2.0, 1e-4, seed=5)
        row = report.row().split(",")
        header = ExperimentReport.header().split(",")
        assert len(row) == len(header)
        assert row[header.index("standard_admissibility")] == "false"
