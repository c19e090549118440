"""Tests of the benchmark itself, at sphere level 3 (n = 512).

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402
from dirh2 import CompressionConfig, compress, load_dh2, save_dh2, storage_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# At n = 512 every configuration stores more than the dense matrix (8.05 to
# 11.1 KiB/DoF against 8), so this one check is expected to fail there.
SMALL_N_EXCEPTIONS = {"storage_below_dense"}


def same_products(a, b, x) -> bool:
    """Two matrices apply bitwise equal, forward and adjoint."""
    return np.array_equal(a.matvec(x), b.matvec(x)) and np.array_equal(a.matvec_adjoint(x), b.matvec_adjoint(x))


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], level=3)


@pytest.fixture(scope="module")
def directional512():
    w = small("apply-dir2048")
    system = workloads.set_up(w, workloads.Trace())
    a = compress(lambda r, c: system.dense[np.ix_(r, c)], system.tree, system.dirs, system.bt, CompressionConfig(w.eps))
    return w, system, a


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_small_run_passes_checks_and_reports_every_metric(name, traced, tmp_path):
    result = workloads.run(name, small(name), seed=3, seconds=0.2, traced=traced, out_dir=tmp_path)
    failed = {k for k, ok in result["checks"].items() if not ok}
    assert failed <= SMALL_N_EXCEPTIONS
    assert result["failed"] == len(failed)
    assert result["attempted"] > len(result["checks"])
    assert workloads.MIN_ROUNDS <= result["rounds"] <= workloads.WORKLOADS[name].rounds
    expected = SPEC["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if traced:
        trace = json.loads((tmp_path / f"trace-{name}-seed3.json").read_text())
        assert {"compression.compress", "compression.build_basis_row", "dh2core.matvec"} <= {
            s["name"] for s in trace["spans"]
        }


def test_scaled_coupling_fails_error_check(directional512):
    w, system, a = directional512
    rng = lambda: np.random.default_rng(5)
    iters = workloads.ERROR_ITERATIONS
    assert checks.relative_spectral_error(system.dense, a.matvec, a.matvec_adjoint, rng(), iters) <= w.eps
    bid = max(a.coupling, key=lambda b: np.linalg.norm(a.coupling[b], 2))
    damaged = dataclasses.replace(a, coupling={**a.coupling, bid: 1.01 * a.coupling[bid]})
    err = checks.relative_spectral_error(system.dense, damaged.matvec, damaged.matvec_adjoint, rng(), iters)
    assert err > w.eps
    x = np.random.default_rng(6).standard_normal(a.n) + 0j
    assert same_products(a, a, x)
    assert not same_products(a, damaged, x)


def test_wrong_kappa_fails_entry_check(directional512):
    w, system, _ = directional512
    assert checks.check_entries(system.mesh, system.dense, w.kind, w.kappa, np.random.default_rng(1))
    assert not checks.check_entries(system.mesh, system.dense, w.kind, 1.01 * w.kappa, np.random.default_rng(1))
    assert not checks.check_entries(system.mesh, system.dense, "slp", w.kappa, np.random.default_rng(1))


def test_adjoint_check_rejects_a_plain_transpose(directional512):
    _, _, a = directional512
    rng = np.random.default_rng(2)
    x, y = (rng.standard_normal(a.n) + 1j * rng.standard_normal(a.n) for _ in range(2))
    assert checks.check_adjoint(x, a.matvec(x), y, a.matvec_adjoint(y))
    assert not checks.check_adjoint(x, a.matvec(x), y, a.matvec_adjoint(y.conj()).conj())


def test_storage_recount_catches_missing_and_misshapen_arrays(directional512):
    _, _, a = directional512
    kib = storage_report(a).mem_per_dof_kib(a.n)
    assert checks.check_storage_recount(a, kib)
    assert not checks.check_storage_recount(a, 1.01 * kib)
    first = min(a.nearfield)
    dropped = dataclasses.replace(a, nearfield={k: v for k, v in a.nearfield.items() if k != first})
    assert not checks.check_storage_recount(dropped, storage_report(dropped).mem_per_dof_kib(a.n))
    bid = min(a.coupling)
    padded = np.pad(a.coupling[bid], ((0, 1), (0, 0)))
    misshapen = dataclasses.replace(a, coupling={**a.coupling, bid: padded})
    assert not checks.check_storage_recount(misshapen, storage_report(misshapen).mem_per_dof_kib(a.n))


def test_directional_premise_check():
    system = workloads.set_up(small("compress-slp2048"), workloads.Trace())
    a = compress(lambda r, c: system.dense[np.ix_(r, c)], system.tree, system.dirs, system.bt, CompressionConfig(1e-4))
    assert not checks.check_directional(a)


def test_container_round_trip_applies_bitwise_equal(directional512, tmp_path):
    _, _, a = directional512
    save_dh2(a, tmp_path / "c")
    x = np.random.default_rng(4).standard_normal(a.n) + 1j
    assert same_products(a, load_dh2(tmp_path / "c"), x)


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", "apply-dir2048", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
