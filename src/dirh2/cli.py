"""Command-line experiment harness.

Runs the full pipeline (sphere mesh, dense surrogate, trees and directions,
compression or interpolation assembly, matvec, error and storage report) and
emits CSV reports plus the file formats of the library (CMX1 matrices,
DH2v5 containers, JSON-lines tree dumps, block CSV dumps).

All numeric report fields except wall-clock timings are deterministic for a
fixed flag set and seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .blocktree import blocks_to_csv, build_block_tree, sparsity_stats
from .clustering import build_cluster_tree, level_diameter, tree_to_jsonl
from .compression import CompressionConfig, aca_compress, compress
from .dh2core import load_dh2, save_dh2, storage_report
from .directions import build_directions
from .geometry import KernelSpec, assemble_dense_matrix, build_sphere_mesh, write_off
from .assembly import assemble_dh2_by_interpolation
from .linalg import power_iteration_norm, write_cmx

__all__ = ["ExperimentReport", "run_compression_experiment", "run_aca_comparison", "main"]

DENSE_ORACLE_CAP = 8192
ERROR_POWER_ITERATIONS = 50


@dataclass
class ExperimentReport:
    n: int
    kappa: float
    eps: float
    eta1: float
    eta2: float
    zeta: float
    leaf_size: int
    kernel: str
    standard_admissibility: bool
    seed: int
    t_row: float  # row basis, with the couplings formed from its reduced rows
    t_col: float  # column basis
    t_proj: float  # nearfield reads (for the ACA baseline: the whole approximation)
    t_mvm: float
    k_max: int
    mem_per_dof_kib: float
    rel_spectral_error: float | None
    direction_counts: list[int]
    sparsity_max: list[int]
    # the block weights' time (0 for the ACA baseline); the last field, and not a CSV column,
    # since reruns compare the CSV with only the four timing columns above masked
    t_weights: float = 0.0

    @staticmethod
    def header() -> str:
        return ",".join(f.name for f in fields(ExperimentReport)[:-1])

    def row(self) -> str:
        return ",".join(_format_field(f.name, getattr(self, f.name)) for f in fields(self)[:-1])


def _format_field(name: str, value) -> str:
    if value is None:
        return ""
    if name == "rel_spectral_error":
        return f"{value:.6e}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _pipeline(level, kappa, eta1, eta2, leaf_size, parabolic):
    # boxes from the midpoints themselves: the surrogate matrix only ever
    # evaluates at midpoints, so they are the discrete supports
    mesh = build_sphere_mesh(level)
    tree = build_cluster_tree(mesh.midpoints, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, eta1)
    bt = build_block_tree(tree, dirs, kappa, eta1, eta2, parabolic=parabolic)
    return mesh, tree, dirs, bt


def relative_spectral_error(dense: np.ndarray, apply_approx, apply_approx_h, seed: int) -> float:
    n = dense.shape[0]
    # A^H v as (v^H A)^H reads A in place; A.conj().T @ v copies all n^2 entries
    dense_h = lambda v: (v.conj() @ dense).conj()
    err = power_iteration_norm(
        lambda v: dense @ v - apply_approx(v),
        lambda v: dense_h(v) - apply_approx_h(v),
        n,
        ERROR_POWER_ITERATIONS,
        seed,
    )
    ref = power_iteration_norm(
        lambda v: dense @ v,
        dense_h,
        n,
        ERROR_POWER_ITERATIONS,
        seed,
    )
    return err / ref


def run_compression_experiment(
    level: int,
    kappa: float,
    eps: float,
    eta1: float = 20.0,
    eta2: float = 5.0,
    zeta: float = 0.3,
    leaf_size: int = 16,
    kernel: str = "slp",
    standard_admissibility: bool = False,
    seed: int = 1,
    save_dir: str | None = None,
):
    """Compress the dense surrogate and measure error and storage.

    Returns (report, dh2_matrix).
    """
    system = _dense_system(level, kappa, eta1, eta2, leaf_size, kernel, standard_admissibility)
    return _compression_run(
        system, kappa, eps, eta1, eta2, zeta, leaf_size, kernel, standard_admissibility, seed, save_dir
    )


def _dense_system(level, kappa, eta1, eta2, leaf_size, kernel, standard_admissibility):
    """The structures of ``_pipeline`` and the dense matrix, below the
    dense-oracle cap."""
    mesh, tree, dirs, bt = _pipeline(
        level, kappa, eta1, eta2, leaf_size, parabolic=not standard_admissibility
    )
    n = mesh.n_triangles
    if n > DENSE_ORACLE_CAP:
        raise ValueError(
            f"n={n} exceeds the dense-oracle cap {DENSE_ORACLE_CAP}; use level <= 5"
        )
    return mesh, tree, dirs, bt, assemble_dense_matrix(mesh, KernelSpec(kernel, kappa))


def _compression_run(
    system, kappa, eps, eta1, eta2, zeta, leaf_size, kernel, standard_admissibility, seed, save_dir=None
):
    mesh, tree, dirs, bt, dense = system
    n = mesh.n_triangles
    access = lambda rows, cols: dense[np.ix_(rows, cols)]

    timings: dict[str, float] = {}
    cfg = CompressionConfig(eps=eps, zeta=zeta)
    a = compress(access, tree, dirs, bt, cfg, timings=timings)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t0 = time.perf_counter()
    a.matvec(x)
    t_mvm = time.perf_counter() - t0

    error = relative_spectral_error(dense, a.matvec, a.matvec_adjoint, seed)
    stats = sparsity_stats(tree, bt)
    report = ExperimentReport(
        n=n,
        kappa=kappa,
        eps=eps,
        eta1=eta1,
        eta2=eta2,
        zeta=zeta,
        leaf_size=leaf_size,
        kernel=kernel,
        standard_admissibility=standard_admissibility,
        seed=seed,
        t_row=timings["row"],
        t_col=timings["col"],
        t_proj=timings["projection"],
        t_mvm=t_mvm,
        k_max=max([*a.row_basis.rank.values(), *a.col_basis.rank.values()], default=0),
        mem_per_dof_kib=storage_report(a).mem_per_dof_kib(n),
        rel_spectral_error=error,
        direction_counts=[dirs.count(l) for l in range(tree.depth + 1)],
        sparsity_max=stats.level_max_row,
        t_weights=timings["weights"],
    )
    if save_dir is not None:
        save_dh2(a, save_dir)
    return report, a


def run_aca_comparison(
    level: int,
    kappa: float,
    eps: float,
    eta1: float = 20.0,
    eta2: float = 5.0,
    zeta: float = 0.3,
    leaf_size: int = 16,
    seed: int = 1,
):
    """Compress the single-layer matrix with the nested directional scheme and
    with blockwise cross approximation under the standard admissibility
    condition, both from one mesh, block tree and dense matrix.  Returns
    (dh2_report, aca_report)."""
    system = _dense_system(level, kappa, eta1, eta2, leaf_size, kernel="slp", standard_admissibility=True)
    report, _ = _compression_run(
        system, kappa, eps, eta1, eta2, zeta, leaf_size, kernel="slp", standard_admissibility=True, seed=seed
    )
    mesh, tree, _, bt, dense = system
    access = lambda rows, cols: dense[np.ix_(rows, cols)]

    t0 = time.perf_counter()
    aca = aca_compress(access, tree, bt, eps)
    t_aca = time.perf_counter() - t0
    n = mesh.n_triangles
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t1 = time.perf_counter()
    aca.matvec(x)
    t_mvm = time.perf_counter() - t1
    aca_error = relative_spectral_error(dense, aca.matvec, aca.matvec_adjoint, seed)
    aca_report = replace(
        report,
        t_weights=0.0,
        t_row=0.0,
        t_col=0.0,
        t_proj=t_aca,
        t_mvm=t_mvm,
        k_max=aca.max_rank(),
        mem_per_dof_kib=aca.storage_entries() * 16.0 / 1024.0 / n,
        rel_spectral_error=aca_error,
    )
    return report, aca_report


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _add_common(p, *names):
    if "level" in names:
        p.add_argument("--level", type=int, required=True, help="mesh refinement level")
    if "kappa" in names:
        p.add_argument("--kappa", type=float, default=0.0, help="wave number")
    if "eps" in names:
        p.add_argument("--eps", type=float, default=1e-4, help="block-relative tolerance")
    if "eta" in names:
        p.add_argument("--eta1", type=float, default=20.0)
        p.add_argument("--eta2", type=float, default=5.0)
    if "zeta" in names:
        p.add_argument("--zeta", type=float, default=0.3)
    if "order" in names:
        p.add_argument("--order", type=int, default=4, help="interpolation order per axis")
    if "leaf" in names:
        p.add_argument("--leaf-size", type=int, default=16)
    if "kernel" in names:
        p.add_argument("--kernel", choices=("slp", "dlp"), default="slp")
    if "std" in names:
        p.add_argument("--standard-admissibility", action="store_true")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=str, default=None, help="output path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirh2")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("mesh", help="write the sphere mesh"), "level")
    _add_common(
        sub.add_parser("dense", help="write the dense matrix as CMX1"),
        "level", "kappa", "kernel",
    )
    _add_common(
        sub.add_parser("assemble", help="write the interpolation-based DH2v5 container"),
        "level", "kappa", "eta", "order", "leaf",
    )
    pc = sub.add_parser("compress", help="compress the dense matrix, write a CSV report")
    _add_common(pc, "level", "kappa", "eps", "eta", "zeta", "leaf", "kernel", "std", "seed")
    pc.add_argument("--save", type=str, default=None, help="also write the DH2v5 container (a directory) here")
    pm = sub.add_parser("matvec", help="load and check a DH2v5 container, time one matvec")
    pm.add_argument("container", type=str)
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument("--out", type=str, default=None, help="write the result vector as CMX1")
    _add_common(
        sub.add_parser("compare-aca", help="cross approximation vs nested compression"),
        "level", "kappa", "eps", "eta", "zeta", "leaf", "seed",
    )
    _add_common(
        sub.add_parser("stats", help="tree / block structure dumps"),
        "level", "kappa", "eta", "leaf", "std",
    )
    return parser


def _cmd_mesh(args) -> None:
    mesh = build_sphere_mesh(args.level)
    if args.out is None:
        raise ValueError("mesh requires --out")
    write_off(mesh, args.out)
    print(f"mesh level={args.level} triangles={mesh.n_triangles} out={args.out}")


def _cmd_dense(args) -> None:
    mesh = build_sphere_mesh(args.level)
    if mesh.n_triangles > DENSE_ORACLE_CAP:
        raise ValueError(f"dense matrix capped at n={DENSE_ORACLE_CAP}")
    if args.out is None:
        raise ValueError("dense requires --out")
    dense = assemble_dense_matrix(mesh, KernelSpec(args.kernel, args.kappa))
    write_cmx(args.out, dense)
    print(f"dense n={mesh.n_triangles} kernel={args.kernel} kappa={args.kappa:g} out={args.out}")


def _cmd_assemble(args) -> None:
    if args.out is None:
        raise ValueError("assemble requires --out")
    mesh, tree, dirs, bt = _pipeline(
        args.level, args.kappa, args.eta1, args.eta2, args.leaf_size, parabolic=True
    )
    a = assemble_dh2_by_interpolation(
        mesh, KernelSpec("slp", args.kappa), tree, dirs, bt, args.order
    )
    save_dh2(a, args.out)
    rep = storage_report(a)
    print(
        f"assemble n={mesh.n_triangles} order={args.order} "
        f"mem_per_dof_kib={rep.mem_per_dof_kib(mesh.n_triangles):.6g} out={args.out}"
    )


def _cmd_compress(args) -> None:
    report, _ = run_compression_experiment(
        args.level,
        args.kappa,
        args.eps,
        eta1=args.eta1,
        eta2=args.eta2,
        zeta=args.zeta,
        leaf_size=args.leaf_size,
        kernel=args.kernel,
        standard_admissibility=args.standard_admissibility,
        seed=args.seed,
        save_dir=args.save,
    )
    text = ExperimentReport.header() + "\n" + report.row() + "\n"
    _write_text(args.out, text)
    print(
        f"compress n={report.n} kappa={args.kappa:g} error={report.rel_spectral_error:.6e} "
        f"k_max={report.k_max} mem_per_dof_kib={report.mem_per_dof_kib:.6g} t_weights={report.t_weights:.6g}"
    )


def _cmd_matvec(args) -> None:
    a = load_dh2(args.container)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(a.n) + 1j * rng.standard_normal(a.n)
    t0 = time.perf_counter()
    y = a.matvec(x)
    t_mvm = time.perf_counter() - t0
    if args.out is not None:
        write_cmx(args.out, y.reshape(-1, 1))
    print(f"matvec n={a.n} t_mvm={t_mvm:.6g} norm={np.linalg.norm(y):.6g}")


def _cmd_compare_aca(args) -> None:
    dh2_report, aca_report = run_aca_comparison(
        args.level,
        args.kappa,
        args.eps,
        eta1=args.eta1,
        eta2=args.eta2,
        zeta=args.zeta,
        leaf_size=args.leaf_size,
        seed=args.seed,
    )
    text = (
        "method," + ExperimentReport.header() + "\n"
        "dh2," + dh2_report.row() + "\n"
        "aca," + aca_report.row() + "\n"
    )
    _write_text(args.out, text)
    print(
        f"compare-aca n={dh2_report.n} dh2_mem={dh2_report.mem_per_dof_kib:.6g} "
        f"aca_mem={aca_report.mem_per_dof_kib:.6g} "
        f"dh2_error={dh2_report.rel_spectral_error:.6e} "
        f"aca_error={aca_report.rel_spectral_error:.6e}"
    )


def _cmd_stats(args) -> None:
    if args.out is None:
        raise ValueError("stats requires --out (a directory)")
    mesh, tree, dirs, bt = _pipeline(
        args.level, args.kappa, args.eta1, args.eta2, args.leaf_size,
        parabolic=not args.standard_admissibility,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "tree.jsonl").write_text(tree_to_jsonl(tree))
    (outdir / "blocks.csv").write_text(blocks_to_csv(tree, bt))
    stats = sparsity_stats(tree, bt)
    lines = ["level,directions,max_row,mean_row"]
    for l in range(tree.depth + 1):
        lines.append(
            f"{l},{dirs.count(l)},{stats.level_max_row[l]},{stats.level_mean_row[l]:.6g}"
        )
    (outdir / "levels.csv").write_text("\n".join(lines) + "\n")
    print(
        f"stats n={mesh.n_triangles} clusters={len(tree)} blocks={len(bt)} "
        f"admissible={len(bt.admissible_leaves)} inadmissible={len(bt.inadmissible_leaves)} "
        f"out={outdir}"
    )


_COMMANDS = {
    "mesh": _cmd_mesh,
    "dense": _cmd_dense,
    "assemble": _cmd_assemble,
    "compress": _cmd_compress,
    "matvec": _cmd_matvec,
    "compare-aca": _cmd_compare_aca,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except Exception as exc:  # one-line machine-parseable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
