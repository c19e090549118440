"""The two benchmark workloads and the pipeline that runs one of them.

Every call into dirh2 goes through its public functions.  The untraced run
records only the spans it needs for the end-to-end metrics; the traced run
also wraps the functions ``compression.compress`` calls (block weights, the
two basis passes, ``svd``, ``power_iteration_norm``) and the sub-block
accessor, and reports per-layer metrics instead.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dirh2.compression
from dirh2 import (
    CompressionConfig,
    KernelSpec,
    assemble_dense_matrix,
    build_block_tree,
    build_cluster_tree,
    build_directions,
    build_sphere_mesh,
    compress,
    farfield_sets,
    level_diameter,
    storage_report,
)

import checks
from spans import Trace

# Power-iteration steps of the error estimate; each costs one A and one A^H
# apply of the compressed matrix, which are timed with the closed loop's.
ERROR_ITERATIONS = 6


@dataclass(frozen=True)
class Workload:
    level: int  # sphere refinement: n = 8 * 4**level
    kind: str  # "slp", or "dlp" for M/2 + DLP
    kappa: float
    eta1: float
    rounds: int  # rounds per run, as far as --seconds allows
    apply_pairs: int  # closed-loop (A, A^H) pairs per round, about 2 s of applies
    eta2: float = 5.0
    eps: float = 1e-4
    zeta: float = 0.3
    leaf_size: int = 16
    directional: bool = False  # premise: every admissible block has a nonzero direction


# A run repeats rounds of set-up, compress and applies, at least this many,
# so that every timing is a median over samples spread across the whole run.
MIN_ROUNDS = 3

WORKLOADS = {
    # ROADMAP's n = 2048 end-to-end size at the acceptance parameters; no
    # admissible block carries a direction.  A round takes about 9.5 s.
    "compress-slp2048": Workload(level=4, kind="slp", kappa=8.0, eta1=20.0, rounds=5, apply_pairs=12),
    # The paper's directional regime: every admissible block carries a
    # direction, and applies are bound by Python loops over stored matrices.
    # A round takes about 12.5 s.
    "apply-dir2048": Workload(
        level=4, kind="dlp", kappa=8.0, eta1=2.0, rounds=4, apply_pairs=3, directional=True
    ),
}


@dataclass
class System:
    mesh: object
    dense: np.ndarray
    tree: object
    dirs: object
    bt: object


def set_up(w: Workload, trace: Trace) -> System:
    """Mesh, dense reference, cluster tree, directions and block tree; the
    work before the first ``compress`` call."""
    with trace.span("setup"):
        mesh = trace.timed("geometry.build_sphere_mesh", build_sphere_mesh, w.level)
        dense = trace.timed(
            "geometry.assemble_dense_matrix", assemble_dense_matrix, mesh, KernelSpec(w.kind, w.kappa)
        )
        tree = trace.timed("clustering.build_cluster_tree", build_cluster_tree, mesh.midpoints, w.leaf_size)
        with trace.span("directions.build_directions"):
            deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
            dirs = build_directions(deltas, w.kappa, w.eta1)
        bt = trace.timed("blocktree.build_block_tree", build_block_tree, tree, dirs, w.kappa, w.eta1, w.eta2)
    return System(mesh, dense, tree, dirs, bt)


def _svd_flops(args, _out) -> int:
    # Thin complex SVD with both factors: the R-SVD count 6 m p^2 + 20 p^3
    # real flops (p = min, m = max side), times 4 for complex arithmetic.
    m, p = max(args[0].shape), min(args[0].shape)
    return 4 * (6 * m * p * p + 20 * p**3)


@contextmanager
def _traced_compression(trace: Trace):
    """Route the functions ``compress`` looks up in its module through the
    trace for the duration of the block."""
    mod = dirh2.compression
    wrappers = {
        "compute_block_weights": trace.spanned("compression.compute_block_weights", mod.compute_block_weights),
        "build_basis": trace.spanned(
            lambda args, kwargs: f"compression.build_basis_{kwargs.get('side', 'row')}", mod.build_basis
        ),
        "svd": trace.counted("linalg.svd", mod.svd, work=_svd_flops),
        "power_iteration_norm": trace.counted("linalg.power_iteration", mod.power_iteration_norm),
    }
    saved = {name: getattr(mod, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(mod, name, fn)


class Operations:
    """Counts of attempted operations, and the outcome of each output check."""

    def __init__(self):
        self.attempted = 0
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks[name] = ok

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.checks.values())


def run(name: str, w: Workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """Run one workload and return the result object the runner prints.

    Each round sets up, compresses with the same seed and applies the result
    ``w.apply_pairs`` times in a closed loop (each apply starts when the
    previous one has returned, one A and one A^H per pair).  The first round
    also runs the error estimate, whose applies are timed with the loop's.
    A run makes ``w.rounds`` rounds, but starts a round after the first
    MIN_ROUNDS only if, taking as long as the one before, it would end
    within ``seconds`` of the run's start."""
    trace = Trace()
    ops = Operations()
    rng_compress, rng_vectors, rng_error, rng_entries = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    compress_seed = int(rng_compress.integers(2**31))
    cfg = CompressionConfig(eps=w.eps, zeta=w.zeta)

    def timed_apply(span, fn, x):
        ops.attempted += 1
        return trace.timed(span, fn, x)

    matvec = lambda x: timed_apply("dh2core.matvec", a.matvec, x)
    matvec_adjoint = lambda x: timed_apply("dh2core.matvec_adjoint", a.matvec_adjoint, x)

    deadline = time.perf_counter() + seconds
    rounds = 0
    last_round = 0.0
    rounds_identical = True
    with ExitStack() as stack:
        if traced:
            stack.enter_context(_traced_compression(trace))
        while rounds < MIN_ROUNDS or (rounds < w.rounds and time.perf_counter() + last_round <= deadline):
            round_start = time.perf_counter()
            system = a = access = None  # release the previous round before building the next
            system = set_up(w, trace)
            access = lambda rows, cols, dense=system.dense: dense[np.ix_(rows, cols)]
            if traced:
                access = trace.counted("compression.access", access, work=lambda _args, out: out.size)
            ops.attempted += 1
            a = trace.timed(
                "compression.compress", compress, access, system.tree, system.dirs, system.bt, cfg, seed=compress_seed
            )
            if rounds == 0:
                n = a.n
                xs = [rng_vectors.standard_normal(n) + 1j * rng_vectors.standard_normal(n) for _ in range(4)]
                rel_error = checks.relative_spectral_error(
                    system.dense, matvec, matvec_adjoint, rng_error, ERROR_ITERATIONS
                )
            for i in range(w.apply_pairs):
                x, y = xs[i % 4], xs[(i + 1) % 4]
                ax, ahy = matvec(x), matvec_adjoint(y)
                if i > 0:
                    continue
                if rounds == 0:
                    adjoint_ok = checks.check_adjoint(x, ax, y, ahy)
                    first = (ax, ahy)
                else:
                    rounds_identical &= np.array_equal(ax, first[0]) and np.array_equal(ahy, first[1])
            rounds += 1
            last_round = time.perf_counter() - round_start

    kib_per_dof = storage_report(a).mem_per_dof_kib(n)
    ops.check("reference_entries", checks.check_entries(system.mesh, system.dense, w.kind, w.kappa, rng_entries))
    ops.check("rel_error", rel_error <= w.eps)
    ops.check("adjoint_identity", adjoint_ok)
    ops.check("rounds_identical", rounds_identical)
    ops.check("storage_recount", checks.check_storage_recount(a, kib_per_dof))
    ops.check("storage_below_dense", kib_per_dof < 16.0 * n / 1024.0)
    if w.directional:
        ops.check("all_blocks_directional", checks.check_directional(a))
    for check, ok in ops.checks.items():
        if not ok:
            print(f"check failed: {check}", file=sys.stderr)

    end_to_end = {
        "setup_s": (trace.median("setup"), "s"),
        "compress_s": (trace.median("compression.compress"), "s"),
        "kib_per_dof": (kib_per_dof, "KiB"),
        "rel_error": (rel_error, "1"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "matvec_ms": (1e3 * trace.median("dh2core.matvec"), "ms"),
        "adjoint_ms": (1e3 * trace.median("dh2core.matvec_adjoint"), "ms"),
    }
    metrics = end_to_end
    if traced:
        metrics = per_layer(trace, system, a, rounds)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace.write(
            out_dir / f"trace-{name}-seed{seed}.json",
            {
                "workload": name,
                "seed": seed,
                "rounds": rounds,
                "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
            },
        )
    return {
        "checks": ops.checks,
        "rounds": rounds,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(trace: Trace, system: System, a, rounds: int) -> dict:
    """Per-layer metrics; times are medians over the run's spans, and the
    counters, which add up over all rounds, are given per compress."""
    tree, dirs, bt = system.tree, system.dirs, system.bt
    weights = trace.median("compression.compute_block_weights")
    row = trace.median("compression.build_basis_row")
    col = trace.median("compression.build_basis_col")
    report = storage_report(a)
    ranks = [*a.row_basis.rank.values(), *a.col_basis.rank.values()]
    farfield_columns = sum(
        c.size for side in ("row", "col") for c in farfield_sets(tree, dirs, bt, side)[1].values()
    )
    stored_bytes = 16 * report.total
    matvec_s = trace.median("dh2core.matvec")
    calls = lambda k: trace.counters[k][0] / rounds
    secs = lambda k: trace.counters[k][1] / rounds
    work = lambda k: trace.counters[k][2] / rounds
    return {
        "geometry.build_sphere_mesh_s": (trace.median("geometry.build_sphere_mesh"), "s"),
        "geometry.assemble_dense_matrix_s": (trace.median("geometry.assemble_dense_matrix"), "s"),
        "clustering.build_cluster_tree_s": (trace.median("clustering.build_cluster_tree"), "s"),
        "clustering.clusters": (len(tree), "count"),
        "directions.build_directions_s": (trace.median("directions.build_directions"), "s"),
        "directions.directions": (sum(dirs.count(l) for l in range(dirs.depth + 1)), "count"),
        "blocktree.build_block_tree_s": (trace.median("blocktree.build_block_tree"), "s"),
        "blocktree.admissible_blocks": (len(bt.admissible_leaves), "count"),
        "blocktree.nearfield_blocks": (len(bt.inadmissible_leaves), "count"),
        "blocktree.directional_blocks": (
            sum(bool(dirs.levels[tree[bt[b].t].level][bt[b].c_index].any()) for b in bt.admissible_leaves),
            "count",
        ),
        "blocktree.nearfield_entries": (
            sum(tree[bt[b].t].size * tree[bt[b].s].size for b in bt.inadmissible_leaves),
            "count",
        ),
        "compression.compute_block_weights_s": (weights, "s"),
        "compression.build_basis_row_s": (row, "s"),
        "compression.build_basis_col_s": (col, "s"),
        # derived: compress minus the three phases above
        "compression.projection_s": (trace.median("compression.compress") - weights - row - col, "s"),
        "compression.access_calls": (calls("compression.access"), "count"),
        "compression.access_entries": (work("compression.access"), "count"),
        "compression.access_s": (secs("compression.access"), "s"),
        "compression.basis_pairs": (len(ranks), "count"),
        "compression.farfield_columns": (farfield_columns, "count"),
        "compression.k_max": (max(ranks, default=0), "count"),
        "compression.rank_sum": (sum(ranks), "count"),
        "linalg.svd_calls": (calls("linalg.svd"), "count"),
        "linalg.svd_s": (secs("linalg.svd"), "s"),
        "linalg.svd_flops_computed": (work("linalg.svd"), "flop"),
        "linalg.power_iteration_calls": (calls("linalg.power_iteration"), "count"),
        "linalg.power_iteration_s": (secs("linalg.power_iteration"), "s"),
        "dh2core.stored_matrices": (a.stored_matrix_count(), "count"),
        "dh2core.leaf_entries": (report.leaf_entries, "count"),
        "dh2core.transfer_entries": (report.transfer_entries, "count"),
        "dh2core.coupling_entries": (report.coupling_entries, "count"),
        "dh2core.nearfield_entries": (report.nearfield_entries, "count"),
        # computed from the stored entries: 8 flops and 16 bytes per entry per apply
        "dh2core.apply_gflops_computed": (8 * report.total / matvec_s / 1e9, "GFLOP/s"),
        "dh2core.apply_gbytes_s_computed": (stored_bytes / matvec_s / 1e9, "GB/s"),
    }
