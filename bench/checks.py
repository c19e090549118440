"""Output checks that recompute what they check instead of asking dirh2.

Each check returns True when the output is right.  They are written from
the definitions (the midpoint-rule surrogate, the adjoint identity, the
shapes a nested basis must have), so a fault in the library cannot make its
own output look correct.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for quantities that differ only by rounding: far above
# the ~1e-15 of double precision sums, far below any real fault (a wrong
# wave number or a scaled block moves them by 1e-3 or more).
ROUNDING = 1e-10


def reference_entries(mesh, kind: str, kappa: float, rows, cols) -> np.ndarray:
    """Surrogate entries from the midpoint rule: kernel(m_i, m_j) a_i a_j off
    the diagonal; a^1.5 / (2 sqrt(pi)) (single layer) or a/2 (M/2 + double
    layer) on it."""
    out = np.empty(len(rows), dtype=np.complex128)
    for k, (i, j) in enumerate(zip(rows, cols)):
        ai, aj = mesh.areas[i], mesh.areas[j]
        if i == j:
            out[k] = ai**1.5 / (2.0 * math.sqrt(math.pi)) if kind == "slp" else 0.5 * ai
            continue
        d = mesh.midpoints[i] - mesh.midpoints[j]
        r = math.sqrt(float(d @ d))
        g = complex(math.cos(kappa * r), math.sin(kappa * r)) / (4.0 * math.pi * r)
        if kind == "dlp":
            g *= (1.0 - 1j * kappa * r) / (r * r) * float(d @ mesh.normals[j])
        out[k] = g * ai * aj
    return out


def check_entries(mesh, dense, kind: str, kappa: float, rng, samples: int = 2000) -> bool:
    n = dense.shape[0]
    rows = rng.integers(0, n, samples)
    cols = rng.integers(0, n, samples)
    cols[: samples // 20] = rows[: samples // 20]  # some diagonal entries too
    ref = reference_entries(mesh, kind, kappa, rows, cols)
    got = dense[rows, cols]
    return bool(np.all(np.abs(got - ref) <= ROUNDING * np.abs(ref)))


def _power_norm(apply, apply_h, start: np.ndarray, iterations: int) -> float:
    v = start / np.linalg.norm(start)
    for _ in range(iterations):
        z = apply_h(apply(v))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        v = z / nz
    return float(np.linalg.norm(apply(v)))


def relative_spectral_error(dense, apply, apply_h, rng, iterations: int) -> float:
    """Power-iteration estimate of ||A - B||_2 / ||A||_2, with B given by its
    products.  A^H v is formed as (v^H A)^H, which reads A in place instead
    of copying its conjugate transpose on every call."""
    n = dense.shape[0]
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dense_h = lambda v: (v.conj() @ dense).conj()
    err = _power_norm(lambda v: dense @ v - apply(v), lambda v: dense_h(v) - apply_h(v), start, iterations)
    ref = _power_norm(lambda v: dense @ v, dense_h, start, iterations)
    return err / ref


def check_adjoint(x, ax, y, ahy) -> bool:
    """<A x, y> = <x, A^H y> up to rounding."""
    lhs = np.vdot(y, ax)
    rhs = np.vdot(ahy, x)
    return bool(abs(lhs - rhs) <= ROUNDING * np.linalg.norm(ax) * np.linalg.norm(y))


def recount_entries(a) -> int | None:
    """Stored complex entries counted from ranks and cluster sizes, or None
    when some stored array has a shape the nested structure forbids or
    arrays are missing or left over."""
    tree, blocks = a.tree, a.blocks
    total = 0
    arrays = 0
    for basis in (a.row_basis, a.col_basis):
        for (cid, c), k in basis.rank.items():
            cl = tree[cid]
            if cl.is_leaf:
                expected = [(basis.leaf.get((cid, c)), (cl.size, k))]
            else:
                c2 = a.directions.son_index(cl.level, c)
                expected = [
                    (basis.transfer.get((son, c)), (basis.rank.get((son, c2), -1), k))
                    for son in cl.sons
                ]
            for arr, shape in expected:
                if arr is None or arr.shape != shape:
                    return None
                total += shape[0] * shape[1]
                arrays += 1
    for bid in blocks.admissible_leaves:
        b = blocks[bid]
        shape = (a.row_basis.rank.get((b.t, b.c_index)), a.col_basis.rank.get((b.s, b.c_index)))
        if bid not in a.coupling or a.coupling[bid].shape != shape:
            return None
        total += shape[0] * shape[1]
    for bid in blocks.inadmissible_leaves:
        b = blocks[bid]
        shape = (tree[b.t].size, tree[b.s].size)
        if bid not in a.nearfield or a.nearfield[bid].shape != shape:
            return None
        total += shape[0] * shape[1]
    stored = sum(len(m) for m in (a.row_basis.leaf, a.row_basis.transfer, a.col_basis.leaf, a.col_basis.transfer))
    if stored != arrays or len(a.coupling) != len(blocks.admissible_leaves) or len(a.nearfield) != len(
        blocks.inadmissible_leaves
    ):
        return None
    return total


def check_storage_recount(a, kib_per_dof: float) -> bool:
    """The reported KiB/DoF matches the recount of the stored arrays."""
    total = recount_entries(a)
    return total is not None and math.isclose(kib_per_dof, total * 16.0 / 1024.0 / a.n, rel_tol=1e-12)


def check_directional(a) -> bool:
    """Every admissible block carries a nonzero direction."""
    for bid in a.blocks.admissible_leaves:
        b = a.blocks[bid]
        if not a.directions.levels[a.tree[b.t].level][b.c_index].any():
            return False
    return True

