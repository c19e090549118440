"""Dense complex linear algebra primitives shared by assembly and compression.

All matrices are numpy ``complex128`` arrays.  The on-disk format ("CMX1")
is fixed little-endian column-major so files are portable between runs and
tools; in memory we use whatever layout numpy gives us.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SVDResult",
    "svd",
    "truncation_rank",
    "power_iteration_norm",
    "write_cmx",
    "read_cmx",
]

_CMX_MAGIC = b"CMX1"


@dataclass
class SVDResult:
    """Factorization a = u @ diag(sigma) @ v.conj().T, per slot for a stack.

    ``u`` and ``v`` have orthonormal columns, ``sigma`` is real,
    non-negative and non-increasing.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a: np.ndarray) -> SVDResult:
    """Singular value decomposition with a deterministic sign convention.

    ``a`` is one matrix or a stack of matrices along its leading axes; a
    stack gives stacked ``u``, ``sigma`` and ``v``, each slot bitwise the
    result of a call on that slot alone.  The largest-magnitude entry of
    every left singular vector is made real and positive, and the
    compensating phase goes into v, so the product is unchanged and
    serialized bases do not depend on LAPACK's phase choices.  Raises
    ``ValueError`` on an empty or non-finite ``a``, and
    ``numpy.linalg.LinAlgError`` if the underlying iteration does not
    converge.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        raise ValueError("svd of an empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("svd input contains non-finite entries")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    # each column's leading entry, gathered from a (matrices, rows, columns) view
    flat = u.reshape(-1, *u.shape[-2:])
    idx = np.argmax(np.abs(flat), axis=1)
    lead = flat[np.arange(flat.shape[0])[:, None], idx, np.arange(flat.shape[2])].reshape(*u.shape[:-2], 1, -1)
    mag = np.abs(lead)  # zero only for a zero column, whose phase stays 1
    phase = (lead / mag if mag.all() else np.where(mag > 0.0, lead / np.where(mag > 0.0, mag, 1.0), 1.0)).conj()
    return SVDResult(u=u * phase, sigma=s, v=vh.conj().swapaxes(-1, -2) * phase)


def truncation_rank(singular_values: np.ndarray, tolerance):
    """Smallest k with sigma_{k+1} <= tolerance, at least 1 while sigma_1 > 0.

    ``singular_values`` may also be a stack of non-increasing rows (..., m)
    with one tolerance per row (or one for all); the ranks are then an
    integer array over the leading axes."""
    s = np.asarray(singular_values, dtype=float)
    tol = np.asarray(tolerance, dtype=float)
    if not (tol >= 0.0).all():
        raise ValueError("tolerance must be >= 0")
    s = np.concatenate([s, np.zeros((*s.shape[:-1], 1))], axis=-1)  # sigma_{m+1} = 0 <= tolerance
    k = np.where(s[..., 0] == 0.0, 0, np.maximum((s <= tol[..., None]).argmax(axis=-1), 1))
    return int(k) if s.ndim == 1 else k


def power_iteration_norm(apply_a, apply_ah, dim: int, iterations: int, seed: int) -> float:
    """Estimate the spectral norm of an operator given by matvec callbacks.

    Runs power iteration on A^H A started from a seeded random vector and
    returns the Rayleigh-quotient estimate ||A v||.  If the iterate
    collapses to zero the start vector is redrawn (three attempts) before
    concluding the operator is numerically zero.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for attempt in range(4):
        rng = np.random.default_rng(seed + attempt)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        dead = False
        for _ in range(iterations):
            z = apply_ah(apply_a(v))
            nz = np.linalg.norm(z)
            if nz == 0.0:
                dead = True
                break
            v = z / nz
        if not dead:
            return float(np.linalg.norm(apply_a(v)))
    return 0.0


def write_cmx(path: str | Path, a: np.ndarray) -> None:
    """Write a complex matrix in the CMX1 format.

    Layout: magic ``CMX1``, rows and cols as u64 little-endian, then the
    entries column-major as interleaved (re, im) float64 little-endian.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128).T)  # .T: column-major payload
    with open(path, "wb") as fh:
        fh.write(_CMX_MAGIC)
        fh.write(struct.pack("<QQ", a.shape[1], a.shape[0]))
        fh.write(a.astype("<c16", copy=False).tobytes())


def read_cmx(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CMX_MAGIC:
            raise ValueError(f"not a CMX1 file: bad magic {magic!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        payload = fh.read(16 * rows * cols)
    if len(payload) != 16 * rows * cols:
        raise ValueError("truncated CMX1 file")
    flat = np.frombuffer(payload, dtype="<c16")
    # C-contiguous result so reloaded matrices multiply bit-identically
    return np.ascontiguousarray(flat.reshape(cols, rows).T.astype(np.complex128))
