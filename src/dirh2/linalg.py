"""Dense complex linear algebra primitives shared by assembly and compression,
and the worker thread that runs half of a job on a second CPU.

All matrices are numpy ``complex128`` arrays.  The on-disk format ("CMX1")
is fixed little-endian column-major so files are portable between runs and
tools; in memory we use whatever layout numpy gives us.

``two_parts(first, second)`` runs first() on the calling thread and
second() on one worker thread, and returns once both have ended; when the
process may use only one CPU, both run on the calling thread, one after the
other.  numpy releases the GIL inside its matrix products, large ufunc
loops and LAPACK calls on stacks of matrices, so that work runs on two CPUs
at once.  Python code does not, nor, with numpy 2.4, a QR or a
singular-value computation without vectors on one matrix or on a stack of a
few.  So split only work that sits in numpy calls that release the lock:
a part that holds it gains little and costs the memory the worker's heap
keeps.

``cut_in_two(part, weights)`` cuts a run of items where the leading items'
weight is nearest half the total and hands the two runs to ``two_parts``.
The block weights' stacked singular values and the dense assembly cut
their work with it, and the apply phases cut their stacks between two slots
(``dh2core._halves``) only when ``two_at_once()``, since two parts run one
after the other cost more than one.  The basis passes, whose per-pair QRs
hold the lock, run in one part.  Each caller takes one code path on one CPU
or two: its parts write disjoint outputs and each output is computed as in
one part, so the result has the same bits however the work is cut and
wherever its parts run.

The worker is one daemon thread, ``dirh2-worker``, started on first use and
again in a child made by ``os.fork``, which has no copy of it.  It runs the
second parts of concurrent callers one after another.  A call of
``two_parts`` made on the worker thread itself, from inside a second part,
runs both parts there, since a task queued behind the running one would
never start.
"""

from __future__ import annotations

import os
import queue
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SVDResult",
    "svd",
    "truncation_rank",
    "power_iteration_norm",
    "two_at_once",
    "two_parts",
    "cut_in_two",
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

    Runs power iteration on A^H A started from a seeded random complex
    vector and returns the Rayleigh-quotient estimate ||A v||.  An iterate
    of exactly zero gives 0.0: from a random start it occurs with
    probability 0 unless the operator is zero.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        z = apply_ah(apply_a(v))
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        v = z / nz
    return float(np.linalg.norm(apply_a(v)))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, as on macOS and Windows
        return os.cpu_count() or 1


def _outcome(task) -> BaseException | None:
    """Run ``task``; its exception, or None."""
    try:
        task()
    except BaseException as exc:  # any: the caller of two_parts raises it
        return exc
    return None


class _Worker:
    """One daemon thread that runs the tasks put to it one at a time and
    puts each task's outcome on the queue that came with it."""

    def __init__(self):
        self.pid = os.getpid()
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="dirh2-worker", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            task, done = self.tasks.get()
            done.put(_outcome(task))
            del task, done  # free the task's buffers now, not at the next task


_worker: _Worker | None = None


def _start(task) -> queue.SimpleQueue:
    """Run ``task`` on the worker thread; its outcome arrives on the queue
    returned.  The thread is started on first use, and again in a child
    process made by ``os.fork``."""
    global _worker
    if _worker is None or _worker.pid != os.getpid():
        _worker = _Worker()
    done: queue.SimpleQueue = queue.SimpleQueue()
    _worker.tasks.put((task, done))
    return done


def two_at_once() -> bool:
    """Whether ``two_parts`` called here runs its two parts at once: the
    process may use two CPUs or more, and this is not the worker thread."""
    on_worker = _worker is not None and _worker.pid == os.getpid() and threading.current_thread() is _worker.thread
    return _cpus() >= 2 and not on_worker


def two_parts(first, second) -> None:
    """Run ``first()`` on the calling thread and ``second()`` on the worker
    thread, and return once both have ended.  An exception raised in either
    part reaches the caller then, the first part's if both raise.  Unless
    ``two_at_once()``, both parts run on the calling thread, one after the
    other."""
    here = not two_at_once()
    done = None if here else _start(second)
    try:
        first()
    finally:
        error = _outcome(second) if here else done.get()
    if error is not None:
        raise error


def cut_in_two(part, weights) -> None:
    """Run ``part(0, k)`` and ``part(k, n)`` through ``two_parts``, where n is
    the number of ``weights`` and k the first cut at which the leading items'
    weight is nearest half the total; ``part(0, n)`` alone when k = n, as for
    fewer than two items."""
    edges = np.cumsum(weights)
    n = len(edges)
    k = int(np.abs(2 * edges - edges[-1]).argmin()) + 1 if n else 0
    if k < n:
        two_parts(lambda: part(0, k), lambda: part(k, n))
    else:
        part(0, n)


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
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("truncated CMX1 file")
        rows, cols = struct.unpack("<QQ", header)
        if os.fstat(fh.fileno()).st_size < 20 + 16 * rows * cols:  # before a read of that size
            raise ValueError("truncated CMX1 file")
        payload = fh.read(16 * rows * cols)
    flat = np.frombuffer(payload, dtype="<c16")
    # C-contiguous result so reloaded matrices multiply bit-identically
    return np.ascontiguousarray(flat.reshape(cols, rows).T.astype(np.complex128))
