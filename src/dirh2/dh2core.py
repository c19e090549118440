"""Directional nested-basis matrix representation and its fast matvec.

The matrix is stored as
  * per (leaf cluster, direction) basis matrices,
  * per (son cluster, parent direction) transfer matrices that define the
    bases of non-leaf clusters implicitly,
  * one small coupling matrix per admissible block,
  * one dense block per inadmissible block.

Each category is held in stacks: one (G, r, c) complex array per shape (per
level and shape for the transfer matrices), slots in ascending key order.
The container's dicts keep their keys and hold the views ``stack[g]``, so
the payload is held once.  A producer that makes its matrices one by one
writes them into the slots of a ``StackBuffer`` as it makes them, and
``join_buffers`` lays the buffers out as stacks; one that knows every shape
beforehand writes into the slots of ``empty_stacks``.  Stacks and buffers
of ``OWN_PAGES_MIN`` bytes or more are on memory pages of their own, which
go back to the system when they are freed (``_own_pages``).

A matvec runs in phases: a bottom-up forward transformation of the input
through the column basis (the leaf matrices, then the transfer matrices
level by level from the deepest level up), the coupling products, a
top-down backward transformation through the row basis (transfer matrices
from the top level down, then the leaf matrices), and the nearfield blocks.
Every stored matrix is applied exactly once.  The adjoint runs the same
phases with the roles of the two bases swapped and reads every block in
place as (x^H M)^H.

Each phase has a plan, built once with the container by ``stack_groups``:
its row and its column indices, each one 1-D ``np.intp`` array joined in
stack, slot and entry order.  A phase gathers its input, runs one batched
product per stack into one buffer, and adds the buffer into its output with
one ``np.add.at`` (``apply_groups``).  numpy 1.25 and later run that call on
a fast loop; older numpy gives the same result more slowly.

A phase of at least ``TWO_PART_MIN_ENTRIES`` matrix entries gathers and
multiplies in two parts of about equal entry count (``linalg.two_parts``)
when ``linalg.two_at_once()``; on one CPU it runs in one part.  The one
``np.add.at`` runs after both, so a matvec has the same bits in one part or
two.

The container is a frozen dataclass: construction groups the payload into
stacks, uses matrices that are a stack's slots already in place and copies
the others, and its attributes cannot be reassigned afterwards.
``stacked_matrix`` makes a container of payload dicts that are laid out as
stacks already (by ``compress`` and ``load_dh2``) without regrouping them.
A container with another
payload is made with ``dataclasses.replace``, which shares every unchanged
stack (and every dict it is not given) with the original: only a shape
group that holds a new matrix gets a fresh stack.  The dicts hold views of
the stacks, so a matrix must not be written in place (a write into a shared
stack changes both containers) or rebound key by key.  Matvecs keep all
scratch per call, and each waits for its own parts, so concurrent matvecs
are safe.
Sums run in a fixed order, which fixes the floating-point result: phase by
phase, and within a phase each output entry adds its products in stack
order (ascending level and shape), slot order (ascending key) and entry
order, since ``np.add.at`` is unbuffered and adds the positions one by one
in that order: ((out[e] + p1) + p2) + ...

``save_dh2`` writes the stacks as they are into a DH2v5 container, with
both trees as the arrays they are held in, and ``load_dh2`` checks them and
their table and hands them to the loaded matrix in place.  The block tree is
stored without son lists; the load walks it against its depth-first
numbering.
"""

from __future__ import annotations

import ctypes
import json
import math
import mmap
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .blocktree import STATUSES, SUBDIVIDED, BlockTree
from .clustering import ClusterTree
from .directions import DirectionHierarchy, grid_size, nearest_direction_index
from .linalg import two_at_once, two_parts

__all__ = [
    "DirectionalClusterBasis",
    "DH2Matrix",
    "stacked_matrix",
    "StackBuffer",
    "join_buffers",
    "empty_stacks",
    "stack_groups",
    "apply_groups",
    "run_offsets",
    "expand_factor",
    "expand_dense",
    "storage_report",
    "StorageReport",
    "save_dh2",
    "load_dh2",
]


DENSE_EXPANSION_CAP = 4096  # rows of the largest matrix expand_dense assembles
OWN_PAGES_MIN = 1 << 17  # bytes; glibc's first mmap threshold
# apply_groups runs a phase of fewer matrix entries in one part.  Handing
# half a phase to the worker thread costs 25-30 us: a phase of 17-48 k
# entries took 26-36 us in one part and 53-65 us in two, one of 213-330 k
# entries 350-470 us in one part and 290-340 us in two (n = 2048, 2 cores).
TWO_PART_MIN_ENTRIES = 1 << 17


# -- stacked storage and the phase plans --------------------------------------


def _group_keys(shapes: dict) -> dict:
    groups: dict = {}
    for key in sorted(shapes):
        groups.setdefault(tuple(shapes[key]), []).append(key)
    return dict(sorted(groups.items()))


def _stack_of(arrays: list):
    """The stack whose slots, in order, are exactly ``arrays``, or None.  ctypes
    reads where a writable C-contiguous array's data start several times
    faster than ``__array_interface__``, which serves any other array."""
    stack = arrays[0].base
    if stack is None or stack.dtype != np.complex128 or stack.shape != (len(arrays), *arrays[0].shape):
        return None
    if any(v.base is not stack for v in arrays) or {v.strides for v in arrays} != {stack.strides[1:]}:
        return None
    try:
        starts = [ctypes.addressof(ctypes.c_char.from_buffer(v)) for v in arrays]
    except (TypeError, ValueError):  # read-only, not C-contiguous or empty
        starts = [v.__array_interface__["data"][0] for v in arrays]
    start, step = stack.__array_interface__["data"][0], stack.strides[0]
    return stack if starts == [start + g * step for g in range(len(arrays))] else None


def _index(where: list, width: int) -> np.ndarray:
    """(G, width) entries from G index arrays or G run offsets."""
    if isinstance(where[0], int):
        return np.array(where, dtype=np.intp)[:, None] + np.arange(width, dtype=np.intp)
    return np.array(where, dtype=np.intp)


def _stacks(d: dict, level=None) -> list[tuple[list, np.ndarray]]:
    """``d``'s matrices as (keys, stack) pairs, one stack per shape (per
    ``level(key)`` and shape, when given) with slots in ascending key order.
    Matrices that are already the slots of such a stack, as ``join_buffers``,
    ``empty_stacks``, ``load_dh2`` and an earlier container lay them out,
    are used in place.  Any other group, as from ``aca_compress``, the
    interpolation assembly or a ``dataclasses.replace`` with new matrices,
    is copied into a new stack and ``d`` is rebound to its slots, so the
    payload is held once."""
    shapes = {k: v.shape if level is None else (level(k), *v.shape) for k, v in d.items()}
    out = []
    for keys in _group_keys(shapes).values():
        stack = _stack_of([d[k] for k in keys])
        if stack is None:
            stack = np.array([d[k] for k in keys], dtype=np.complex128)
            d.update(zip(keys, stack))
        out.append((keys, stack))
    return out


def _own_pages(shape: tuple, filled: bool) -> np.ndarray:
    """An uninitialised complex array, on memory pages of its own from
    ``OWN_PAGES_MIN`` bytes on, which go back to the system when the array
    is freed.  glibc serves an array below its mmap threshold from the heap,
    whose freed memory stays resident, and raises that threshold to the
    largest array freed so far (up to 32 MiB): buffers and stacks made there
    would leave the payload's size behind them.  An array that the caller
    fills at once (``filled``) has its pages mapped in one call, which is
    faster than a fault per page."""
    size = 16 * math.prod(shape)
    if size < OWN_PAGES_MIN or not hasattr(mmap, "MAP_PRIVATE"):  # small, or not a POSIX system
        return np.empty(shape, dtype=np.complex128)
    populate = mmap.MAP_POPULATE if filled and hasattr(mmap, "MAP_POPULATE") else 0
    return np.ndarray(shape, dtype=np.complex128, buffer=mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | populate))


def empty_stacks(shapes: dict) -> dict:
    """A slot of a new (G, r, c) stack for every key of ``shapes`` (key ->
    (r, c)), one stack per shape with slots in ascending key order (the
    layout that ``stacked_matrix`` takes), for a producer that knows every
    shape beforehand and writes each slot."""
    out = {}
    for shape, keys in _group_keys(shapes).items():
        out.update(zip(keys, _own_pages((len(keys), *shape), filled=True)))
    return out


class StackBuffer:
    """Slots that a producer writes its matrices into as it makes them, one
    buffer per group and shape; ``join_buffers`` makes the stacks.  A
    buffer is a list of chunks, each as long as all before it together (at
    least ``FIRST_CAPACITY`` slots), so a full buffer grows without copying
    and is at most half empty.  Not thread-safe: each thread writes a
    buffer of its own."""

    FIRST_CAPACITY = 8

    def __init__(self):
        self.groups: dict = {}  # (group, shape) -> [chunks, keys, free slots in the last chunk]

    def slot(self, key, shape: tuple, group: int = 0) -> np.ndarray:
        """An uninitialised (r, c) slot for the matrix of ``key``, which the
        caller writes before ``join_buffers``."""
        entry = self.groups.get((group, shape))
        if entry is None:
            entry = self.groups[(group, shape)] = [[], [], 0]
        chunks, keys, room = entry
        if not room:
            room = max(self.FIRST_CAPACITY, len(keys))
            chunks.append(_own_pages((room, *shape), filled=False))
        entry[2] = room - 1
        keys.append(key)
        return chunks[-1][-room]


def join_buffers(buffers: list[StackBuffer]) -> dict:
    """Key -> matrix for every matrix of ``buffers``, each a slot of one
    stack per group and shape (the groups in ascending order) with slots in
    ascending key order: the layout that ``stacked_matrix`` takes.  Which
    buffer each matrix was put in does not change the result.  Each group's
    chunks are freed once copied."""
    out = {}
    for group in sorted(set().union(*(b.groups for b in buffers))):
        pieces = [b.groups.pop(group) for b in buffers if group in b.groups]
        keys = [key for _, piece, _ in pieces for key in piece]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        slot = np.empty(len(keys), dtype=np.intp)
        slot[order] = np.arange(len(keys))
        stack, start = _own_pages((len(keys), *group[1]), filled=True), 0
        for chunks, _, room in pieces:
            chunks[-1] = chunks[-1][: len(chunks[-1]) - room]
            while chunks:
                chunk = chunks.pop(0)
                stack[slot[start : start + len(chunk)]] = chunk
                start += len(chunk)
        del chunk
        out.update(zip([keys[i] for i in order], stack))
    return out


@dataclass(frozen=True)
class Phase:
    """The plan of one pass over stacked matrices: the slot stacks[i][g]
    maps the input entries at its place in ``cols`` to the output entries
    at its place in ``rows``.  Each side is one 1-D ``np.intp`` array, the
    vector entry of every product position joined in stack, slot and entry
    order, the order of the products in ``apply_groups``'s buffer; A adds
    into ``rows`` and A^H into ``cols``."""

    stacks: list[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray


def stack_groups(d: dict, rows, cols) -> Phase:
    """The phase plan of ``d``'s matrices, one stack per shape (see
    ``_stacks``): d[key] maps the input entries cols(key) to the output
    entries rows(key), each given as an index array or as the int offset of
    a run as long as the matrix side.  Nothing is checked against ranks or
    cluster sizes."""
    return _phase(_stacks(d), rows, cols)


def _phase(pairs: list, rows, cols) -> Phase:
    """The phase plan of the (keys, stack) ``pairs`` in their order, with
    ``rows`` and ``cols`` as in ``stack_groups``."""

    def side(where, axis: int) -> np.ndarray:
        parts = [_index([where(k) for k in keys], stack.shape[axis]).ravel() for keys, stack in pairs]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)

    return Phase([stack for _, stack in pairs], side(rows, 1), side(cols, 2))


def _halves(stacks: list) -> tuple[list, list]:
    """``stacks`` in two parts, cut at the slot boundary nearest the midpoint
    of their entry count; the stack that straddles it is cut between two
    slots.  The second part may be empty, as when there are fewer than two
    slots."""
    total, before = sum(stack.size for stack in stacks), 0
    for n, stack in enumerate(stacks):
        if stack.size and 2 * (before + stack.size) >= total:
            per_slot = stack.size // len(stack)
            cut = (total // 2 - before + per_slot // 2) // per_slot
            first, second = stacks[:n] + [stack[:cut]], [stack[cut:]] + stacks[n + 1 :]
            first, second = [s for s in first if len(s)], [s for s in second if len(s)]
            return (first, second) if first else (second, [])
        before += stack.size
    return stacks, []


def _width(stacks: list, axis: int) -> int:
    """The vector entries ``stacks`` read or write: slots times the side on ``axis``."""
    return sum(len(stack) * stack.shape[axis] for stack in stacks)


def apply_groups(out, inp, phase: Phase, hermitian: bool = False) -> None:
    """out[rows] += M @ inp[cols] for every stacked matrix M of ``phase``,
    or out[cols] += M^H @ inp[rows] when ``hermitian``.  The stacks are cut
    in two parts of about equal entry count (``_halves``), run by
    ``linalg.two_parts``.  Each part gathers its slice of the input, forms
    its stacks' products into its range of one buffer, and for A^H
    conjugates that range; no output is written until both are done.  Then
    one ``np.add.at`` adds the buffer into ``out``.  It is unbuffered and
    walks the positions in order, so every output entry sums its terms in
    stack, slot and entry order, and the result has the same bits with one
    part or two.  M^H v is formed as (v^H M)^H, which reads M in place.

    One part runs alone when the phase holds fewer than two matrices or
    fewer than ``TWO_PART_MIN_ENTRIES`` matrix entries, or when
    ``linalg.two_at_once`` says that two parts would run one after the other
    (on one CPU, or on the worker thread).  An exception in either part
    reaches the caller once both have ended.  ``DH2Matrix``
    applies every stored matrix through one call of this function per phase
    and level, so the matrices a matvec applies are the stacks of the phases
    passed here."""
    src, dst = (phase.rows, phase.cols) if hermitian else (phase.cols, phase.rows)
    read, write = (1, 2) if hermitian else (2, 1)  # stack axes of the entries read and written per slot
    # One buffer holds the gathered input and the products: with two buffers
    # of about one size, glibc's malloc returns its heap top to the system
    # after each call and faults it in again on the next.
    work = np.empty(len(src) + len(dst), dtype=np.complex128)
    gather, prod = work[: len(src)], work[len(src) :]

    def run(stacks: list, i: int, j: int) -> None:
        """The part of ``stacks`` whose input starts at gather[i] and whose
        products start at prod[j]."""
        v, p = gather[i : i + _width(stacks, read)], prod[j : j + _width(stacks, write)]
        v[:] = inp[src[i : i + len(v)]]
        if hermitian:
            np.conjugate(v, out=v)
        i = j = 0
        for stack in stacks:
            g, k, m = stack.shape[0], stack.shape[read], stack.shape[write]
            if hermitian:
                np.matmul(v[i : i + g * k].reshape(g, 1, k), stack, out=p[j : j + g * m].reshape(g, 1, m))
            else:
                np.matmul(stack, v[i : i + g * k].reshape(g, k, 1), out=p[j : j + g * m].reshape(g, m, 1))
            i, j = i + g * k, j + g * m
        if hermitian:
            np.conjugate(p, out=p)

    two = sum(stack.size for stack in phase.stacks) >= TWO_PART_MIN_ENTRIES and two_at_once()
    first, second = _halves(phase.stacks) if two else (phase.stacks, [])
    if second:
        two_parts(lambda: run(first, 0, 0), lambda: run(second, _width(first, read), _width(first, write)))
    else:
        run(first, 0, 0)
    # numpy >= 1.25 runs this on its fast path: a 1-D intp index and complex
    # values into a complex vector, with no cast
    np.add.at(out, dst, prod)


def run_offsets(lengths: dict) -> tuple[dict, int]:
    """Start of each key's run in a vector that holds the runs in ascending
    key order, and the vector's length."""
    offsets, size = {}, 0
    for key in sorted(lengths):
        offsets[key] = size
        size += int(lengths[key])
    return offsets, size


# -- the container -----------------------------------------------------------


@dataclass
class DirectionalClusterBasis:
    """Basis keys are (cluster id, direction index at the cluster's level);
    transfer keys are (son cluster id, direction index at the parent level)."""

    leaf: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    transfer: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    rank: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass
class _BasisPlan:
    size: int  # coefficients of all (cluster, direction) pairs
    offsets: dict  # (cluster, direction) -> start of its coefficients
    leaf: Phase  # rows: index-set entries, cols: coefficients
    transfer: list[Phase]  # per son level; rows: son, cols: parent coefficients


@dataclass(frozen=True)
class DH2Matrix:
    tree: ClusterTree
    directions: DirectionHierarchy
    blocks: BlockTree
    row_basis: DirectionalClusterBasis
    col_basis: DirectionalClusterBasis
    coupling: dict[int, np.ndarray]
    nearfield: dict[int, np.ndarray]

    def __post_init__(self):
        self._plan(_grouped(self))

    def _plan(self, stacks: dict) -> None:
        """Build the phase plans from ``stacks``, each category's (keys,
        stack) pairs with the stacks of each category (of each transfer
        level) in ascending shape order."""
        tree, (t, s, c) = self.tree, (x.tolist() for x in (self.blocks.t, self.blocks.s, self.blocks.c_index))
        row = self._basis_plan(self.row_basis, stacks["row_leaf"], stacks["row_transfer"])
        col = self._basis_plan(self.col_basis, stacks["col_leaf"], stacks["col_transfer"])
        coupling = _phase(
            stacks["coupling"], lambda bid: row.offsets[(t[bid], c[bid])], lambda bid: col.offsets[(s[bid], c[bid])]
        )
        nearfield = _phase(stacks["nearfield"], lambda bid: tree.index_set(t[bid]), lambda bid: tree.index_set(s[bid]))
        # the dataclass is frozen, so its private plans are set past it
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_col", col)
        object.__setattr__(self, "_coupling", coupling)
        object.__setattr__(self, "_nearfield", nearfield)

    def _basis_plan(self, basis: DirectionalClusterBasis, leaf: list, transfer: list) -> _BasisPlan:
        """The plans of one basis from its leaf and its transfer (keys, stack)
        pairs; the transfer phases run by the level of their son clusters."""
        tree, dirs = self.tree, self.directions
        parent, level = tree.parent.tolist(), tree.level.tolist()
        offsets, size = run_offsets(basis.rank)

        def son_coefficients(key):
            son, c = key
            return offsets[(son, dirs.son_index(level[parent[son]], c))]

        by_level: list[list] = [[] for _ in range(tree.depth + 1)]
        for keys, stack in transfer:
            by_level[level[keys[0][0]]].append((keys, stack))
        return _BasisPlan(
            size,
            offsets,
            _phase(leaf, lambda key: tree.index_set(key[0]), lambda key: offsets[key]),
            [_phase(part, son_coefficients, lambda key: offsets[(parent[key[0]], key[1])]) for part in by_level],
        )

    @property
    def n(self) -> int:
        return self.tree.index_set(self.tree.root).size

    def _apply(self, x: np.ndarray, hermitian: bool) -> np.ndarray:
        """A x, or A^H x when ``hermitian``: the forward pass runs through the
        basis on the input side, the backward pass through the other one."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        src, dst = (self._row, self._col) if hermitian else (self._col, self._row)
        xhat = np.zeros(src.size, dtype=np.complex128)
        apply_groups(xhat, x, src.leaf, True)
        for phase in reversed(src.transfer):
            apply_groups(xhat, xhat, phase, True)
        yhat = np.zeros(dst.size, dtype=np.complex128)
        apply_groups(yhat, xhat, self._coupling, hermitian)
        for phase in dst.transfer:
            apply_groups(yhat, yhat, phase, False)
        y = np.zeros(self.n, dtype=np.complex128)
        apply_groups(y, yhat, dst.leaf, False)
        apply_groups(y, x, self._nearfield, hermitian)
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, False)

    def matvec_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, True)

    def stored_matrix_count(self) -> int:
        return (
            len(self.row_basis.leaf)
            + len(self.row_basis.transfer)
            + len(self.col_basis.leaf)
            + len(self.col_basis.transfer)
            + len(self.coupling)
            + len(self.nearfield)
        )


def _categories(a: DH2Matrix) -> dict:
    """Each payload category's dict of ``a``, in container order."""
    row, col = a.row_basis, a.col_basis
    return dict(zip(_CATEGORIES, (row.leaf, row.transfer, col.leaf, col.transfer, a.coupling, a.nearfield)))


def _grouped(a: DH2Matrix) -> dict:
    """Each category's (keys, stack) pairs, grouped by ``_stacks``: one stack
    per shape, the transfer matrices per son level and shape."""
    level = a.tree.level.tolist()
    son_level = lambda key: level[key[0]]
    return {c: _stacks(d, son_level if c.endswith("_transfer") else None) for c, d in _categories(a).items()}


def _slot_runs(d: dict) -> list[tuple[list, np.ndarray]]:
    """(keys, stack) for each run of ``d``'s values that are the slots of
    one stack, in order."""
    runs: list = []
    for key, m in d.items():
        if runs and m.base is runs[-1][1]:
            runs[-1][0].append(key)
        else:
            runs.append(([key], m.base))
    if any(stack is None or len(keys) != len(stack) for keys, stack in runs):
        raise ValueError("the payload is not laid out in whole stacks")
    return runs


def stacked_matrix(*values) -> DH2Matrix:
    """``DH2Matrix(*values)`` for payload dicts that are laid out as its
    stacks already, as ``join_buffers``, ``empty_stacks`` and ``load_dh2``
    lay them out: each dict's values are the slots of its stacks in slot
    order, one stack after another, and the stacks of each category (of
    each transfer level) come in ascending shape order, one per shape.  The
    plans are built from that layout as it is: only that each run of slots
    fills its stack is checked, not the rest of the layout that
    ``DH2Matrix`` would prove or make."""
    a = object.__new__(DH2Matrix)
    for f, value in zip(fields(DH2Matrix), values):
        object.__setattr__(a, f.name, value)
    a._plan({category: _slot_runs(d) for category, d in _categories(a).items()})
    return a


def expand_factor(
    basis: DirectionalClusterBasis,
    tree: ClusterTree,
    dirs: DirectionHierarchy,
    cid: int,
    c: int,
    memo: dict | None = None,
) -> np.ndarray:
    """Explicit basis matrix of (cluster, direction), rows aligned with the
    cluster's sorted index set.  Non-leaf factors are expanded through the
    transfer matrices.  A ``memo`` dict, used for one basis only, keeps
    every (cluster, direction) expansion so that later calls share them."""
    if memo is not None and (cid, c) in memo:
        return memo[(cid, c)]
    rows, sons = tree.index_set(cid), tree.sons_of(cid)
    if not sons:
        out = basis.leaf[(cid, c)]
    else:
        out = np.zeros((rows.size, basis.rank[(cid, c)]), dtype=np.complex128)
        c2 = dirs.son_index(tree.level[cid], c)
        for son in sons:
            sub = expand_factor(basis, tree, dirs, son, c2, memo)
            out[np.searchsorted(rows, tree.index_set(son))] = sub @ basis.transfer[(son, c)]
    if memo is not None:
        memo[(cid, c)] = out
    return out


def expand_dense(a: DH2Matrix) -> np.ndarray:
    """Assemble the represented matrix block by block (test oracle), up to
    ``DENSE_EXPANSION_CAP`` rows."""
    n = a.n
    if n > DENSE_EXPANSION_CAP:
        raise ValueError(f"dense expansion capped at {DENSE_EXPANSION_CAP} rows, matrix has {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    row_memo: dict = {}
    col_memo: dict = {}
    for bid, t, s, c in a.blocks.entries(a.blocks.admissible_leaves):
        v = expand_factor(a.row_basis, a.tree, a.directions, t, c, row_memo)
        w = expand_factor(a.col_basis, a.tree, a.directions, s, c, col_memo)
        out[np.ix_(a.tree.index_set(t), a.tree.index_set(s))] = v @ a.coupling[bid] @ w.conj().T
    for bid, t, s, _ in a.blocks.entries(a.blocks.inadmissible_leaves):
        out[np.ix_(a.tree.index_set(t), a.tree.index_set(s))] = a.nearfield[bid]
    return out


@dataclass
class StorageReport:
    leaf_entries: int
    transfer_entries: int
    coupling_entries: int
    nearfield_entries: int

    @property
    def total(self) -> int:
        return (
            self.leaf_entries
            + self.transfer_entries
            + self.coupling_entries
            + self.nearfield_entries
        )

    def mem_per_dof_kib(self, n: int) -> float:
        return self.total * 16.0 / 1024.0 / n


def storage_report(a: DH2Matrix) -> StorageReport:
    leaf = sum(m.size for m in a.row_basis.leaf.values())
    leaf += sum(m.size for m in a.col_basis.leaf.values())
    transfer = sum(m.size for m in a.row_basis.transfer.values())
    transfer += sum(m.size for m in a.col_basis.transfer.values())
    coupling = sum(m.size for m in a.coupling.values())
    nearfield = sum(m.size for m in a.nearfield.values())
    return StorageReport(leaf, transfer, coupling, nearfield)


# -- DH2v5 container --------------------------------------------------------

_C16 = np.dtype("<c16")
_CATEGORIES = ("row_leaf", "row_transfer", "col_leaf", "col_transfer", "coupling", "nearfield")
_TREE_LISTS = ("sons", "index_sets", "support_min", "support_max")  # per cluster id
_BLOCK_LISTS = ("t", "s", "status", "c_index")  # per block id
_BLOCK_PARAMETERS = ("kappa", "eta1", "eta2", "parabolic")


def _runs(values: np.ndarray, ptr: np.ndarray) -> list[list]:
    """The CSR runs values[ptr[i]:ptr[i + 1]] as lists of Python values."""
    values, ptr = values.tolist(), ptr.tolist()
    return [values[a:b] for a, b in zip(ptr, ptr[1:])]


def _section(manifest: dict, name: str, lists: tuple, others: tuple = ()) -> dict:
    """The manifest's section ``name``: a one-line ValueError unless its
    fields are ``lists`` and ``others``, and the ``lists`` have one length."""
    part = manifest[name]
    missing, unknown = sorted({*lists, *others} - set(part)), sorted(set(part) - {*lists, *others})
    if missing or unknown:
        wrong = f"lacks the field {missing[0]!r}" if missing else f"has the unknown field {unknown[0]!r}"
        raise ValueError(f"the {name!r} section {wrong}")
    if len({len(part[k]) for k in lists}) > 1:
        raise ValueError(f"the {name!r} lists {', '.join(lists)} are not of one length")
    return part


def _cluster_tree(manifest: dict) -> ClusterTree:
    """The cluster tree of the manifest's "tree" section; ``from_sons``
    derives the parents, levels, depth and root from the son lists."""
    tm = _section(manifest, "tree", _TREE_LISTS)
    boxes = (np.array(tm[k], dtype=float).reshape(len(tm["sons"]), 3) for k in ("support_min", "support_max"))
    return ClusterTree.from_sons(tm["sons"], [np.array(x, dtype=np.int64) for x in tm["index_sets"]], *boxes)


def _block_tree(tree: ClusterTree, manifest: dict) -> BlockTree:
    """The block tree of the manifest's "blocks" section; an unknown status
    is a KeyError."""
    bm = _section(manifest, "blocks", _BLOCK_LISTS, _BLOCK_PARAMETERS)
    t, s, c_index = (np.array(bm[k], dtype=np.int64) for k in ("t", "s", "c_index"))
    if not np.isin(np.concatenate([t, s]), np.arange(len(tree))).all():
        raise ValueError("a block names a cluster the tree lacks")
    code = {name: k for k, name in enumerate(STATUSES)}
    status = np.array([code[x] for x in bm["status"]], dtype=np.int8)
    return BlockTree(t, s, status, c_index, tree.level[t], **{k: bm[k] for k in _BLOCK_PARAMETERS})


def _payload(a: DH2Matrix):
    """(category, keys, stack) for every stack of ``a`` in container order
    (``_grouped``)."""
    for category, pairs in _grouped(a).items():
        yield from ((category, keys, stack) for keys, stack in pairs)


def save_dh2(a: DH2Matrix, directory: str | Path) -> None:
    """Write the DH2v5 container: a directory holding ``manifest.json`` (the
    cluster tree as the lists ``_TREE_LISTS`` by cluster id, the directions,
    the block tree as ``_BLOCK_PARAMETERS`` and the lists ``_BLOCK_LISTS`` by
    block id, the ranks, and a table with one ``[category, [G, r, c], keys]``
    entry per stack) and ``payload.bin`` (every stack in table order, in C
    order, as ``<c16``).  No id, parent, level, depth or root is stored: the
    clusters' son lists give them.  No block son list is stored: the blocks
    are numbered depth first, which gives every block's sons.

    The old manifest is deleted first, then the payload and the manifest are
    each written to a temporary file and renamed, the manifest last, so an
    interrupted save leaves nothing that loads.  Saves of one matrix are
    byte-identical."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)
    table = []
    with open(outdir / "payload.bin.tmp", "wb") as fh:
        for category, keys, stack in _payload(a):
            fh.write(np.ascontiguousarray(stack, dtype=_C16))
            table.append([category, list(stack.shape), keys])
    os.replace(outdir / "payload.bin.tmp", outdir / "payload.bin")
    tree, bt = a.tree, a.blocks
    manifest = {
        "version": "DH2v5",
        "tree": {
            "sons": _runs(tree.sons, tree.son_ptr),
            "index_sets": _runs(tree.sets, tree.set_ptr),
            "support_min": tree.bmin.tolist(),
            "support_max": tree.bmax.tolist(),
        },
        "directions": {
            "levels": [lv.tolist() for lv in a.directions.levels],
            "son_maps": [sm.tolist() for sm in a.directions.son_maps],
        },
        "blocks": {
            **{k: getattr(bt, k) for k in _BLOCK_PARAMETERS},
            **{k: getattr(bt, k).tolist() for k in ("t", "s", "c_index")},
            "status": [STATUSES[k] for k in bt.status.tolist()],
        },
        "rank": {
            side: [[cid, c, int(k)] for (cid, c), k in sorted(basis.rank.items())]
            for side, basis in (("row", a.row_basis), ("col", a.col_basis))
        },
        "stacks": table,
    }
    tmp = outdir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, outdir / "manifest.json")


def _read_payload(path: Path, table: list) -> dict:
    """Each category's matrices, keyed as in the table: every stack is read
    into an array of its own, whose slots are the matrices."""
    for i, (category, shape, keys) in enumerate(table):
        if category not in _CATEGORIES:
            raise ValueError(f"stack {i} has the unknown category {category!r}")
        if len(shape) != 3 or not all(isinstance(x, int) and x >= 0 for x in shape) or shape[0] != len(keys):
            raise ValueError(f"stack {i} has shape {shape} but {len(keys)} keys")
        if not keys:
            raise ValueError(f"stack {i} holds no matrix")
    need = sum(16 * shape[0] * shape[1] * shape[2] for _, shape, _ in table)
    payload: dict = {category: {} for category in _CATEGORIES}
    with open(path, "rb") as fh:
        have = os.fstat(fh.fileno()).st_size
        if have != need:
            raise ValueError(f"payload.bin holds {have} bytes, its stack table needs {need}")
        for i, (category, shape, keys) in enumerate(table):
            stack, held = np.empty(shape, dtype=_C16), len(payload[category])
            fh.readinto(stack)
            payload[category].update(zip(keys, stack))
            if len(payload[category]) != held + len(keys):
                raise ValueError(f"stack {i} repeats a {category} key")
    return payload


def _check_table(tree: ClusterTree, table: list) -> None:
    """Raise a one-line ValueError unless the stack table is laid out as
    ``save_dh2`` writes it, the layout that ``stacked_matrix`` takes: every
    stack lists its keys in ascending order, every transfer stack holds the
    transfers of son clusters of one level, and the stacks of each category
    (of each transfer level) come in ascending shape order, one per shape."""
    level, last = tree.level.tolist(), {}
    for i, (category, shape, keys) in enumerate(table):
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"stack {i} does not list its keys in ascending order")
        part = (category,)
        if category.endswith("_transfer"):
            levels = sorted({level[son] for son, _ in keys})
            if len(levels) > 1:
                raise ValueError(f"stack {i} holds transfers of son clusters of levels {levels}")
            part += tuple(levels)
        if part in last and last[part] >= shape[1:]:
            raise ValueError(
                f"stack {i} of shape {shape[1:]} follows one of shape {last[part]}:"
                f" the {category} stacks of a level are not in ascending shape order, one per shape"
            )
        last[part] = shape[1:]


def _check_trees(tree: ClusterTree, bt: BlockTree) -> None:
    """Raise a one-line ValueError unless every cluster holds its sons'
    indices and the blocks in id order are the depth-first expansion of the
    root pair: block 0 is (root, root), a subdivided block (t, s) has son
    pairs and is followed by them, (sons of t) x (sons of s) in turn, each
    with its own subtree, and the expansion ends at the last block.  With
    the leaf partition that ``_check`` tests, the leaf blocks then tile
    n x n: the root's index set is 0..n-1 and each cluster's is the disjoint
    union of its sons', so a subdivided block's rectangle is the disjoint
    union of its son pairs', and the walk meets each block of the expansion
    once."""
    for cid in range(len(tree)):
        held = [tree.index_set(son) for son in tree.sons_of(cid)]
        if held and not np.array_equal(np.sort(tree.index_set(cid)), np.sort(np.concatenate(held))):
            raise ValueError(f"cluster {cid}'s index set is not its sons' together")
    subdivided, todo = STATUSES.index(SUBDIVIDED), [(tree.root, tree.root)]  # the pairs to come, next last
    for bid, (t, s, status) in enumerate(zip(bt.t.tolist(), bt.s.tolist(), bt.status.tolist())):
        if not todo:
            raise ValueError(f"block {bid} follows the end of the depth-first expansion of the root pair")
        want = todo.pop()
        if (t, s) != want:
            raise ValueError(f"block {bid} pairs clusters ({t}, {s}), the depth-first numbering gives {want}")
        if status == subdivided:
            pairs = [(t2, s2) for t2 in tree.sons_of(t) for s2 in tree.sons_of(s)]
            if not pairs:
                raise ValueError(f"block {bid} is subdivided, but clusters ({t}, {s}) have no son pairs")
            todo.extend(reversed(pairs))
    if todo:
        raise ValueError(f"the blocks end before the pair {todo[-1]} of the depth-first expansion")


def _check(tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, ranks: dict, payload: dict) -> None:
    """Raise a one-line ValueError unless the tree's depth fits the
    direction levels and son maps, each level is a cube-face grid or the
    zero set (``grid_size``), each son map is the one that
    ``nearest_direction_index`` gives, the leaf clusters partition 0..n-1, the
    trees pass ``_check_trees`` (so the leaf blocks tile n x n), and the
    payload holds a matrix for every admissible block, inadmissible
    block, leaf pair and transfer, each of the shape that the ranks and
    cluster sizes give.  A matrix with no such place raises KeyError."""
    depth = tree.depth
    if len(dirs.levels) != depth + 1 or len(dirs.son_maps) != depth:
        raise ValueError(
            f"the tree has depth {depth} but {len(dirs.levels)} direction levels and {len(dirs.son_maps)} son maps"
        )
    for level, directions in enumerate(dirs.levels):
        if grid_size(directions) is None:
            raise ValueError(f"direction level {level} is neither a cube-face grid nor the zero set")
    for level, son_map in enumerate(dirs.son_maps):
        if son_map.shape != (dirs.count(level),) or ((son_map < 0) | (son_map >= dirs.count(level + 1))).any():
            raise ValueError(f"the son map of direction level {level} does not map into level {level + 1}")
        if not np.array_equal(son_map, nearest_direction_index(dirs.levels[level + 1], dirs.levels[level])):
            raise ValueError(f"the son map of direction level {level} is not the nearest-direction map")
    size, level = np.diff(tree.set_ptr).tolist(), tree.level.tolist()
    leaves = np.repeat(tree.son_ptr[:-1] == tree.son_ptr[1:], size)  # the entries of the leaves' index sets
    if not np.array_equal(np.sort(tree.sets[leaves]), np.arange(size[tree.root])):
        raise ValueError("the leaf clusters' index sets do not partition 0..n-1")
    _check_trees(tree, bt)
    row, col = ranks["row"], ranks["col"]
    shapes = {
        "coupling": {i: (row[(t, c)], col[(s, c)]) for i, t, s, c in bt.entries(bt.admissible_leaves)},
        "nearfield": {i: (size[t], size[s]) for i, t, s, _ in bt.entries(bt.inadmissible_leaves)},
    }
    for side, rank in ranks.items():
        shapes[f"{side}_leaf"] = {(cid, c): (size[cid], k) for (cid, c), k in rank.items() if not tree.sons_of(cid)}
        shapes[f"{side}_transfer"] = {
            (son, c): (rank[(son, dirs.son_index(level[cid], c))], k)
            for (cid, c), k in rank.items()
            for son in tree.sons_of(cid)
        }
    for category, d in payload.items():
        want = shapes[category]
        if want.keys() - d.keys():
            raise ValueError(f"{category} {min(want.keys() - d.keys())} has no payload")
        for key, m in d.items():
            if m.shape != want[key]:
                raise ValueError(f"{category} {key} has shape {m.shape}, its ranks and cluster sizes give {want[key]}")


def load_dh2(directory: str | Path) -> DH2Matrix:
    """Read a DH2v5 container (see ``save_dh2``).  The matrices are the slots
    of the stacks as read, which the returned matrix uses in place; its phase
    plans are built from the stack table as it is, with no regrouping.  The
    clusters' parents, levels, depth and root are
    derived from their son lists, and the blocks' levels from their
    clusters.  A container is rejected with a one-line ValueError when its
    version is another (DH2v4 and older included), the manifest or one of
    its sections lacks a field or has an unknown one, a section's lists
    differ in length, the son lists do not form a tree numbered as
    ``ClusterTree.from_sons`` requires, the blocks are not the depth-first
    expansion of the root pair (``_check_trees``), the stacks are not laid
    out as ``save_dh2`` writes them (``_check_table``), a direction level is not
    ``cube_surface_directions(m)`` for its count 6m² (equal as floats) nor the
    zero set, a son map is not the one that ``nearest_direction_index``
    gives, or the direction levels, leaf index sets, block clusters and
    statuses, stack table, payload length, shapes or block payloads do not
    fit."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("not a DH2v5 container: manifest.json holds no JSON object")
    if manifest.get("version") != "DH2v5":
        raise ValueError(f"not a DH2v5 container: its version is {manifest.get('version')!r}")
    unknown = sorted(set(manifest) - {"version", "tree", "directions", "blocks", "rank", "stacks"})
    if unknown:
        raise ValueError(f"the manifest has the unknown field {unknown[0]!r}")
    try:
        tree = _cluster_tree(manifest)
        dm = _section(manifest, "directions", (), ("levels", "son_maps"))
        dirs = DirectionHierarchy(
            levels=[np.array(lv, dtype=float).reshape(-1, 3) for lv in dm["levels"]],
            son_maps=[np.array(sm, dtype=np.int64) for sm in dm["son_maps"]],
        )
        bt = _block_tree(tree, manifest)
        rm = _section(manifest, "rank", (), ("row", "col"))
        ranks = {side: {(cid, c): k for cid, c, k in rm[side]} for side in ("row", "col")}
        table = [
            (category, shape, [tuple(k) if isinstance(k, list) else k for k in keys])
            for category, shape, keys in manifest["stacks"]
        ]
        payload = _read_payload(directory / "payload.bin", table)
        _check(tree, dirs, bt, ranks, payload)
        _check_table(tree, table)
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"the container is malformed or names a cluster, block or rank it lacks: {exc}") from None
    bases = [DirectionalClusterBasis(payload[f"{s}_leaf"], payload[f"{s}_transfer"], ranks[s]) for s in ("row", "col")]
    return stacked_matrix(tree, dirs, bt, *bases, payload["coupling"], payload["nearfield"])
