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
the payload is held once.

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

A phase of at least ``TWO_PART_MIN_ENTRIES`` matrix entries is cut in two
parts of about equal entry count, which gather and multiply on two threads
(``linalg.two_parts``).  The one ``np.add.at`` runs after both, so a matvec
has the same bits in one part or two.

The container is a frozen dataclass: construction stacks the payload, and
its attributes cannot be reassigned afterwards.  A container with another
payload is made with ``dataclasses.replace``, which stacks it anew; the
dicts hold views of the stacks and must not be rebound key by key.  Matvecs
keep all scratch per call, and each waits for its own parts, so concurrent
matvecs are safe.
Sums run in a fixed order, which fixes the floating-point result: phase by
phase, and within a phase each output entry adds its products in stack
order (ascending level and shape), slot order (ascending key) and entry
order, since ``np.add.at`` is unbuffered and adds the positions one by one
in that order: ((out[e] + p1) + p2) + ...

``save_dh2`` writes the stacks as they are into a DH2v3 container, and
``load_dh2`` checks them and hands them to the loaded matrix in place.
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blocktree import STATUSES, BlockTree
from .clustering import ClusterTree
from .directions import DirectionHierarchy
from .linalg import two_cpus, two_parts

__all__ = [
    "DirectionalClusterBasis",
    "DH2Matrix",
    "stack_slots",
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


def stack_slots(shapes: dict) -> dict:
    """Zeroed storage for one complex matrix per key of ``shapes``: one
    (G, r, c) stack per shape, slots in ascending key order.  Returns each
    key's slot, the view stack[g]."""
    slots = {}
    for shape, keys in _group_keys(shapes).items():
        slots.update(zip(keys, np.zeros((len(keys), *shape), dtype=np.complex128)))
    return slots


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


def _stacks(d: dict) -> list[tuple[list, np.ndarray]]:
    """``d``'s matrices as (keys, stack) pairs, one stack per shape with
    slots in ascending key order.  Matrices that are already the slots of
    such a stack (as ``stack_slots`` or ``load_dh2`` lay them out) are used
    in place; any other group is copied into a new stack and ``d`` is
    rebound to its slots, so the payload is held once."""
    out = []
    for keys in _group_keys({k: v.shape for k, v in d.items()}).values():
        stack = _stack_of([d[k] for k in keys])
        if stack is None:
            stack = np.array([d[k] for k in keys], dtype=np.complex128)
            d.update(zip(keys, stack))
        out.append((keys, stack))
    return out


def _levels(tree: ClusterTree, transfer: dict) -> list[dict]:
    """The transfer matrices split by the level of their son cluster, the
    parts that are stacked (and applied) one after another."""
    by_level: list[dict] = [{} for _ in range(tree.depth + 1)]
    level = tree.level.tolist()
    for key, m in transfer.items():
        by_level[level[key[0]]][key] = m
    return by_level


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
    pairs = _stacks(d)

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
    in two parts of about equal entry count (``_halves``), which run on two
    threads (``linalg.two_parts``).  Each part gathers its slice of the
    input, forms its stacks' products into its range of one buffer, and for
    A^H conjugates that range; no output is written until both are done.  Then
    one ``np.add.at`` adds the buffer into ``out``.  It is unbuffered and
    walks the positions in order, so every output entry sums its terms in
    stack, slot and entry order, and the result has the same bits with one
    part or two.  M^H v is formed as (v^H M)^H, which reads M in place.

    One part runs alone when the phase holds fewer than two matrices or
    fewer than ``TWO_PART_MIN_ENTRIES`` matrix entries, or when the process
    may use only one CPU.  An exception in either part reaches the caller
    once both have ended.  ``DH2Matrix`` applies every stored matrix through
    one call of this function per phase and level, so the matrices a matvec
    applies are the stacks of the phases passed here."""
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

    two = two_cpus() and sum(stack.size for stack in phase.stacks) >= TWO_PART_MIN_ENTRIES
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
        tree, (t, s, c) = self.tree, (x.tolist() for x in (self.blocks.t, self.blocks.s, self.blocks.c_index))
        row, col = self._basis_plan(self.row_basis), self._basis_plan(self.col_basis)
        coupling = stack_groups(
            self.coupling, lambda bid: row.offsets[(t[bid], c[bid])], lambda bid: col.offsets[(s[bid], c[bid])]
        )
        nearfield = stack_groups(self.nearfield, lambda bid: tree.index_set(t[bid]), lambda bid: tree.index_set(s[bid]))
        # the dataclass is frozen, so its private plans are set past it
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_col", col)
        object.__setattr__(self, "_coupling", coupling)
        object.__setattr__(self, "_nearfield", nearfield)

    def _basis_plan(self, basis: DirectionalClusterBasis) -> _BasisPlan:
        tree, dirs = self.tree, self.directions
        parent, level = tree.parent.tolist(), tree.level.tolist()
        offsets, size = run_offsets(basis.rank)
        leaf = stack_groups(basis.leaf, lambda key: tree.index_set(key[0]), lambda key: offsets[key])

        def son_coefficients(key):
            son, c = key
            return offsets[(son, dirs.son_index(level[parent[son]], c))]

        transfer = []
        for part in _levels(tree, basis.transfer):
            transfer.append(stack_groups(part, son_coefficients, lambda key: offsets[(parent[key[0]], key[1])]))
            basis.transfer.update(part)  # the slots of any part stacked anew
        return _BasisPlan(size, offsets, leaf, transfer)

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


# -- DH2v3 container --------------------------------------------------------

_C16 = np.dtype("<c16")
_CATEGORIES = ("row_leaf", "row_transfer", "col_leaf", "col_transfer", "coupling", "nearfield")
_CLUSTER_FIELDS = ("id", "index_set", "level", "parent", "sons", "support_max", "support_min")  # a cluster's keys
_BLOCK_PARAMETERS = ("kappa", "eta1", "eta2", "parabolic")
_NODE_FIELDS = ("c_index", "id", "s", "sons", "status", "t")  # a manifest block node's keys


def _nodes(bt: BlockTree) -> list[dict]:
    """The manifest's block nodes, one dict of Python values per block."""
    sons = bt.sons.tolist()
    columns = zip(*(x.tolist() for x in (bt.c_index, bt.s, bt.son_ptr, bt.son_ptr[1:], bt.status, bt.t)))
    return [
        dict(zip(_NODE_FIELDS, (c, i, s, sons[a:b], STATUSES[k], t))) for i, (c, s, a, b, k, t) in enumerate(columns)
    ]


def _clusters(tree: ClusterTree) -> list[dict]:
    """The manifest's clusters, one dict of Python values per cluster."""
    columns = zip(tree.level.tolist(), tree.parent.tolist(), tree.bmax.tolist(), tree.bmin.tolist())
    return [
        dict(zip(_CLUSTER_FIELDS, (i, tree.index_set(i).tolist(), level, parent, list(tree.sons_of(i)), hi, lo)))
        for i, (level, parent, hi, lo) in enumerate(columns)
    ]


def _cluster_tree(tm: dict) -> ClusterTree:
    """The cluster tree of the manifest's "tree" entry, as ``_clusters``
    wrote it; a missing field is a KeyError.  The clusters' parents and
    levels and the tree's depth and root must be those of the son lists."""
    ids, sets, level, parent, sons, bmax, bmin = ([c[k] for c in tm["clusters"]] for k in _CLUSTER_FIELDS)
    unknown = sorted({k for c in tm["clusters"] for k in c} - set(_CLUSTER_FIELDS))
    if ids != list(range(len(ids))) or unknown:
        raise ValueError(f"the container is malformed: clusters are not numbered 0, 1, ... or have fields {unknown}")
    boxes = (np.array(x, dtype=float).reshape(len(ids), 3) for x in (bmin, bmax))
    tree = ClusterTree.from_sons(sons, [np.array(x, dtype=np.int64) for x in sets], *boxes)
    given = {"parent": parent, "level": level, "depth": tm["depth"], "root": tm["root"]}
    wrong = [k for k, v in given.items() if not np.array_equal(v, getattr(tree, k))]
    if wrong:
        raise ValueError(f"the tree's {' and '.join(wrong)} fields disagree with its son lists")
    return tree


def _block_tree(tree: ClusterTree, bm: dict) -> BlockTree:
    """The block tree of the manifest's "blocks" entry, as ``_nodes`` wrote
    it; a missing field or an unknown status is a KeyError."""
    c_index, ids, s, sons, status, t = ([node[k] for node in bm["nodes"]] for k in _NODE_FIELDS)
    if ids != list(range(len(ids))) or sum(map(len, bm["nodes"])) != len(_NODE_FIELDS) * len(ids):
        raise ValueError("the block nodes are not numbered 0, 1, ... in order, or have unknown fields")
    code = {name: k for k, name in enumerate(STATUSES)}
    t, s, c_index = (np.array(x, dtype=np.int64) for x in (t, s, c_index))
    if not np.isin(np.concatenate([t, s]), np.arange(len(tree))).all():
        raise ValueError("a block node names a cluster the tree lacks")
    status, level = np.array([code[x] for x in status], dtype=np.int8), tree.level[t]
    son_ptr, sons = np.cumsum([0] + [len(x) for x in sons]), np.array([i for x in sons for i in x], dtype=np.int64)
    parameters = {k: bm[k] for k in _BLOCK_PARAMETERS}
    return BlockTree(t, s, status, c_index, level, son_ptr, sons, root=bm["root"], **parameters)


def _payload(a: DH2Matrix):
    """(category, keys, stack) for every stack of ``a`` in container order,
    grouped as ``DH2Matrix`` stacks them: one stack per shape, the transfer
    matrices per son level and shape."""
    parts = []
    for side, basis in (("row", a.row_basis), ("col", a.col_basis)):
        parts.append((f"{side}_leaf", basis.leaf))
        parts.extend((f"{side}_transfer", part) for part in _levels(a.tree, basis.transfer))
    parts += [("coupling", a.coupling), ("nearfield", a.nearfield)]
    for category, d in parts:
        for keys, stack in _stacks(d):
            yield category, keys, stack


def save_dh2(a: DH2Matrix, directory: str | Path) -> None:
    """Write the DH2v3 container: a directory holding ``manifest.json`` (tree
    with support boxes, directions, block structure, ranks, and a
    table with one ``[category, [G, r, c], keys]`` entry per stack) and
    ``payload.bin`` (every stack in table order, in C order, as ``<c16``).

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
    manifest = {
        "version": "DH2v3",
        "tree": {
            "root": a.tree.root,
            "depth": a.tree.depth,
            "clusters": _clusters(a.tree),
        },
        "directions": {
            "levels": [lv.tolist() for lv in a.directions.levels],
            "son_maps": [sm.tolist() for sm in a.directions.son_maps],
        },
        "blocks": {
            "root": a.blocks.root,
            **{k: getattr(a.blocks, k) for k in _BLOCK_PARAMETERS},
            "nodes": _nodes(a.blocks),
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
    """Each category's matrices, keyed as in the manifest: every stack is
    read into an array of its own, whose slots are the matrices."""
    for i, (category, shape, keys) in enumerate(table):
        if category not in _CATEGORIES:
            raise ValueError(f"stack {i} has the unknown category {category!r}")
        if len(shape) != 3 or not all(isinstance(x, int) and x >= 0 for x in shape) or shape[0] != len(keys):
            raise ValueError(f"stack {i} has shape {shape} but {len(keys)} keys")
    need = sum(16 * shape[0] * shape[1] * shape[2] for _, shape, _ in table)
    payload: dict = {category: {} for category in _CATEGORIES}
    with open(path, "rb") as fh:
        have = os.fstat(fh.fileno()).st_size
        if have != need:
            raise ValueError(f"payload.bin holds {have} bytes, its stack table needs {need}")
        for category, shape, keys in table:
            stack = np.empty(shape, dtype=_C16)
            fh.readinto(stack)
            payload[category].update(zip((tuple(k) if isinstance(k, list) else k for k in keys), stack))
    return payload


def _check_tiling(tree: ClusterTree, bt: BlockTree) -> None:
    """The leaf blocks tile n x n when every cluster holds its sons' indices
    and every pair of leaf clusters lies below exactly one leaf block.
    Leaves are numbered depth first, so those below a cluster are a range."""
    preorder, todo = [], [tree.root]
    while todo:  # ends: the son lists form a tree (``ClusterTree.from_sons``)
        preorder.append(todo.pop())
        todo.extend(reversed(tree.sons_of(preorder[-1])))
    order = [cid for cid in preorder if not tree.sons_of(cid)]
    spans = np.zeros((len(tree), 2), dtype=np.int64)
    spans[order] = np.arange(len(order))[:, None] + [0, 1]
    for cid in reversed(preorder):  # sons before their parent
        sons = tree.sons_of(cid)
        if sons:
            held = np.concatenate([tree.index_set(s) for s in sons])
            if not np.array_equal(np.sort(tree.index_set(cid)), np.sort(held)):
                raise ValueError(f"cluster {cid}'s index set is not its sons' together")
            spans[cid] = spans[sons[0], 0], spans[sons[-1], 1]
    bids = np.concatenate([bt.admissible_leaves, bt.inadmissible_leaves])
    (t0, t1), (s0, s1) = spans[bt.t[bids]].T, spans[bt.s[bids]].T
    # a block adds one on its rectangle: +1 and -1 at its corners, summed up
    corners = np.zeros((len(order) + 1, len(order) + 1), dtype=np.int64)
    for rows, cols, sign in ((t0, s0, 1), (t0, s1, -1), (t1, s0, -1), (t1, s1, 1)):
        np.add.at(corners, (rows, cols), sign)
    cover = corners.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    if (cover != 1).any():
        i, j = np.argwhere(cover != 1)[0]
        raise ValueError(
            f"the leaf blocks do not tile n x n: they cover leaf clusters ({order[i]}, {order[j]}) {cover[i, j]} times"
        )


def _check(tree: ClusterTree, dirs: DirectionHierarchy, bt: BlockTree, ranks: dict, payload: dict) -> None:
    """Raise a one-line ValueError unless the tree's depth fits the
    direction levels and son maps, the leaf clusters partition 0..n-1,
    every cluster holds its sons' indices, the leaf blocks tile n x n, and
    the payload holds a matrix for every admissible block, inadmissible
    block, leaf pair and transfer, each of the shape that the ranks and
    cluster sizes give.  A matrix with no such place raises KeyError."""
    depth = tree.depth
    if len(dirs.levels) != depth + 1 or len(dirs.son_maps) != depth:
        raise ValueError(
            f"the tree has depth {depth} but {len(dirs.levels)} direction levels and {len(dirs.son_maps)} son maps"
        )
    for level, son_map in enumerate(dirs.son_maps):
        if son_map.shape != (dirs.count(level),) or ((son_map < 0) | (son_map >= dirs.count(level + 1))).any():
            raise ValueError(f"the son map of direction level {level} does not map into level {level + 1}")
    size, level = np.diff(tree.set_ptr).tolist(), tree.level.tolist()
    leaves = np.repeat(tree.son_ptr[:-1] == tree.son_ptr[1:], size)  # the entries of the leaves' index sets
    if not np.array_equal(np.sort(tree.sets[leaves]), np.arange(size[tree.root])):
        raise ValueError("the leaf clusters' index sets do not partition 0..n-1")
    _check_tiling(tree, bt)
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
    """Read a DH2v3 container (see ``save_dh2``).  The matrices are the slots
    of the stacks as read, which the returned matrix uses in place; its phase
    plans are rebuilt.  A container whose manifest fields, cluster ids,
    parents and levels, depth, payload length, stack table, shapes, block
    payloads, leaf index sets or block tiling do not fit is rejected with a
    one-line ValueError."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("not a DH2v3 container: manifest.json holds no JSON object")
    if manifest.get("version") != "DH2v3":
        raise ValueError(f"not a DH2v3 container: its version is {manifest.get('version')!r}")
    try:
        tree = _cluster_tree(manifest["tree"])
        dm = manifest["directions"]
        dirs = DirectionHierarchy(
            levels=[np.array(lv, dtype=float).reshape(-1, 3) for lv in dm["levels"]],
            son_maps=[np.array(sm, dtype=np.int64) for sm in dm["son_maps"]],
        )
        bt = _block_tree(tree, manifest["blocks"])
        ranks = {side: {(cid, c): k for cid, c, k in manifest["rank"][side]} for side in ("row", "col")}
        payload = _read_payload(directory / "payload.bin", manifest["stacks"])
        _check(tree, dirs, bt, ranks, payload)
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"the container is malformed or names a cluster, block or rank it lacks: {exc}") from None
    bases = [DirectionalClusterBasis(payload[f"{s}_leaf"], payload[f"{s}_transfer"], ranks[s]) for s in ("row", "col")]
    return DH2Matrix(tree, dirs, bt, *bases, payload["coupling"], payload["nearfield"])
