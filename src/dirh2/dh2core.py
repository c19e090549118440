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
Each phase runs one batched product per stack, and every stored matrix is
applied exactly once.  The adjoint runs the same phases with the roles of
the two bases swapped and reads every block in place as (x^H M)^H.

The container is a frozen dataclass: construction stacks the payload, and
its attributes cannot be reassigned afterwards.  A container with another
payload is made with ``dataclasses.replace``, which stacks it anew; the
dicts hold views of the stacks and must not be rebound key by key.  Matvecs
keep all scratch per call, so concurrent reads are safe.  Sums run in a
fixed order: phase by phase, stacks in ascending (level and) shape order,
and slots within a stack in ascending key order, which fixes the
floating-point result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blocktree import ADMISSIBLE, INADMISSIBLE, Block, BlockTree
from .clustering import Cluster, ClusterTree
from .directions import DirectionHierarchy
from .linalg import read_cmx, write_cmx

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


# -- stacked storage and the grouped apply -----------------------------------

# A stack of G matrices and where they act: stack[g] maps the entries
# cols[g] of an input vector to the entries rows[g] of an output vector.
Group = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    """The stack whose slots, in order, are exactly ``arrays``, or None."""
    stack = arrays[0].base
    if stack is None or stack.dtype != np.complex128 or stack.shape != (len(arrays), *arrays[0].shape):
        return None
    start, step = stack.__array_interface__["data"][0], stack.strides[0]
    for g, v in enumerate(arrays):
        if (
            v.base is not stack
            or v.strides != stack.strides[1:]
            or v.__array_interface__["data"][0] != start + g * step
        ):
            return None
    return stack


def _index(where: list, width: int) -> np.ndarray:
    """(G, width) entries from G index arrays or G run offsets."""
    if isinstance(where[0], int):
        return np.array(where, dtype=np.int64)[:, None] + np.arange(width)
    return np.array(where, dtype=np.int64)


def stack_groups(d: dict, rows, cols) -> list[Group]:
    """One Group per stack of ``d``'s matrices: d[key] maps the input
    entries cols(key) to the output entries rows(key), each given as an index
    array or as the int offset of a run as long as the matrix side.

    Matrices that are already the slots of one stack per group (as
    ``stack_slots`` lays them out) are used in place; any other group is
    copied into a new stack and ``d`` is rebound to its slots, so the payload
    is held once.  Nothing is checked against ranks or cluster sizes."""
    groups = []
    for keys in _group_keys({k: v.shape for k, v in d.items()}).values():
        stack = _stack_of([d[k] for k in keys])
        if stack is None:
            stack = np.array([d[k] for k in keys], dtype=np.complex128)
            d.update(zip(keys, stack))
        r, c = stack.shape[1:]
        groups.append((stack, _index([rows(k) for k in keys], r), _index([cols(k) for k in keys], c)))
    return groups


def apply_groups(out, inp, groups: list[Group], hermitian: bool = False, counter=None, name=None) -> None:
    """out[rows] += M @ inp[cols] for every stacked matrix M of ``groups``,
    or out[cols] += M^H @ inp[rows] when ``hermitian``: one batched product
    per group, summed into ``out`` in slot order.  M^H v is formed as
    (v^H M)^H, which reads M in place."""
    for stack, rows, cols in groups:
        if hermitian:
            prod = np.matmul(inp[rows].conj()[:, None, :], stack)[:, 0, :].conj()
            np.add.at(out, cols, prod)
        else:
            prod = np.matmul(stack, inp[cols][:, :, None])[:, :, 0]
            np.add.at(out, rows, prod)
        if counter is not None:
            counter[name] += len(stack)


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
    leaf: list[Group]  # rows: index-set entries, cols: coefficients
    transfer: list[list[Group]]  # per son level; rows: son, cols: parent coefficients


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
        tree, blocks = self.tree, self.blocks
        row, col = self._basis_plan(self.row_basis), self._basis_plan(self.col_basis)
        coupling = stack_groups(
            self.coupling,
            lambda bid: row.offsets[(blocks[bid].t, blocks[bid].c_index)],
            lambda bid: col.offsets[(blocks[bid].s, blocks[bid].c_index)],
        )
        nearfield = stack_groups(
            self.nearfield,
            lambda bid: tree[blocks[bid].t].index_set,
            lambda bid: tree[blocks[bid].s].index_set,
        )
        # the dataclass is frozen, so its private plans are set past it
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_col", col)
        object.__setattr__(self, "_coupling", coupling)
        object.__setattr__(self, "_nearfield", nearfield)

    def _basis_plan(self, basis: DirectionalClusterBasis) -> _BasisPlan:
        tree, dirs = self.tree, self.directions
        offsets, size = run_offsets(basis.rank)
        leaf = stack_groups(basis.leaf, lambda key: tree[key[0]].index_set, lambda key: offsets[key])

        def son_coefficients(key):
            son, c = key
            return offsets[(son, dirs.son_index(tree[tree[son].parent].level, c))]

        by_level: list[dict] = [{} for _ in range(tree.depth + 1)]
        for key in basis.transfer:
            by_level[tree[key[0]].level][key] = basis.transfer[key]
        transfer = []
        for part in by_level:
            transfer.append(
                stack_groups(part, son_coefficients, lambda key: offsets[(tree[key[0]].parent, key[1])])
            )
            basis.transfer.update(part)  # the slots of any part stacked anew
        return _BasisPlan(size, offsets, leaf, transfer)

    @property
    def n(self) -> int:
        return self.tree[self.tree.root].size

    def _apply(self, x: np.ndarray, hermitian: bool, counter) -> np.ndarray:
        """A x, or A^H x when ``hermitian``: the forward pass runs through the
        basis on the input side, the backward pass through the other one."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        src, dst = (self._row, self._col) if hermitian else (self._col, self._row)
        xhat = np.zeros(src.size, dtype=np.complex128)
        apply_groups(xhat, x, src.leaf, True, counter, "leaf")
        for groups in reversed(src.transfer):
            apply_groups(xhat, xhat, groups, True, counter, "transfer")
        yhat = np.zeros(dst.size, dtype=np.complex128)
        apply_groups(yhat, xhat, self._coupling, hermitian, counter, "coupling")
        for groups in dst.transfer:
            apply_groups(yhat, yhat, groups, False, counter, "transfer")
        y = np.zeros(self.n, dtype=np.complex128)
        apply_groups(y, yhat, dst.leaf, False, counter, "leaf")
        apply_groups(y, x, self._nearfield, hermitian, counter, "nearfield")
        return y

    def matvec(self, x: np.ndarray, counter=None) -> np.ndarray:
        return self._apply(x, False, counter)

    def matvec_adjoint(self, x: np.ndarray, counter=None) -> np.ndarray:
        return self._apply(x, True, counter)

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
    cluster = tree[cid]
    if cluster.is_leaf:
        out = basis.leaf[(cid, c)]
    else:
        out = np.zeros((cluster.size, basis.rank[(cid, c)]), dtype=np.complex128)
        c2 = dirs.son_index(cluster.level, c)
        for son in cluster.sons:
            sub = expand_factor(basis, tree, dirs, son, c2, memo)
            pos = np.searchsorted(cluster.index_set, tree[son].index_set)
            out[pos] = sub @ basis.transfer[(son, c)]
    if memo is not None:
        memo[(cid, c)] = out
    return out


def expand_dense(a: DH2Matrix, cap: int = 4096) -> np.ndarray:
    """Assemble the represented matrix block by block (test oracle)."""
    n = a.n
    if n > cap:
        raise ValueError(f"dense expansion capped at {cap} rows, matrix has {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    row_memo: dict = {}
    col_memo: dict = {}
    for bid in a.blocks.admissible_leaves:
        b = a.blocks[bid]
        v = expand_factor(a.row_basis, a.tree, a.directions, b.t, b.c_index, row_memo)
        w = expand_factor(a.col_basis, a.tree, a.directions, b.s, b.c_index, col_memo)
        rows = a.tree[b.t].index_set
        cols = a.tree[b.s].index_set
        out[np.ix_(rows, cols)] = v @ a.coupling[bid] @ w.conj().T
    for bid in a.blocks.inadmissible_leaves:
        b = a.blocks[bid]
        rows = a.tree[b.t].index_set
        cols = a.tree[b.s].index_set
        out[np.ix_(rows, cols)] = a.nearfield[bid]
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


# -- DH2v1 container --------------------------------------------------------


def _basis_manifest(basis: DirectionalClusterBasis, prefix: str, outdir: Path) -> dict:
    leaf_entries = []
    for (cid, c) in sorted(basis.leaf):
        name = f"{prefix}_leaf_{cid}_{c}.cmx"
        write_cmx(outdir / name, basis.leaf[(cid, c)])
        leaf_entries.append([cid, c, name])
    transfer_entries = []
    for (cid, c) in sorted(basis.transfer):
        name = f"{prefix}_tr_{cid}_{c}.cmx"
        write_cmx(outdir / name, basis.transfer[(cid, c)])
        transfer_entries.append([cid, c, name])
    ranks = [[cid, c, int(basis.rank[(cid, c)])] for (cid, c) in sorted(basis.rank)]
    return {"leaf": leaf_entries, "transfer": transfer_entries, "rank": ranks}


def save_dh2(a: DH2Matrix, directory: str | Path) -> None:
    """Write the DH2v1 container: a JSON manifest plus one CMX1 file per
    stored matrix.

    An existing manifest is deleted before any payload file is written, CMX
    files the new manifest does not name are removed, and the manifest is
    written last through a temporary file, so an interrupted save leaves
    nothing that loads and a finished one leaves no stale payload."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)
    manifest = {
        "version": "DH2v1",
        "n": a.n,
        "tree": {
            "root": a.tree.root,
            "depth": a.tree.depth,
            "level_extents": a.tree.level_extents.tolist(),
            "clusters": [
                {
                    "id": c.id,
                    "level": c.level,
                    "parent": c.parent,
                    "index_set": c.index_set.tolist(),
                    "cell_min": c.cell_min.tolist(),
                    "cell_max": c.cell_max.tolist(),
                    "support_min": c.support_min.tolist(),
                    "support_max": c.support_max.tolist(),
                    "sons": list(c.sons),
                }
                for c in a.tree.clusters
            ],
        },
        "directions": {
            "levels": [lv.tolist() for lv in a.directions.levels],
            "son_maps": [sm.tolist() for sm in a.directions.son_maps],
        },
        "blocks": {
            "root": a.blocks.root,
            "kappa": a.blocks.kappa,
            "eta1": a.blocks.eta1,
            "eta2": a.blocks.eta2,
            "parabolic": a.blocks.parabolic,
            "nodes": [
                {
                    "id": b.id,
                    "t": b.t,
                    "s": b.s,
                    "status": b.status,
                    "c_index": b.c_index,
                    "sons": list(b.sons),
                }
                for b in a.blocks.blocks
            ],
        },
        "row_basis": _basis_manifest(a.row_basis, "row", outdir),
        "col_basis": _basis_manifest(a.col_basis, "col", outdir),
        "coupling": [],
        "nearfield": [],
    }
    for bid in sorted(a.coupling):
        name = f"s_{bid}.cmx"
        write_cmx(outdir / name, a.coupling[bid])
        manifest["coupling"].append([bid, name])
    for bid in sorted(a.nearfield):
        name = f"nf_{bid}.cmx"
        write_cmx(outdir / name, a.nearfield[bid])
        manifest["nearfield"].append([bid, name])
    named = {entry[-1] for entry in manifest["coupling"] + manifest["nearfield"]}
    for side in ("row_basis", "col_basis"):
        named.update(entry[-1] for part in ("leaf", "transfer") for entry in manifest[side][part])
    for path in outdir.glob("*.cmx"):
        if path.name not in named:
            path.unlink()
    tmp = outdir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, outdir / "manifest.json")


def _load_basis(entry: dict, directory: Path) -> DirectionalClusterBasis:
    basis = DirectionalClusterBasis()
    for cid, c, name in entry["leaf"]:
        basis.leaf[(cid, c)] = read_cmx(directory / name)
    for cid, c, name in entry["transfer"]:
        basis.transfer[(cid, c)] = read_cmx(directory / name)
    for cid, c, k in entry["rank"]:
        basis.rank[(cid, c)] = k
    return basis


def load_dh2(directory: str | Path) -> DH2Matrix:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("version") != "DH2v1":
        raise ValueError("not a DH2v1 container")
    tm = manifest["tree"]
    for name in ("support_min", "support_max"):
        if any(name not in c for c in tm["clusters"]):
            raise ValueError(f"container lacks the cluster field {name!r}: written before support boxes were stored")
    clusters = [
        Cluster(
            id=c["id"],
            level=c["level"],
            parent=c["parent"],
            index_set=np.array(c["index_set"], dtype=np.int64),
            cell_min=np.array(c["cell_min"]),
            cell_max=np.array(c["cell_max"]),
            support_min=np.array(c["support_min"]),
            support_max=np.array(c["support_max"]),
            sons=list(c["sons"]),
        )
        for c in tm["clusters"]
    ]
    tree = ClusterTree(
        clusters=clusters,
        root=tm["root"],
        depth=tm["depth"],
        level_extents=np.array(tm["level_extents"]),
    )
    dm = manifest["directions"]
    dirs = DirectionHierarchy(
        levels=[np.array(lv, dtype=float).reshape(-1, 3) for lv in dm["levels"]],
        son_maps=[np.array(sm, dtype=np.int64) for sm in dm["son_maps"]],
    )
    bm = manifest["blocks"]
    blocks = [
        Block(
            id=b["id"],
            t=b["t"],
            s=b["s"],
            status=b["status"],
            c_index=b["c_index"],
            sons=list(b["sons"]),
        )
        for b in bm["nodes"]
    ]
    bt = BlockTree(
        blocks=blocks,
        root=bm["root"],
        admissible_leaves=[b.id for b in blocks if b.status == ADMISSIBLE],
        inadmissible_leaves=[b.id for b in blocks if b.status == INADMISSIBLE],
        kappa=bm["kappa"],
        eta1=bm["eta1"],
        eta2=bm["eta2"],
        parabolic=bm["parabolic"],
    )
    return DH2Matrix(
        tree=tree,
        directions=dirs,
        blocks=bt,
        row_basis=_load_basis(manifest["row_basis"], directory),
        col_basis=_load_basis(manifest["col_basis"], directory),
        coupling={bid: read_cmx(directory / name) for bid, name in manifest["coupling"]},
        nearfield={bid: read_cmx(directory / name) for bid, name in manifest["nearfield"]},
    )
