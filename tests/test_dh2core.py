import dataclasses
import gc
import json
import os
import shutil
import sys
import threading
import traceback

import numpy as np
import pytest

from conftest import (
    assert_applies_as_reference,
    check_plan,
    dense_accessor,
    equal_bits,
    exit_code_in_child,
    reference_cluster_tree,
)

from dirh2.assembly import assemble_dh2_by_interpolation
from dirh2.blocktree import (
    INADMISSIBLE,
    STATUSES,
    SUBDIVIDED,
    BlockTree,
    blocks_to_csv,
    build_block_tree,
    sparsity_stats,
)
from dirh2.clustering import ClusterTree, build_cluster_tree, level_diameter, tree_to_jsonl
from dirh2 import dh2core, linalg
from dirh2.compression import AcaMatrix, CompressionConfig, aca_compress, compress, farfield_sets, used_directions
from dirh2.dh2core import expand_dense, load_dh2, save_dh2, storage_report
from dirh2.directions import build_directions
from dirh2.geometry import KernelSpec, assemble_dense_matrix, build_sphere_mesh


@pytest.fixture(scope="module")
def assembled():
    """Interpolation-built representation with real admissible blocks."""
    mesh = build_sphere_mesh(3)
    spec = KernelSpec("slp", 4.0)
    tree = build_cluster_tree(mesh.midpoints, 16)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, spec.kappa, 20.0)
    bt = build_block_tree(tree, dirs, spec.kappa, 20.0, 5.0)
    a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 3)
    assert bt.admissible_leaves.size, "setup must produce admissible blocks"
    return a


@pytest.fixture(scope="module")
def assembled_dense(assembled):
    return expand_dense(assembled)


@pytest.fixture(scope="module")
def compressed_line():
    """Compressed kernel matrix on a segment: binary tree, several block
    levels, so the transfer-matrix paths of the matvec are exercised."""
    from dirh2.compression import CompressionConfig, compress

    n, kappa = 256, 6.0
    pts = np.zeros((n, 3))
    pts[:, 0] = np.linspace(0.0, 1.0, n)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, 1.0)
    dense = np.exp(1j * kappa * d) / (4 * np.pi * d)
    np.fill_diagonal(dense, 1.0 / n)
    tree = build_cluster_tree(pts, 16)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, 20.0)
    bt = build_block_tree(tree, dirs, kappa, 20.0, 5.0)
    a = compress(
        lambda r, c: dense[np.ix_(r, c)],
        tree,
        dirs,
        bt,
        CompressionConfig(eps=1e-8),
    )
    assert a.row_basis.transfer, "fixture must exercise transfer matrices"
    return a, dense


def applied_per_category(a, apply, monkeypatch):
    """Run ``apply`` on a zero vector with ``dh2core.apply_groups`` wrapped,
    and count the matrices of the phases it applies per payload category: a
    stack belongs to the category whose dict holds its slots."""
    category = {}
    for name, d in [
        ("leaf", a.row_basis.leaf), ("leaf", a.col_basis.leaf),
        ("transfer", a.row_basis.transfer), ("transfer", a.col_basis.transfer),
        ("coupling", a.coupling), ("nearfield", a.nearfield),
    ]:
        category.update((id(m.base), name) for m in d.values())
    applied = dict.fromkeys(["leaf", "transfer", "coupling", "nearfield"], 0)
    inner = dh2core.apply_groups

    def counting(out, inp, phase, hermitian=False):
        for stack in phase.stacks:
            applied[category[id(stack)]] += len(stack)
        inner(out, inp, phase, hermitian)

    with monkeypatch.context() as m:
        m.setattr(dh2core, "apply_groups", counting)
        apply(np.zeros(a.n, dtype=complex))
    return applied


def basis_dicts(basis):
    return [basis.leaf, basis.transfer, basis.rank]


def entries(d: dict, copy: bool = False) -> list:
    """(key, value) for every value of ``d``, a tuple's items one by one,
    each as an array (a copy, when ``copy``)."""
    as_array = np.array if copy else np.asarray
    return [(k, as_array(m)) for k, v in d.items() for m in (v if isinstance(v, tuple) else (v,))]


def rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def phases(a):
    """Every phase plan of ``a``, each with the lengths of its row and its
    column vector, and whether they are one vector (the transfer phases)."""
    for plan in (a._row, a._col):
        yield plan.leaf, (a.n, plan.size), False
        yield from ((phase, (plan.size, plan.size), True) for phase in plan.transfer)
    yield a._coupling, (a._row.size, a._col.size), False
    yield a._nearfield, (a.n, a.n), False


@pytest.fixture(scope="module")
def loaded_line(compressed_line, tmp_path_factory):
    where = tmp_path_factory.mktemp("loaded") / "a"
    save_dh2(compressed_line[0], where)
    return load_dh2(where)


@pytest.fixture(params=["compressed_line", "assembled", "loaded_line"])
def matrix(request):
    a = request.getfixturevalue(request.param)
    return a[0] if isinstance(a, tuple) else a


class TestPhasePlans:
    """The phase plans against the grouped apply they replaced, which summed
    every stack's products with ``np.add.at`` in slot order."""

    def test_applies_bitwise_as_reference(self, matrix, monkeypatch):
        assert_applies_as_reference(matrix, dh2core, monkeypatch)

    def test_plan_sides_index_every_product_in_range(self, matrix):
        for phase, sizes, _ in phases(matrix):
            check_plan(phase, *sizes)

    def test_transfer_phases_never_gather_what_they_scatter(self, matrix):
        # compressed_line has transfer matrices (its fixture asserts it)
        for phase, _, same_vector in phases(matrix):
            if same_vector:
                assert not np.intersect1d(phase.rows, phase.cols).size

    @pytest.mark.parametrize("hermitian", [False, True], ids=["A", "AH"])
    def test_each_entry_sums_in_stack_slot_entry_order(self, hermitian):
        # Entry 0 of the output gets three products, from the two slots of
        # the first stack and the one slot of the second, on both sides.
        # The values cancel, so the sums in reverse order, or a stack's
        # products summed apart first, give other bits; the products
        # themselves are exact.
        a, b, c = 1e16 * (1 + 1j), -1e16 * (1 + 1j), 1 + 1j
        first = np.array([[[a], [0]], [[0], [b]]])  # (2, 2, 1)
        second = np.array([[[c, 0]]])  # (1, 1, 2)
        phase = dh2core.Phase(
            [first, second],
            rows=np.array([0, 1, 2, 0, 0], dtype=np.intp),
            cols=np.array([0, 0, 0, 1], dtype=np.intp),
        )
        x = np.array([1j, 1.0, -1.0])
        out = np.array([1 + 1j, 2 - 1j, -3 + 2j])
        p1, p2, p3 = (m.conjugate() * x[0] if hermitian else m * x[0] for m in (a, b, c))
        want = out.copy()
        want[0] = ((out[0] + p1) + p2) + p3
        assert want[0] != ((out[0] + p3) + p2) + p1
        dh2core.apply_groups(out, x, phase, hermitian)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def random_phase(rng, shapes, rows, cols):
    """A hand-built phase with one random stack per (G, r, c) of ``shapes``;
    its sides are drawn with repeats from vectors of ``rows`` and ``cols``
    entries, so outputs sum several products."""
    stacks = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes]
    sides = [(rows, sum(g * r for g, r, _ in shapes)), (cols, sum(g * c for g, _, c in shapes))]
    return dh2core.Phase(stacks, *(rng.integers(0, n, size, dtype=np.intp) for n, size in sides))


PHASE_SHAPES = {
    "no-stack": [],
    "one-slot": [(1, 3, 4)],
    "one-stack": [(5, 3, 4)],
    "two-stacks": [(3, 2, 5), (4, 6, 1)],
    "empty-sides": [(2, 0, 3), (3, 4, 0), (2, 2, 2)],
    "many-stacks": [(int(g), int(r), int(c)) for g, r, c in np.random.default_rng(4).integers(1, 9, (14, 3))],
}


@pytest.fixture
def cpus(cpus, monkeypatch):
    """conftest's ``cpus``, with phases of any size run in two parts."""
    monkeypatch.setattr(dh2core, "TWO_PART_MIN_ENTRIES", 0)
    return cpus


class TestTwoParts:
    """``apply_groups`` in two parts, one on the worker thread, against the
    same call in one part."""

    @pytest.mark.parametrize("shapes", PHASE_SHAPES.values(), ids=PHASE_SHAPES.keys())
    @pytest.mark.parametrize("hermitian", [False, True], ids=["A", "AH"])
    @pytest.mark.parametrize("same_vector", [False, True], ids=["two-vectors", "out-is-inp"])
    def test_same_bits_as_one_part(self, shapes, hermitian, same_vector, cpus):
        rng = np.random.default_rng(len(shapes))
        rows, cols = (40, 40) if same_vector else (40, 30)
        phase = random_phase(rng, shapes, rows, cols)
        sizes = (cols, rows) if hermitian else (rows, cols)  # out, inp
        results = []
        for count in (1, 2):
            started = cpus(count)
            out = rand_vec(np.random.default_rng(1), sizes[0])
            inp = out if same_vector else rand_vec(np.random.default_rng(2), sizes[1])
            dh2core.apply_groups(out, inp, phase, hermitian)
            results.append(out)
        assert equal_bits(*results)
        assert len(started) == (sum(len(stack) for stack in phase.stacks) >= 2)

    @pytest.mark.parametrize("shapes", PHASE_SHAPES.values(), ids=PHASE_SHAPES.keys())
    def test_halves_cut_the_slots_in_order_at_the_midpoint(self, shapes):
        stacks = random_phase(np.random.default_rng(0), shapes, 1, 1).stacks
        first, second = dh2core._halves(stacks)
        slots = lambda part: [m for stack in part for m in stack]
        assert all(len(stack) for stack in first + second)
        assert [m.__array_interface__["data"] for m in slots(first) + slots(second)] == [
            m.__array_interface__["data"] for m in slots(stacks)
        ]
        assert bool(second) == (len(slots(stacks)) >= 2)
        if second:
            # the cut is the slot boundary nearest the midpoint
            gap = sum(stack.size for stack in first) - sum(stack.size for stack in second)
            assert abs(gap) <= max(first[-1][0].size, second[0][0].size) + 1

    def test_matrices_apply_as_in_one_part(self, matrix, cpus):
        x = rand_vec(np.random.default_rng(3), matrix.n)
        cpus(1)
        want = matrix.matvec(x), matrix.matvec_adjoint(x)
        started = cpus(2)
        assert equal_bits(matrix.matvec(x), want[0]) and equal_bits(matrix.matvec_adjoint(x), want[1])
        assert started

    def test_small_phases_run_in_one_part(self, cpus, monkeypatch):
        started = cpus(2)
        phase = random_phase(np.random.default_rng(8), [(3, 2, 5), (4, 6, 1)], 20, 20)
        entries = sum(stack.size for stack in phase.stacks)
        for least, parts in ((entries + 1, 1), (entries, 2)):
            monkeypatch.setattr(dh2core, "TWO_PART_MIN_ENTRIES", least)
            dh2core.apply_groups(np.zeros(20, dtype=complex), np.ones(20, dtype=complex), phase)
            assert len(started) == parts - 1

    def test_one_cpu_runs_one_part(self, matrix, cpus):
        started = cpus(1)
        x = rand_vec(np.random.default_rng(3), matrix.n)
        matrix.matvec(x)
        matrix.matvec_adjoint(x)
        assert not started

    def test_one_cpu_cuts_no_stack(self, matrix, cpus, monkeypatch):
        # on one CPU the two parts would run one after the other, so every
        # phase runs in one part, its stacks whole
        cut = []
        halves = dh2core._halves
        monkeypatch.setattr(dh2core, "_halves", lambda stacks: cut.append(stacks) or halves(stacks))
        x = rand_vec(np.random.default_rng(3), matrix.n)
        for count in (1, 2):
            cpus(count)
            cut.clear()
            matrix.matvec(x)
            matrix.matvec_adjoint(x)
            assert bool(cut) == (count == 2)

    @pytest.mark.parametrize("part", ["caller", "worker"])
    def test_error_in_a_part_reaches_the_caller(self, part, cpus):
        # two equal stacks: the caller runs the first, the worker the second;
        # an input index out of range fails the gather of one of them
        started = cpus(2)
        phase = random_phase(np.random.default_rng(5), [(4, 3, 3), (4, 3, 3)], 12, 12)
        cols = phase.cols.copy()
        cols[0 if part == "caller" else -1] = 12
        out = rand_vec(np.random.default_rng(6), 12)
        before = out.copy()
        with pytest.raises(IndexError) as info:
            dh2core.apply_groups(out, out, dh2core.Phase(phase.stacks, phase.rows, cols))
        assert ("_outcome" in [frame.name for frame in traceback.extract_tb(info.tb)]) == (part == "worker")
        assert equal_bits(out, before)  # nothing is added when a part fails
        assert len(started) == 1
        want = out.copy()
        cpus(1)
        dh2core.apply_groups(want, want, phase)
        cpus(2)
        dh2core.apply_groups(out, out, phase)
        assert equal_bits(out, want)

    def test_concurrent_applies_give_the_same_bits(self, compressed_line, cpus):
        # more threads than cores share the one worker; each must get its
        # own parts back, so a mixed-up result changes the bits
        a = compressed_line[0]
        cpus(2)
        xs = [rand_vec(np.random.default_rng(seed), a.n) for seed in range(4)]
        want = [(a.matvec(x), a.matvec_adjoint(x)) for x in xs]
        got = [None] * len(xs)

        def apply(k):
            got[k] = [(a.matvec(xs[k]), a.matvec_adjoint(xs[k])) for _ in range(5)]

        threads = [threading.Thread(target=apply, args=(k,)) for k in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results, (y, z) in zip(got, want):
            assert all(equal_bits(y1, y) and equal_bits(z1, z) for y1, z1 in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_applies_with_the_same_bits(self, compressed_line, cpus):
        # the child has no copy of the parent's worker thread and must start
        # its own, not wait for the parent's forever
        a = compressed_line[0]
        cpus(2)
        x = rand_vec(np.random.default_rng(7), a.n)
        want = a.matvec(x), a.matvec_adjoint(x)
        assert linalg._worker is not None and linalg._worker.pid == os.getpid()
        assert exit_code_in_child(lambda: equal_bits(a.matvec(x), want[0]) and equal_bits(a.matvec_adjoint(x), want[1])) == 0


class TestMatvec:
    def test_zero_vector(self, assembled):
        y = assembled.matvec(np.zeros(assembled.n, dtype=complex))
        assert not y.any()

    def test_matches_dense_expansion_on_unit_vectors(self, assembled, assembled_dense):
        rng = np.random.default_rng(0)
        scale = np.linalg.norm(assembled_dense, 2)
        for j in rng.choice(assembled.n, size=20, replace=False):
            e = np.zeros(assembled.n, dtype=complex)
            e[j] = 1.0
            err = np.linalg.norm(assembled.matvec(e) - assembled_dense[:, j])
            assert err <= 1e-12 * scale

    def test_matches_dense_expansion_random(self, assembled, assembled_dense):
        rng = np.random.default_rng(1)
        x = rand_vec(rng, assembled.n)
        y = assembled.matvec(x)
        ref = assembled_dense @ x
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_linearity(self, assembled):
        rng = np.random.default_rng(2)
        x, z = rand_vec(rng, assembled.n), rand_vec(rng, assembled.n)
        alpha, beta = 0.7 - 0.2j, -1.3 + 0.4j
        lhs = assembled.matvec(alpha * x + beta * z)
        rhs = alpha * assembled.matvec(x) + beta * assembled.matvec(z)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_adjoint_identity(self, assembled):
        rng = np.random.default_rng(3)
        x, z = rand_vec(rng, assembled.n), rand_vec(rng, assembled.n)
        lhs = np.vdot(z, assembled.matvec(x))
        rhs = np.vdot(assembled.matvec_adjoint(z), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_adjoint_matches_dense(self, assembled, assembled_dense):
        rng = np.random.default_rng(4)
        x = rand_vec(rng, assembled.n)
        ref = assembled_dense.conj().T @ x
        err = np.linalg.norm(assembled.matvec_adjoint(x) - ref)
        assert err <= 1e-12 * np.linalg.norm(ref)

    def test_dimension_mismatch(self, assembled):
        with pytest.raises(ValueError):
            assembled.matvec(np.zeros(assembled.n + 1, dtype=complex))

    def test_each_stored_matrix_used_once(self, assembled, monkeypatch):
        a = assembled
        stored = {
            "leaf": len(a.row_basis.leaf) + len(a.col_basis.leaf),
            "transfer": len(a.row_basis.transfer) + len(a.col_basis.transfer),
            "coupling": len(a.coupling),
            "nearfield": len(a.nearfield),
        }
        for apply in (a.matvec, a.matvec_adjoint):
            applied = applied_per_category(a, apply, monkeypatch)
            assert sum(applied.values()) == a.stored_matrix_count()
            assert applied == stored


class TestTransferPaths:
    def test_matvec_through_transfers(self, compressed_line):
        a, dense = compressed_line
        expanded = expand_dense(a)
        rng = np.random.default_rng(6)
        x = rand_vec(rng, a.n)
        ref = expanded @ x
        assert np.linalg.norm(a.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        refh = expanded.conj().T @ x
        assert np.linalg.norm(a.matvec_adjoint(x) - refh) <= 1e-12 * np.linalg.norm(refh)

    def test_compression_quality_on_line(self, compressed_line):
        a, dense = compressed_line
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 1e-7 * np.linalg.norm(dense, 2)

    def test_counter_covers_transfers(self, compressed_line, monkeypatch):
        a, _ = compressed_line
        applied = applied_per_category(a, a.matvec, monkeypatch)
        assert applied["transfer"] > 0
        assert sum(applied.values()) == a.stored_matrix_count()


class TestStackedStorage:
    @staticmethod
    def assert_held_once(arrays: dict):
        # every matrix is a slot of a 3-d stack, and the stacks hold nothing else
        stacks = {id(v.base): v.base for v in arrays.values()}
        assert all(v.base is not None and v.base.ndim == 3 for v in arrays.values())
        assert all(np.shares_memory(v, v.base) for v in arrays.values())
        assert sum(st.size for st in stacks.values()) == sum(v.size for v in arrays.values())

    @pytest.mark.parametrize("container", ["dh2", "aca"])
    def test_given_dicts_are_copied(self, compressed_line, container):
        # construction holds dicts of its own: the dicts it is given keep
        # their arrays, and a later edit of them, in place or key by key,
        # leaves the container as it was
        a, dense = compressed_line
        copied = lambda d: {k: v.copy() for k, v in d.items()}
        if container == "dh2":
            row, col = (
                dh2core.DirectionalClusterBasis(copied(b.leaf), copied(b.transfer), dict(b.rank))
                for b in (a.row_basis, a.col_basis)
            )
            coupling, nearfield = copied(a.coupling), copied(a.nearfield)
            made = dataclasses.replace(a, row_basis=row, col_basis=col, coupling=coupling, nearfield=nearfield)
            holds = lambda m: [*basis_dicts(m.row_basis), *basis_dicts(m.col_basis), m.coupling, m.nearfield]
            given = [*basis_dicts(row), *basis_dicts(col), coupling, nearfield]
        else:
            aca = aca_compress(dense_accessor(dense), a.tree, a.blocks, 1e-8)
            given = [dict(aca.factors), copied(aca.nearfield)]
            made = AcaMatrix(aca.tree, aca.blocks, *given)
            holds = lambda m: [m.factors, m.nearfield]
        values, kept = [dict(d) for d in given], [entries(d, copy=True) for d in holds(made)]
        x = rand_vec(np.random.default_rng(6), a.n)
        y, yh = made.matvec(x), made.matvec_adjoint(x)
        for d, v in zip(given, values):
            assert list(d) == list(v) and all(d[k] is v[k] for k in d)
        for d in given:
            for _, m in entries(d):
                m[...] = 0  # in place; a rank is an int, whose array is a copy
            d.clear()
        for d, want in zip(holds(made), kept):
            got = entries(d)
            assert [k for k, _ in got] == [k for k, _ in want]
            assert all(equal_bits(m, w) for (_, m), (_, w) in zip(got, want))
        assert equal_bits(made.matvec(x), y) and equal_bits(made.matvec_adjoint(x), yh)

    @pytest.mark.parametrize("made", ["compress", "replace", "load", "aca"])
    def test_payload_dicts_are_read_only(self, compressed_line, tmp_path, made):
        # a matrix rebound key by key would be read by storage_report and
        # expand_dense, while matvec and save_dh2 read the stacks
        a, dense = compressed_line
        if made == "aca":
            m = aca_compress(dense_accessor(dense), a.tree, a.blocks, 1e-8)
            held = [m.factors, m.nearfield]
        else:
            save_dh2(a, tmp_path / "a")
            m = load_dh2(tmp_path / "a") if made == "load" else dataclasses.replace(a) if made == "replace" else a
            held = [*basis_dicts(m.row_basis), *basis_dicts(m.col_basis), m.coupling, m.nearfield]
        x = rand_vec(np.random.default_rng(7), a.n)
        y, yh = m.matvec(x), m.matvec_adjoint(x)
        for d in held:
            key = min(d)
            value = 2 * d[key] if isinstance(d[key], np.ndarray) else d[key]
            with pytest.raises(TypeError):
                d[key] = value
            with pytest.raises(TypeError):
                del d[key]
        assert equal_bits(m.matvec(x), y) and equal_bits(m.matvec_adjoint(x), yh)

    def test_buffers_join_into_stacks_in_key_order(self):
        # keys put in scrambled order into one buffer, enough per group and
        # shape to grow it past its first chunk
        rng = np.random.default_rng(9)
        want, buffer = {}, dh2core.StackBuffer()
        for key in rng.permutation(90).tolist():
            group, shape = key % 3, [(2, 3), (3, 2)][key % 2]
            want[key] = group, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            buffer.slot(key, shape, group)[...] = want[key][1]
        got = dh2core.join_buffers(buffer)
        assert not buffer.groups
        runs = dh2core._slot_runs(got)
        assert [(want[keys[0]][0], stack.shape[1:]) for keys, stack in runs] == sorted(
            {(group, m.shape) for group, m in want.values()}
        )
        for keys, stack in runs:
            assert keys == sorted(keys) and {want[k][0] for k in keys} == {want[keys[0]][0]}
            assert all(equal_bits(stack[g], want[k][1]) for g, k in enumerate(keys))

    def test_compressed_payload_is_held_once(self, compressed_line):
        a, _ = compressed_line
        for arrays in (
            a.coupling,
            a.nearfield,
            a.row_basis.leaf,
            a.row_basis.transfer,
            a.col_basis.leaf,
            a.col_basis.transfer,
        ):
            self.assert_held_once(arrays)

    def test_assembled_payload_is_stacked_on_construction(self, assembled):
        for arrays in (assembled.coupling, assembled.nearfield, assembled.row_basis.leaf):
            self.assert_held_once(arrays)

    def test_replaced_block_is_applied(self, compressed_line):
        a, _ = compressed_line
        bid = max(a.coupling, key=lambda b: a.coupling[b].size)
        b = dataclasses.replace(a, coupling={**a.coupling, bid: 2 * a.coupling[bid]})
        expanded = expand_dense(b)
        assert not np.array_equal(expanded, expand_dense(a))
        rng = np.random.default_rng(7)
        x = rand_vec(rng, a.n)
        ref = expanded @ x
        assert np.linalg.norm(b.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        refh = expanded.conj().T @ x
        assert np.linalg.norm(b.matvec_adjoint(x) - refh) <= 1e-12 * np.linalg.norm(refh)
        # the original container is left as it was
        ref = expand_dense(a) @ x
        assert np.linalg.norm(a.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_payload_cannot_be_reassigned(self, assembled):
        zero = {k: np.zeros_like(v) for k, v in assembled.coupling.items()}
        with pytest.raises(dataclasses.FrozenInstanceError):
            assembled.coupling = zero
        # a replaced container applies its new payload: the nearfield only
        z = dataclasses.replace(assembled, coupling=zero)
        x = rand_vec(np.random.default_rng(8), assembled.n)
        ref = expand_dense(z) @ x
        assert np.linalg.norm(z.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert not np.allclose(z.matvec(x), assembled.matvec(x))


def test_equality_is_identity(compressed_line):
    # the generated equality compared arrays and raised; two objects of the
    # same values are told apart, and none compares equal to another
    a, dense = compressed_line
    aca = aca_compress(dense_accessor(dense), a.tree, a.blocks, 1e-8)
    points = build_sphere_mesh(2).midpoints
    trees = [build_cluster_tree(points, 16) for _ in range(2)]
    dirs = [build_directions([level_diameter(trees[0], l) for l in range(trees[0].depth + 1)], 4.0, 2.0) for _ in trees]
    blocks = [build_block_tree(trees[0], dirs[0], 4.0, 2.0, 5.0) for _ in trees]
    for x, y in ((a, dataclasses.replace(a)), (aca, dataclasses.replace(aca)), trees, dirs, blocks):
        assert x == x and x != y and not x == y


class TestExpandDense:
    def test_single_inadmissible_root(self):
        mesh = build_sphere_mesh(0)
        tree = build_cluster_tree(mesh.midpoints, 16)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, 20.0)
        bt = build_block_tree(tree, dirs, 0.0, 20.0, 5.0)
        a = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 2
        )
        assert list(a.nearfield) == [0]
        assert np.array_equal(expand_dense(a), a.nearfield[0])

    def test_zeroed_payload_expands_to_zero(self, assembled):
        z = dataclasses.replace(
            assembled,
            coupling={k: np.zeros_like(v) for k, v in assembled.coupling.items()},
            nearfield={k: np.zeros_like(v) for k, v in assembled.nearfield.items()},
        )
        assert not expand_dense(z).any()

    def test_cap(self, assembled, monkeypatch):
        monkeypatch.setattr(dh2core, "DENSE_EXPANSION_CAP", assembled.n - 1)
        with pytest.raises(ValueError, match="capped"):
            expand_dense(assembled)


class TestStorage:
    def test_single_dense_root(self):
        mesh = build_sphere_mesh(0)
        tree = build_cluster_tree(mesh.midpoints, 16)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, 20.0)
        bt = build_block_tree(tree, dirs, 0.0, 20.0, 5.0)
        a = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 2
        )
        rep = storage_report(a)
        assert rep.nearfield_entries == 64
        assert rep.leaf_entries == rep.transfer_entries == rep.coupling_entries == 0

    def test_totals_additive(self, assembled):
        rep = storage_report(assembled)
        assert rep.total == (
            rep.leaf_entries
            + rep.transfer_entries
            + rep.coupling_entries
            + rep.nearfield_entries
        )
        assert rep.mem_per_dof_kib(assembled.n) == pytest.approx(
            rep.total * 16 / 1024 / assembled.n
        )

    def test_counts_match_arrays(self, assembled):
        rep = storage_report(assembled)
        leaf = sum(m.size for m in assembled.row_basis.leaf.values()) + sum(
            m.size for m in assembled.col_basis.leaf.values()
        )
        assert rep.leaf_entries == leaf


class TestContainer:
    def test_roundtrip(self, assembled, tmp_path):
        where = tmp_path / "a"
        save_dh2(assembled, where)
        loaded = load_dh2(where)
        rng = np.random.default_rng(5)
        x = rand_vec(rng, assembled.n)
        assert np.array_equal(loaded.matvec(x), assembled.matvec(x))
        assert loaded.blocks.kappa == assembled.blocks.kappa

    def test_roundtrip_keeps_support_boxes(self, assembled, tmp_path):
        # a loaded tree has no points, so admissibility can only be decided
        # again from the stored boxes
        save_dh2(assembled, tmp_path / "a")
        loaded = load_dh2(tmp_path / "a")
        assert np.array_equal(assembled.tree.bmin, loaded.tree.bmin)
        assert np.array_equal(assembled.tree.bmax, loaded.tree.bmax)
        bt = loaded.blocks
        rebuilt = build_block_tree(
            loaded.tree, loaded.directions, bt.kappa, bt.eta1, bt.eta2, bt.parabolic
        )
        assert [(b.t, b.s, b.status, b.c_index) for b in rebuilt.blocks] == [
            (b.t, b.s, b.status, b.c_index) for b in assembled.blocks.blocks
        ]

    def test_manifest_holds_the_tree_arrays(self, assembled, tmp_path):
        # DH2v6's "tree" and "blocks" sections: the son lists by cluster id,
        # the index sets and boxes by leaf, the clusters built here from the
        # recursive reference, and the blocks' statuses and directions by
        # block id; nothing that the son lists, the leaves or the blocks'
        # depth-first numbering give
        save_dh2(assembled, tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        points = build_sphere_mesh(3).midpoints  # those of the fixture
        clusters = reference_cluster_tree(points, 16)
        leaves = [c for c in clusters if not c[6]]
        assert manifest["tree"] == {
            "sons": [c[6] for c in clusters],
            "index_sets": [c[3].tolist() for c in leaves],
            "support_min": [c[4].tolist() for c in leaves],
            "support_max": [c[5].tolist() for c in leaves],
        }
        bt = assembled.blocks
        assert manifest["blocks"] == {
            "kappa": bt.kappa,
            "eta1": bt.eta1,
            "eta2": bt.eta2,
            "parabolic": bt.parabolic,
            "status": [STATUSES[k] for k in bt.status.tolist()],
            "c_index": bt.c_index.tolist(),
        }
        assert manifest["directions"] == {"levels": [level.tolist() for level in assembled.directions.levels]}

    def test_load_derives_what_the_manifest_leaves_out(self, assembled, tmp_path):
        # the parents, levels, depth and root of the clusters and the inner
        # clusters follow from their son lists and the leaves, the son maps
        # from the direction levels, and the blocks from their statuses
        save_dh2(assembled, tmp_path / "a")
        assert_same_structure(load_dh2(tmp_path / "a"), assembled)

    def test_save_is_deterministic(self, assembled, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        save_dh2(assembled, d1)
        save_dh2(assembled, d2)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_load_leaves_no_reference_cycles(self, assembled, tmp_path):
        # the tiling check numbered the clusters with a recursive closure,
        # which kept its span dict and leaf list until the next collection
        save_dh2(assembled, tmp_path / "a")
        gc.collect()
        gc.disable()
        try:
            load_dh2(tmp_path / "a")
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("manifest", [[], "DH2v3", 3])
    def test_manifest_must_be_an_object(self, assembled, tmp_path, manifest):
        where = tmp_path / "a"
        save_dh2(assembled, where)
        (where / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"^not a DH2v6 container: manifest.json holds no JSON object$"):
            load_dh2(where)

    def test_version_check(self, assembled, tmp_path):
        where = tmp_path / "a"
        save_dh2(assembled, where)
        manifest = where / "manifest.json"
        manifest.write_text(manifest.read_text().replace("DH2v6", "DH2v2", 1))
        with pytest.raises(ValueError, match=r"^not a DH2v6 container: its version is 'DH2v2'$"):
            load_dh2(where)

    def test_dh2v3_manifest_rejected(self, assembled, tmp_path):
        # DH2v3 held the same payload, and one dict per cluster and per block
        # with the ids, parents, levels, depth and roots; no reader of it is kept
        where = tmp_path / "a"
        save_dh2(assembled, where)
        tree, bt = assembled.tree, assembled.blocks

        def as_dh2v3(manifest):
            as_dh2v5(manifest, assembled)
            tm, bm = manifest["tree"], manifest["blocks"]
            keys = ("id", "level", "parent", "sons", "index_set", "support_min", "support_max")
            lists = (tm[k] for k in ("sons", "index_sets", "support_min", "support_max"))
            columns = (range(len(tree)), tree.level.tolist(), tree.parent.tolist(), *lists)
            clusters = [dict(zip(keys, c)) for c in zip(*columns)]
            columns = [bm.pop(k) for k in ("t", "s", "status", "c_index")] + [dh2v4_block_sons(tree, bt)]
            nodes = [dict(zip(("id", "t", "s", "status", "c_index", "sons"), b)) for b in zip(range(len(bt)), *columns)]
            manifest.update(
                version="DH2v3",
                tree={"root": 0, "depth": tree.depth, "clusters": clusters},
                blocks={**bm, "root": 0, "nodes": nodes},
            )

        edit_manifest(where, as_dh2v3)
        assert_rejected(where, r"^not a DH2v6 container: its version is 'DH2v3'$")

    def test_dh2v4_manifest_rejected(self, assembled, tmp_path):
        # DH2v4 held what DH2v5 holds, and in "blocks" the son lists that the
        # depth-first numbering gives; no reader of it is kept
        where = tmp_path / "a"
        save_dh2(assembled, where)
        sons = dh2v4_block_sons(assembled.tree, assembled.blocks)
        assert sons[0] and not all(sons)

        def as_dh2v4(manifest):
            as_dh2v5(manifest, assembled)
            manifest.update(version="DH2v4", blocks={**manifest["blocks"], "sons": sons})

        edit_manifest(where, as_dh2v4)
        assert_rejected(where, r"^not a DH2v6 container: its version is 'DH2v4'$")

    def test_dh2v5_manifest_rejected(self, assembled, tmp_path):
        # DH2v5 held the same payload, and also every cluster's index set and
        # box, the direction son maps and every block's clusters; no reader
        # of it is kept
        where = tmp_path / "a"
        save_dh2(assembled, where)
        edit_manifest(where, lambda m: as_dh2v5(m, assembled))
        manifest = json.loads((where / "manifest.json").read_text())
        assert len(manifest["tree"]["index_sets"]) == len(assembled.tree) and manifest["directions"]["son_maps"]
        assert_rejected(where, r"^not a DH2v6 container: its version is 'DH2v5'$")

    def test_resave_leaves_no_stale_payload(self, assembled, tmp_path):
        where = tmp_path / "a"
        save_dh2(assembled, where)
        mesh = build_sphere_mesh(0)
        tree = build_cluster_tree(mesh.midpoints, 16)
        dirs = build_directions([level_diameter(tree, 0)], 0.0, 20.0)
        bt = build_block_tree(tree, dirs, 0.0, 20.0, 5.0)
        small = assemble_dh2_by_interpolation(mesh, KernelSpec("slp", 0.0), tree, dirs, bt, 2)
        save_dh2(small, where)
        assert sorted(p.name for p in where.iterdir()) == ["manifest.json", "payload.bin"]
        assert np.array_equal(load_dh2(where).nearfield[0], small.nearfield[0])

    def test_interrupted_save_leaves_nothing_that_loads(self, assembled, tmp_path, monkeypatch):
        where = tmp_path / "a"
        save_dh2(assembled, where)

        class DiskFull:
            """A file that takes two writes and fails on the third."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(dh2core, "open", lambda *args: DiskFull(open(*args)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_dh2(assembled, where)
        with pytest.raises(FileNotFoundError):
            load_dh2(where)

    @pytest.mark.parametrize("missing", ["support_min", "support_max"])
    def test_manifest_without_support_boxes_rejected(self, assembled, tmp_path, missing):
        where = tmp_path / "a"
        save_dh2(assembled, where)
        edit_manifest(where, lambda m: m["tree"].pop(missing))
        assert_rejected(where, f"^the 'tree' section lacks the field '{missing}'$")

    def test_loaded_stacks_are_used_in_place(self, compressed_line, tmp_path, monkeypatch):
        a, _ = compressed_line
        save_dh2(a, tmp_path / "a")
        read = []
        read_payload = dh2core._read_payload

        def recording_read(path, table):
            payload = read_payload(path, table)
            read.extend(m.base for d in payload.values() for m in d.values())
            return payload

        monkeypatch.setattr(dh2core, "_read_payload", recording_read)
        loaded = load_dh2(tmp_path / "a")
        views = [*loaded.coupling.values(), *loaded.nearfield.values()]
        for basis in (loaded.row_basis, loaded.col_basis):
            views += [*basis.leaf.values(), *basis.transfer.values()]
        table = json.loads((tmp_path / "a" / "manifest.json").read_text())["stacks"]
        assert len({id(v.base) for v in views}) == len(table)
        # the matrix holds the arrays that were read, not copies of them
        assert {id(v.base) for v in views} == {id(base) for base in read}
        assert all(base.flags.owndata for base in read)


def test_load_does_not_regroup(compressed_line, tmp_path, monkeypatch):
    # the stacks as read, in the order of their table, are the plans' stacks
    a = compressed_line[0]
    save_dh2(a, tmp_path / "a")
    for name in ("_group_keys", "_stacks"):
        monkeypatch.setattr(dh2core, name, lambda *args, name=name: pytest.fail(f"load_dh2 called {name}"))
    loaded = load_dh2(tmp_path / "a")
    x = rand_vec(np.random.default_rng(4), a.n)
    assert equal_bits(loaded.matvec(x), a.matvec(x)) and equal_bits(loaded.matvec_adjoint(x), a.matvec_adjoint(x))


@pytest.mark.parametrize("name", ["compressed_line", "assembled"])
def test_save_does_not_regroup(name, request, tmp_path, monkeypatch):
    # a save writes the container's stack table as it is, and a save of the
    # loaded container is byte-equal to the first
    a = request.getfixturevalue(name)
    a = a[0] if isinstance(a, tuple) else a
    for f in ("_group_keys", "_stacks"):
        monkeypatch.setattr(dh2core, f, lambda *args, f=f: pytest.fail(f"save_dh2 or load_dh2 called {f}"))
    save_dh2(a, tmp_path / "a")
    save_dh2(load_dh2(tmp_path / "a"), tmp_path / "b")
    for f in ("payload.bin", "manifest.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_directional_container_round_trip(tmp_path):
    # an interpolation-built eta1 = 2 container, whose levels hold 600, 150
    # and 24 directions: the loaded tree, directions and blocks have the bits
    # of the saved ones, and a save of the loaded container is byte-equal
    mesh, spec = build_sphere_mesh(3), KernelSpec("slp", 4.0)
    tree = build_cluster_tree(mesh.midpoints, 16)
    dirs = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], spec.kappa, 2.0)
    bt = build_block_tree(tree, dirs, spec.kappa, 2.0, 5.0)
    a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 2)
    assert [len(level) for level in dirs.levels] == [600, 150, 24] and (bt.c_index > 0).any()
    save_dh2(a, tmp_path / "a")
    loaded = load_dh2(tmp_path / "a")
    assert_same_structure(loaded, a)
    save_dh2(loaded, tmp_path / "b")
    for f in ("payload.bin", "manifest.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def assert_rejected(where, match):
    with pytest.raises(ValueError, match=match) as info:
        load_dh2(where)
    assert "\n" not in str(info.value)


def edit_manifest(where, edit):
    manifest = json.loads((where / "manifest.json").read_text())
    edit(manifest)
    (where / "manifest.json").write_text(json.dumps(manifest))


BLOCK_LISTS = ("status", "c_index")  # the lists of a manifest's "blocks" section
LACKS = "^the '{}' section lacks the field '{}'$"
UNKNOWN = "^the '{}' section has the unknown field '{}'$"


def as_dh2v5(manifest, a):
    """Turn the DH2v6 manifest of ``a`` into the DH2v5 one: the index sets and
    boxes of every cluster, the direction son maps and every block's
    clusters."""
    tree, bt = a.tree, a.blocks
    sets = np.split(tree.sets, tree.set_ptr[1:-1])
    manifest["version"] = "DH2v5"
    manifest["tree"].update(
        index_sets=[x.tolist() for x in sets], support_min=tree.bmin.tolist(), support_max=tree.bmax.tolist()
    )
    manifest["directions"]["son_maps"] = [x.tolist() for x in a.directions.son_maps]
    manifest["blocks"].update(t=bt.t.tolist(), s=bt.s.tolist())


def assert_same_structure(read, saved):
    """The tree, direction and block arrays of ``read`` have the dtypes,
    shapes and bytes of those of ``saved``, and its other fields are equal."""
    pairs = [(read.tree, saved.tree), (read.blocks, saved.blocks)]
    for got, want in pairs:
        for f in dataclasses.fields(want):
            x, y = getattr(got, f.name), getattr(want, f.name)
            if isinstance(y, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
            elif f.compare:
                assert x == y, f.name
    for name in ("levels", "son_maps"):
        got, want = getattr(read.directions, name), getattr(saved.directions, name)
        assert [(x.dtype, x.shape, x.tobytes()) for x in got] == [(y.dtype, y.shape, y.tobytes()) for y in want], name


def dh2v4_block_sons(tree, bt):
    """The block son lists that DH2v4 stored: a subdivided block (t, s) has
    (sons of t) x (sons of s) sons, and they follow it in depth-first order,
    each with its subtree."""
    sons, open_blocks = [[] for _ in range(len(bt))], []  # the blocks with sons still to come
    for bid, (t, s, status) in enumerate(zip(bt.t, bt.s, bt.status)):
        if open_blocks:
            parent = open_blocks[-1]
            sons[parent].append(bid)
            if len(sons[parent]) == len(tree.sons_of(bt.t[parent])) * len(tree.sons_of(bt.s[parent])):
                open_blocks.pop()
        if STATUSES[status] == SUBDIVIDED:
            open_blocks.append(bid)
    return sons


def inner_cluster(manifest):
    """The id of the first cluster below the root (cluster 0) that has sons."""
    return next(cid for cid, sons in enumerate(manifest["tree"]["sons"]) if sons and cid)


class TestContainerChecks:
    @pytest.fixture
    def saved(self, compressed_line, tmp_path):
        save_dh2(compressed_line[0], tmp_path / "a")
        return tmp_path / "a"

    @pytest.mark.parametrize("change", [-16, 16])
    def test_payload_length_must_match_table(self, saved, change):
        data = (saved / "payload.bin").read_bytes()
        (saved / "payload.bin").write_bytes(data[:change] if change < 0 else data + bytes(change))
        assert_rejected(saved, "payload.bin holds")

    def test_unknown_category_rejected(self, saved):
        edit_manifest(saved, lambda m: m["stacks"][0].__setitem__(0, "bogus"))
        assert_rejected(saved, "unknown category 'bogus'")

    def test_key_count_must_match_stack(self, saved):
        def drop_key(manifest):
            entry = next(e for e in manifest["stacks"] if len(e[2]) > 1)
            entry[2].pop()

        edit_manifest(saved, drop_key)
        assert_rejected(saved, "keys")

    def test_keys_must_ascend_in_each_stack(self, saved):
        # two keys of one stack swapped: every key, shape and byte still fits
        def swap(manifest):
            keys = next(e for e in manifest["stacks"] if len(e[2]) > 1)[2]
            keys[0], keys[1] = keys[1], keys[0]

        edit_manifest(saved, swap)
        assert_rejected(saved, r"^stack \d+ does not list its keys in ascending order$")

    def test_one_stack_per_shape(self, saved):
        # a stack cut in two of one shape: every key, shape and byte still fits
        def cut(manifest):
            i = next(i for i, e in enumerate(manifest["stacks"]) if len(e[2]) > 1)
            category, (g, r, c), keys = manifest["stacks"][i]
            manifest["stacks"][i : i + 1] = [[category, [1, r, c], keys[:1]], [category, [g - 1, r, c], keys[1:]]]

        edit_manifest(saved, cut)
        assert_rejected(saved, r"^stack \d+ of shape .* not in ascending shape order, one per shape$")

    def test_key_in_two_stacks_rejected(self, saved):
        def repeat(manifest):
            first, second = [e for e in manifest["stacks"] if e[0] == "coupling"][:2]
            second[2][0] = first[2][0]

        edit_manifest(saved, repeat)
        assert_rejected(saved, r"^stack \d+ repeats a coupling key$")

    @pytest.mark.parametrize("category", ["row_leaf", "col_transfer", "coupling", "nearfield"])
    def test_shapes_must_match_ranks_and_cluster_sizes(self, saved, category):
        # the slots of one stack are reshaped: key count and payload length
        # still fit, the shapes no longer do
        def reshape(manifest):
            entry = next(e for e in manifest["stacks"] if e[0] == category and e[1][1] * e[1][2] > 1)
            g, r, c = entry[1]
            entry[1] = [g, 1, r * c] if r != 1 else [g, r * c, 1]

        edit_manifest(saved, reshape)
        assert_rejected(saved, f"{category} .* has shape")

    @pytest.mark.parametrize("category", ["coupling", "nearfield"])
    def test_block_without_payload_rejected(self, compressed_line, tmp_path, category):
        a, _ = compressed_line
        d = getattr(a, category)
        first = min(d)
        save_dh2(dataclasses.replace(a, **{category: {k: v for k, v in d.items() if k != first}}), tmp_path / "a")
        assert_rejected(tmp_path / "a", f"{category} {first} has no payload")

    def test_payload_without_block_rejected(self, compressed_line, tmp_path):
        # a nearfield matrix for an admissible block would be applied as well
        a, _ = compressed_line
        b = a.blocks[a.blocks.admissible_leaves[0]]
        extra = np.zeros((a.tree[b.t].size, a.tree[b.s].size), dtype=complex)
        save_dh2(dataclasses.replace(a, nearfield={**a.nearfield, b.id: extra}), tmp_path / "a")
        assert_rejected(tmp_path / "a", f"lacks: {b.id}")

    def test_leaf_index_sets_must_partition(self, saved):
        def duplicate_index(manifest):
            leaf = manifest["tree"]["index_sets"][0]  # the first leaf's
            leaf[0] = leaf[1]

        edit_manifest(saved, duplicate_index)
        assert_rejected(saved, "do not partition")

    def test_cluster_sons_must_form_a_tree(self, saved):
        # a cluster that is its own only son
        def own_son(manifest):
            inner = inner_cluster(manifest)
            manifest["tree"]["sons"][inner] = [inner]

        edit_manifest(saved, own_son)
        assert_rejected(saved, "do not form a tree")

    def test_cluster_sons_must_be_in_ascending_order(self, saved):
        # the basis passes read a cluster's sons as one ascending run
        def reverse_sons(manifest):
            next(sons for sons in manifest["tree"]["sons"] if len(sons) > 1).reverse()

        edit_manifest(saved, reverse_sons)
        assert_rejected(saved, "^the sons of cluster 0 are not in ascending id order$")

    def test_leaf_blocks_must_not_overlap(self, compressed_line, saved):
        # a second copy of the last block, a leaf, covers its rectangle twice
        def repeat_last(manifest):
            for name in BLOCK_LISTS:
                manifest["blocks"][name].append(manifest["blocks"][name][-1])

        edit_manifest(saved, repeat_last)
        count = len(compressed_line[0].blocks)
        assert_rejected(saved, rf"^block {count} follows the end of the depth-first expansion of the root pair$")

    def test_leaf_blocks_must_leave_no_gap(self, compressed_line, saved):
        def drop_last(manifest):
            for name in BLOCK_LISTS:
                manifest["blocks"][name].pop()

        edit_manifest(saved, drop_last)
        bt = compressed_line[0].blocks
        t, s = bt.t[-1], bt.s[-1]
        assert_rejected(saved, rf"^the blocks end before the pair \({t}, {s}\) of the depth-first expansion$")

    def test_subdivided_block_must_be_followed_by_its_sons(self, compressed_line, saved):
        # an interior block made a leaf: the statuses of its subtree are read
        # as those of the pairs that follow it, and the depth-first expansion
        # of the root pair ends before the blocks do
        bt = compressed_line[0].blocks
        bid = int(np.flatnonzero(bt.status == STATUSES.index(SUBDIVIDED))[1])
        edit_manifest(saved, lambda m: m["blocks"]["status"].__setitem__(bid, INADMISSIBLE))
        assert_rejected(saved, r"^block \d+ follows the end of the depth-first expansion of the root pair$")

    def test_leaf_block_must_not_be_subdivided(self, compressed_line, saved):
        bt = compressed_line[0].blocks
        bid = int(bt.inadmissible_leaves[0])
        edit_manifest(saved, lambda m: m["blocks"]["status"].__setitem__(bid, SUBDIVIDED))
        t, s = bt.t[bid], bt.s[bid]
        assert_rejected(saved, rf"^block {bid} is subdivided, but clusters \({t}, {s}\) have no son pairs$")

    @pytest.mark.parametrize(
        "edit, match",
        [
            pytest.param(lambda m: m.pop("tree"), "malformed.*'tree'", id="no-tree"),
            pytest.param(lambda m: m.pop("blocks"), "malformed.*'blocks'", id="no-blocks"),
            pytest.param(lambda m: m.pop("rank"), "malformed.*'rank'", id="no-rank"),
            pytest.param(lambda m: m["tree"].pop("sons"), LACKS.format("tree", "sons"), id="cluster-no-sons"),
            pytest.param(
                lambda m: m["tree"].update(bogus=1),
                "^the 'tree' section has the unknown field 'bogus'$",
                id="cluster-unknown-field",
            ),
            pytest.param(
                lambda m: m["blocks"].update(sons=[[]] * len(m["blocks"]["status"])),
                UNKNOWN.format("blocks", "sons"),
                id="block-sons",
            ),
            pytest.param(lambda m: m["blocks"].pop("kappa"), LACKS.format("blocks", "kappa"), id="block-no-kappa"),
            pytest.param(
                lambda m: m["blocks"].update(bogus=1),
                "^the 'blocks' section has the unknown field 'bogus'$",
                id="block-unknown-field",
            ),
            pytest.param(
                lambda m: m["blocks"]["status"].__setitem__(0, "split"), "malformed.*'split'", id="block-unknown-status"
            ),
            pytest.param(lambda m: m["directions"]["levels"].pop(), "direction levels", id="directions-short"),
            pytest.param(
                lambda m: m["directions"].pop("levels"), LACKS.format("directions", "levels"), id="directions-no-levels"
            ),
            pytest.param(
                lambda m: m["directions"].update(bogus=1),
                UNKNOWN.format("directions", "bogus"),
                id="directions-unknown-field",
            ),
            pytest.param(lambda m: m["rank"].pop("col"), LACKS.format("rank", "col"), id="rank-no-col"),
            pytest.param(
                lambda m: m["rank"].update(bogus=1), UNKNOWN.format("rank", "bogus"), id="rank-unknown-field"
            ),
            pytest.param(
                lambda m: m.update(bogus=1), "^the manifest has the unknown field 'bogus'$", id="unknown-field"
            ),
            pytest.param(
                lambda m: m["directions"].update(son_maps=[[0]] * (len(m["directions"]["levels"]) - 1)),
                UNKNOWN.format("directions", "son_maps"),
                id="son-maps",
            ),
            pytest.param(lambda m: m["blocks"].update(t=[0]), UNKNOWN.format("blocks", "t"), id="block-clusters"),
        ],
    )
    def test_malformed_manifest_rejected(self, saved, edit, match):
        edit_manifest(saved, edit)
        assert_rejected(saved, match)

    @pytest.mark.parametrize(
        "section, name", [("tree", "index_sets"), ("tree", "support_max"), ("blocks", "status"), ("blocks", "c_index")]
    )
    def test_lists_of_unequal_length_rejected(self, saved, section, name):
        edit_manifest(saved, lambda m: m[section][name].pop())
        assert_rejected(saved, rf"^the '{section}' lists .* are not of one length$")

    def test_matvec_command_rejects_truncated_payload(self, saved, capsys):
        from dirh2.cli import main

        (saved / "payload.bin").write_bytes((saved / "payload.bin").read_bytes()[:-1])
        assert main(["matvec", str(saved)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: payload.bin holds")


class TestDirectionChecks:
    """The direction levels and the manifest of an eta1 = 2 container, the
    n = 512 one of ``dirh2 compress --level 3 --kappa 4 --eta1 2 --save``,
    whose levels hold 600, 150 and 24 directions."""

    @pytest.fixture(scope="class")
    def directional(self, tmp_path_factory):
        from dirh2.cli import main

        where = tmp_path_factory.mktemp("directional")
        args = ["compress", "--level", "3", "--kappa", "4", "--eta1", "2"]
        assert main(args + ["--out", str(where / "r.csv"), "--save", str(where / "c")]) == 0
        return where / "c"

    @pytest.fixture
    def saved(self, directional, tmp_path):
        shutil.copytree(directional, tmp_path / "c")
        return tmp_path / "c"

    def test_loads(self, saved):
        levels = load_dh2(saved).directions.levels
        assert [len(level) for level in levels] == [600, 150, 24]

    def test_nudged_direction_rejected(self, saved):
        def nudge(m):
            direction = m["directions"]["levels"][0][7]
            direction[1] = float(np.nextafter(direction[1], 2.0))

        edit_manifest(saved, nudge)
        assert_rejected(saved, "^direction level 0 is neither a cube-face grid nor the zero set$")

    def test_manifest_holds_only_what_the_load_cannot_derive(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        assert set(manifest["directions"]) == {"levels"}
        assert set(manifest["blocks"]) == {"kappa", "eta1", "eta2", "parabolic", "status", "c_index"}
        tree = load_dh2(saved).tree
        leaves = np.flatnonzero(np.diff(tree.son_ptr) == 0)
        assert len(manifest["tree"]["sons"]) == len(tree) > leaves.size
        for name in ("index_sets", "support_min", "support_max"):
            assert len(manifest["tree"][name]) == leaves.size, name
        assert manifest["tree"]["index_sets"] == [tree.index_set(c).tolist() for c in leaves]


def test_the_library_reads_no_records(monkeypatch, tmp_path):
    # every library path reads the tree arrays: a record is a Python object
    # made per key, and its cost would be part of the timings
    def no_record(tree, key):
        raise AssertionError(f"a record of {type(tree).__name__} was read")

    monkeypatch.setattr(ClusterTree, "__getitem__", no_record)
    monkeypatch.setattr(BlockTree, "__getitem__", no_record)
    mesh = build_sphere_mesh(3)
    spec = KernelSpec("slp", 4.0)
    tree = build_cluster_tree(mesh.midpoints, 16)
    dirs = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], spec.kappa, 2.0)
    bt = build_block_tree(tree, dirs, spec.kappa, 2.0, 5.0)
    assert dirs.levels[1].any() and bt.admissible_leaves.size
    dense = assemble_dense_matrix(mesh, spec)
    a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
    save_dh2(a, tmp_path / "a")
    loaded = load_dh2(tmp_path / "a")
    assembled = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, 2)
    x = np.random.default_rng(5).standard_normal(a.n) + 0j
    for m in (a, loaded, assembled):
        assert np.isfinite(m.matvec(x)).all() and np.isfinite(m.matvec_adjoint(x)).all()
    assert np.array_equal(expand_dense(loaded), expand_dense(a))
    aca = aca_compress(dense_accessor(dense), tree, bt, 1e-4)
    assert np.isfinite(aca.matvec(x)).all() and np.isfinite(aca.matvec_adjoint(x)).all()
    for side in ("row", "col"):
        assert set(used_directions(tree, dirs, bt, side)) == {cid for cid, _ in farfield_sets(tree, dirs, bt, side)[0]}
    sparsity_stats(tree, bt), blocks_to_csv(tree, bt), tree_to_jsonl(tree)
