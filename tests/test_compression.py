import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from conftest import (
    assert_applies_as_reference,
    check_plan,
    cube_and_points_system,
    dense_accessor,
    ellipsoid_mesh,
    equal_bits,
    exit_code_in_child,
    line_system,
    reference_build_basis,
    reference_farfield_sets,
    sphere_system,
    weighted_strip,
)

import dirh2.compression
from dirh2 import dh2core
from dirh2.assembly import assemble_dh2_by_interpolation
from dirh2.blocktree import build_block_tree
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.compression import (
    CompressionConfig,
    aca_approximate,
    aca_compress,
    build_basis,
    compress,
    compute_block_weights,
    farfield_sets,
    subtree_tolerance_sq,
    used_directions,
)
from dirh2.dh2core import expand_dense, expand_factor, storage_report
from dirh2.directions import build_directions
from dirh2.geometry import KernelSpec, assemble_dense_matrix, build_sphere_mesh
from dirh2.linalg import svd, truncation_rank


def farfield_oracle(tree, dirs, bt, side):
    """Definition-level scan: walk every admissible block's descendant chain."""
    out = {}
    for bid in bt.admissible_leaves:
        b = bt[bid]
        cid0, other = (b.t, b.s) if side == "row" else (b.s, b.t)
        stack = [(cid0, b.c_index)]
        while stack:
            cid, c = stack.pop()
            out.setdefault((cid, c), set()).add((other, bid))
            cluster = tree[cid]
            if not cluster.is_leaf:
                c2 = dirs.son_index(cluster.level, c)
                stack.extend((son, c2) for son in cluster.sons)
    return out


def ordered_accessor(mat, fortran):
    """``dense_accessor`` whose reads are in Fortran or in C order."""
    order = np.asfortranarray if fortran else np.ascontiguousarray
    return lambda rows, cols: order(mat[np.ix_(rows, cols)])


def assert_same_bits(got: dict, want: dict) -> None:
    """The same keys, and byte for byte the same array or float per key."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        a, b = np.ascontiguousarray(got[key]), np.ascontiguousarray(value)
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), key


def row_pass(dense, tree, dirs, bt, cfg):
    """The row basis and state of ``dense``, weighted by its block norms,
    with the row side's farfield sets and those weights."""
    weights = compute_block_weights(dense_accessor(dense), tree, bt)
    basis, state = build_basis(dense_accessor(dense), tree, dirs, bt, cfg, weights, side="row")
    return basis, state, farfield_sets(tree, dirs, bt, "row"), weights


def check_projection_bound(dense, tree, dirs, basis, state, farfield, weights, key):
    """Projection error of one pair against its realized subtree budget,
    with roundoff slack proportional to the strip size."""
    cid, c = key
    strip = weighted_strip(dense, tree, farfield, weights, key)
    q = expand_factor(basis, tree, dirs, cid, c)
    err = np.linalg.norm(strip - q @ (q.conj().T @ strip), 2)
    bound = np.sqrt(subtree_tolerance_sq(state, tree, dirs, cid, c))
    slack = 1e-13 * max(1.0, np.linalg.norm(strip, 2))
    assert err <= bound * (1 + 1e-9) + slack, (key, err, bound)


@pytest.fixture(scope="module")
def line256():
    return line_system(256, 6.0)


@pytest.fixture(scope="module")
def directional512():
    """High-frequency regime with a tight plane-wave condition: every
    admissible block carries a nonzero direction and transfer matrices
    change direction between levels."""
    from dirh2.blocktree import build_block_tree
    from dirh2.clustering import build_cluster_tree, level_diameter
    from dirh2.directions import build_directions
    from dirh2.geometry import build_sphere_mesh

    # leaf size 5 stops the tree at level 3, the last level whose boxes
    # are large enough for nonzero directions (level 4 would hold clusters
    # of about one index, which correctly get the zero direction)
    mesh = build_sphere_mesh(3)
    tree = build_cluster_tree(mesh.midpoints, 5)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, 8.0, 2.0)
    bt = build_block_tree(tree, dirs, 8.0, 2.0, 5.0)
    dense = assemble_dense_matrix(mesh, KernelSpec("slp", 8.0))
    nonzero = sum(
        1
        for bid in bt.admissible_leaves
        if dirs.levels[tree[bt[bid].t].level][bt[bid].c_index].any()
    )
    assert nonzero == len(bt.admissible_leaves) > 0
    return mesh, dense, tree, dirs, bt


@pytest.fixture(scope="module")
def dlp_sphere512():
    """M/2 + DLP on the sphere, kappa = 4, eta1 = 2: the directional regime."""
    mesh, tree, dirs, bt = sphere_system(3, 4.0, eta1=2.0)
    return assemble_dense_matrix(mesh, KernelSpec("dlp", 4.0)), tree, dirs, bt


@pytest.fixture(scope="module")
def cube_and_points():
    return cube_and_points_system()


@pytest.fixture(scope="module")
def sphere512():
    mesh, tree, dirs, bt = sphere_system(3, 4.0)
    dense = assemble_dense_matrix(mesh, KernelSpec("slp", 4.0))
    return dense, tree, dirs, bt


def point_system(pts, kappa, eta1, dense=None):
    """Cluster tree (leaf size 16), directions and block tree of ``pts``,
    with the single layer kernel matrix on them unless ``dense`` is given."""
    if dense is None:
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, 1.0)
        dense = np.exp(1j * kappa * d) / (4 * np.pi * d)
        np.fill_diagonal(dense, 1.0 / len(pts))
    tree = build_cluster_tree(pts, 16)
    dirs = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], kappa, eta1)
    return dense, tree, dirs, build_block_tree(tree, dirs, kappa, eta1, 5.0)


@pytest.fixture(scope="module")
def root_leaf():
    """Ten points: the root is a leaf, and no block is admissible."""
    return point_system(build_sphere_mesh(1).midpoints[:10], 4.0, 20.0)


@pytest.fixture(scope="module")
def ellipsoid512():
    """An uneven tree, deeper along the long axis, with directions: M/2 + DLP
    on the 4:1:1 ellipsoid, kappa = 8, eta1 = 2."""
    mesh = ellipsoid_mesh(3)
    return point_system(mesh.midpoints, 8.0, 2.0, assemble_dense_matrix(mesh, KernelSpec("dlp", 8.0)))


@pytest.fixture(scope="module")
def lopsided():
    """A segment of 256 points and three points far from it: the root's sons
    hold 256, 1, 1 and 1 indices, one the segment's subtree and the others
    single points."""
    pts = np.zeros((259, 3))
    pts[:256, 0] = np.linspace(0.0, 1.0, 256)
    pts[256:] = [[10.0, 0.0, 0.5], [0.0, 10.0, 0.5], [10.0, 10.0, 0.5]]
    return point_system(pts, 6.0, 20.0)


TWO_PART_SYSTEMS = ["sphere512", "root_leaf", "ellipsoid512", "lopsided"]


def assert_same_fields(got, want, names=None) -> None:
    """Every dict of two dataclasses (a basis or a state), or those named,
    holds the same keys in the same order, each value with the same bits."""
    for name in names or [f.name for f in dataclasses.fields(want)]:
        a, b = getattr(got, name), getattr(want, name)
        assert list(a) == list(b), name
        assert all(equal_bits(a[key], b[key]) for key in b), name


def assert_basis_as_reference(mat, fortran, tree, dirs, bt, cfg, weights, side, col_basis):
    """``build_basis`` reading ``mat`` in the given memory order against the
    per-pair reference: ranks, bases, transfers, couplings and the two error
    dicts, byte for byte.  Returns the pass's basis and state."""
    basis, state = build_basis(ordered_accessor(mat, fortran), tree, dirs, bt, cfg, weights, side, col_basis)
    want, want_state = reference_build_basis(dense_accessor(mat), tree, dirs, bt, cfg, weights, side, col_basis)
    assert basis.rank == want.rank
    assert_same_bits(basis.leaf, want.leaf)
    assert_same_bits(basis.transfer, want.transfer)
    assert_same_bits(state.coupling, want_state.coupling)
    for name in ("realized_eps", "target_eps"):
        got, ref = getattr(state, name), getattr(want_state, name)
        assert_same_bits({k: np.float64(v) for k, v in got.items()}, {k: np.float64(v) for k, v in ref.items()})
    return basis, state


def assert_same_payload(a, want) -> None:
    assert_same_fields(a.row_basis, want.row_basis)
    assert_same_fields(a.col_basis, want.col_basis)
    assert_same_fields(a, want, ["coupling", "nearfield"])


class TestTwoParts:
    """The block weights in two parts, one on the worker thread, against the
    same calls in one part; the basis passes, which stay on the calling
    thread, on the same uneven trees."""

    @pytest.mark.parametrize("system", TWO_PART_SYSTEMS)
    def test_block_weights_same_bits(self, system, cpus, request):
        dense, tree, _, bt = request.getfixturevalue(system)
        got = {}
        for count in (1, 2):
            started = cpus(count)
            started.clear()
            got[count] = compute_block_weights(dense_accessor(dense), tree, bt)
            assert bool(started) == (count == 2 and bt.admissible_leaves.size > 1)
        assert equal_bits(got[2], got[1])

    @pytest.mark.parametrize("system", TWO_PART_SYSTEMS)
    @pytest.mark.parametrize("side, with_col_basis", [("col", False), ("row", False), ("row", True)])
    @pytest.mark.parametrize("fortran", [True, False])
    def test_basis_same_bits(self, system, side, with_col_basis, fortran, request):
        # reads in either memory order: a leaf scales its strips from one
        # read, and the pass keeps the per-pair reference's bits
        dense, tree, dirs, bt = request.getfixturevalue(system)
        cfg = CompressionConfig(eps=1e-4)
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        mat = dense if side == "row" else dense.conj().T
        col_basis = None
        if with_col_basis:
            col_basis, _ = build_basis(dense_accessor(dense.conj().T), tree, dirs, bt, cfg, weights, side="col")
        _, state = assert_basis_as_reference(mat, fortran, tree, dirs, bt, cfg, weights, side, col_basis)
        assert bool(state.coupling) == (with_col_basis and bt.admissible_leaves.size > 0)

    @pytest.mark.parametrize("system", ["sphere512", "dlp_sphere512"])
    def test_accessor_is_called_on_the_calling_thread_only(self, system, cpus, request):
        # n = 512 SLP (eta1 = 20) and M/2 + DLP (eta1 = 2), with two CPUs
        dense, tree, dirs, bt = request.getfixturevalue(system)
        cfg = CompressionConfig(eps=1e-4)
        cpus(2)
        threads = set()

        def recording(mat):
            def access(rows, cols):
                threads.add(threading.current_thread())
                return mat[np.ix_(rows, cols)]

            return access

        compress(recording(dense), tree, dirs, bt, cfg)
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        col_basis, _ = build_basis(recording(dense.conj().T), tree, dirs, bt, cfg, weights, side="col")
        _, state = build_basis(recording(dense), tree, dirs, bt, cfg, weights, side="row", col_basis=col_basis)
        assert state.coupling
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("system", TWO_PART_SYSTEMS)
    def test_compress_same_bits(self, system, cpus, request):
        dense, tree, dirs, bt = request.getfixturevalue(system)
        runs = []
        for count in (1, 2):
            started = cpus(count)
            started.clear()
            runs.append(compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4), return_state=True))
            assert bool(started) == (count == 2 and system != "root_leaf")
        (a, row_state, col_state), (want, want_row, want_col) = runs[1], runs[0]
        assert_same_fields(row_state, want_row)
        assert_same_fields(col_state, want_col)
        assert_same_payload(a, want)

    def test_concurrent_compressions_give_the_same_bits(self, lopsided, cpus):
        # more threads than cores hand their second parts to the one worker;
        # each must get its own parts back, so a mixed-up result changes the bits
        dense, tree, dirs, bt = lopsided
        cfg = CompressionConfig(eps=1e-4)
        cpus(2)
        want = compress(dense_accessor(dense), tree, dirs, bt, cfg)
        got = [None] * 4

        def run(k):
            got[k] = compress(dense_accessor(dense), tree, dirs, bt, cfg)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(got))]
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
        for a in got:
            assert_same_payload(a, want)

    def test_one_cpu_hands_nothing_to_the_worker(self, sphere512, cpus):
        dense, tree, dirs, bt = sphere512
        started = cpus(1)
        started.clear()
        compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert not started

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_accessor_that_applies_a_matrix(self, lopsided, cpus, monkeypatch):
        # compression reads through an accessor whose matvec cuts its phases
        # in two parts; with two CPUs it must end (in a child, so that a hang
        # fails the test) and be accurate
        dense, tree, dirs, bt = lopsided
        cfg = CompressionConfig(eps=1e-4)
        b = compress(dense_accessor(dense), tree, dirs, bt, cfg)
        unit = np.eye(b.n, dtype=complex)
        cpus(2)
        monkeypatch.setattr(dh2core, "TWO_PART_MIN_ENTRIES", 0)

        def through_matvec(rows, cols):
            return np.stack([b.matvec(unit[j])[rows] for j in cols], axis=1)

        def compress_through_matvec():
            a = compress(through_matvec, tree, dirs, bt, cfg)
            return np.linalg.norm(expand_dense(a) - dense) <= 1e-3 * np.linalg.norm(dense)

        assert exit_code_in_child(compress_through_matvec) == 0


class TestFarfieldSets:
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_matches_definition_scan_on_line(self, line256, side):
        dense, tree, dirs, bt = line256
        groups, cols = farfield_sets(tree, dirs, bt, side)
        oracle = farfield_oracle(tree, dirs, bt, side)
        assert set(groups) == set(oracle)
        for key, items in groups.items():
            assert set(items) == oracle[key]
            expected_cols = np.sort(
                np.concatenate([tree[s].index_set for s, _ in oracle[key]])
            )
            assert np.array_equal(cols[key], expected_cols)

    def test_matches_definition_scan_on_sphere(self, sphere512):
        _, tree, dirs, bt = sphere512
        groups, _ = farfield_sets(tree, dirs, bt, "row")
        oracle = farfield_oracle(tree, dirs, bt, "row")
        assert set(groups) == set(oracle)
        assert all(set(groups[k]) == oracle[k] for k in oracle)

    def test_unreferenced_clusters_absent(self, sphere512):
        _, tree, dirs, bt = sphere512
        groups, _ = farfield_sets(tree, dirs, bt, "row")
        keyed = {cid for cid, _ in groups}
        assert tree.root not in keyed  # the root pair is never admissible

    @pytest.mark.parametrize("system", ["sphere512", "line256"])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_keys_are_the_used_direction_pairs(self, system, side, request):
        _, tree, dirs, bt = request.getfixturevalue(system)
        groups, _ = farfield_sets(tree, dirs, bt, side)
        used = used_directions(tree, dirs, bt, side)
        assert set(groups) == {(cid, c) for cid, cs in used.items() for c in cs}

    def test_columns_disjoint_within_cluster(self, line256):
        # sources reached by one cluster are pairwise disjoint, across all
        # of its directions; the per-cluster column loads may thus be summed
        dense, tree, dirs, bt = line256
        _, cols = farfield_sets(tree, dirs, bt, "row")
        per_cluster = {}
        for (cid, c), arr in cols.items():
            per_cluster.setdefault(cid, []).append(arr)
        for arrays in per_cluster.values():
            merged = np.concatenate(arrays)
            assert merged.size == np.unique(merged).size

    @pytest.mark.parametrize("system", ["line256", "sphere512", "directional512", "cube_and_points"])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_equal_to_the_per_pair_reference(self, system, side, request):
        # the index arrays give the lists in the order the per-pair walk made them
        *_, tree, dirs, bt = request.getfixturevalue(system)
        groups, cols = farfield_sets(tree, dirs, bt, side)
        want_groups, want_cols = reference_farfield_sets(tree, dirs, bt, side)
        assert groups == want_groups
        assert cols.keys() == want_cols.keys()
        assert all(cols[key].dtype == want_cols[key].dtype for key in cols)
        assert all(np.array_equal(cols[key], want_cols[key]) for key in cols)


class TestBuildBasis:
    @pytest.mark.parametrize("system", ["sphere512", "directional512", "cube_and_points"])
    @pytest.mark.parametrize("side", ["row", "col"])
    @pytest.mark.parametrize("fortran", [True, False])
    def test_same_bits_as_the_per_pair_reference(self, system, side, fortran, request):
        # ranks, bases, transfers, couplings and the two error dicts, byte
        # for byte, with the pass's reads in either memory order; the row
        # pass forms couplings against one column basis
        *_, dense, tree, dirs, bt = request.getfixturevalue(system)
        dense = dense.astype(complex)
        cfg = CompressionConfig(eps=1e-4)
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        mat = dense if side == "row" else dense.conj().T
        col_basis = None
        if side == "row":
            col_basis, _ = build_basis(dense_accessor(dense.conj().T), tree, dirs, bt, cfg, weights, side="col")
        basis, state = assert_basis_as_reference(mat, fortran, tree, dirs, bt, cfg, weights, side, col_basis)
        assert basis.rank
        assert (side == "row") == bool(state.coupling)

    def test_orthogonality_and_shapes(self, line256):
        # each pair's factor as the pass formed it: its leaf matrix, or its
        # sons' transfers stacked in son order, with a row per son rank
        dense, tree, dirs, bt = line256
        basis, *_ = row_pass(dense, tree, dirs, bt, CompressionConfig(eps=1e-6))
        assert basis.rank
        for (cid, c), k in basis.rank.items():
            sons = tree.sons_of(cid)
            if sons:
                q = np.vstack([basis.transfer[(son, c)] for son in sons])
                c2 = dirs.son_index(tree.level[cid], c)
                assert q.shape == (sum(basis.rank[(son, c2)] for son in sons), k)
            else:
                q = basis.leaf[(cid, c)]
                assert q.shape == (tree.index_set(cid).size, k)
            assert np.linalg.norm(q.conj().T @ q - np.eye(k)) < 1e-12

    def test_zero_matrix_compresses_to_nothing(self, line256):
        _, tree, dirs, bt = line256
        zero = np.zeros((256, 256), dtype=complex)
        a = compress(dense_accessor(zero), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert all(k == 0 for k in a.row_basis.rank.values())
        rep = storage_report(a)
        assert rep.leaf_entries == rep.transfer_entries == rep.coupling_entries == 0
        assert not expand_dense(a).any()

    def test_error_bound_with_realized_values(self, line256):
        # projection error of every pair is covered by the realized
        # truncation errors accumulated over its subtree
        dense, tree, dirs, bt = line256
        basis, state, farfield, weights = row_pass(dense, tree, dirs, bt, CompressionConfig(eps=1e-4))
        for key in basis.rank:
            check_projection_bound(dense, tree, dirs, basis, state, farfield, weights, key)

    def test_pythagoras_three_term_split_two_sons(self, line256):
        # exact Frobenius energy identity on the stacked construction; the
        # line tree makes every non-leaf cluster a two-son cluster
        dense, tree, dirs, bt = line256
        basis, _, farfield, weights = row_pass(dense, tree, dirs, bt, CompressionConfig(eps=1e-4))
        checked = 0
        for key in basis.rank:
            cid, c = key
            cluster = tree[cid]
            if cluster.is_leaf:
                continue
            assert len(cluster.sons) == 2
            strip = weighted_strip(dense, tree, farfield, weights, key)
            q = expand_factor(basis, tree, dirs, cid, c)
            lhs = np.linalg.norm(strip - q @ (q.conj().T @ strip), "fro") ** 2
            c2 = dirs.son_index(cluster.level, c)
            terms = []
            hat_rows = []
            for son in cluster.sons:
                pos = np.searchsorted(cluster.index_set, tree[son].index_set)
                sub = strip[pos]
                qs = expand_factor(basis, tree, dirs, son, c2)
                terms.append(np.linalg.norm(sub - qs @ (qs.conj().T @ sub), "fro") ** 2)
                hat_rows.append(qs.conj().T @ sub)
            ghat = np.vstack(hat_rows)
            qhat = np.vstack([basis.transfer[(son, c)] for son in cluster.sons])  # the pass's factor
            terms.append(np.linalg.norm(ghat - qhat @ (qhat.conj().T @ ghat), "fro") ** 2)
            rhs = sum(terms)
            # both sides at squared-roundoff scale count as an exact 0 == 0
            if max(lhs, rhs) > np.linalg.norm(strip, "fro") ** 2 * 1e-20:
                assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("system", ["sphere512", "directional512"])
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_strip_reduction_matches_full_svd(self, system, side, request):
        # every pair truncates its strip g through g's triangular factor;
        # a full SVD of g itself must give the same ranks and errors.  A
        # non-leaf's g is its weighted strip with each son's rows reduced
        # by the son's expanded basis.
        *_, dense, tree, dirs, bt = request.getfixturevalue(system)
        mat = dense if side == "row" else dense.conj().T
        cfg = CompressionConfig(eps=1e-4)
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        basis, state = build_basis(dense_accessor(mat), tree, dirs, bt, cfg, weights, side=side)
        farfield = farfield_sets(tree, dirs, bt, side)
        max_sons = int(np.diff(tree.son_ptr).max())
        eps_base = cfg.eps * np.sqrt((1.0 - max_sons * cfg.zeta**2) / 2.0)
        owner = lambda bid: bt[bid].t if side == "row" else bt[bid].s
        for key, k in basis.rank.items():
            cid, c = key
            cluster = tree[cid]
            g = weighted_strip(mat, tree, farfield, weights, key)
            if not cluster.is_leaf:
                c2 = dirs.son_index(cluster.level, c)
                g = np.vstack([
                    expand_factor(basis, tree, dirs, son, c2).conj().T
                    @ g[np.searchsorted(cluster.index_set, tree[son].index_set)]
                    for son in cluster.sons
                ])
            _, sigma, _ = np.linalg.svd(g, full_matrices=False)
            shallowest = min(tree[owner(bid)].level for _, bid in farfield[0][key])
            target = eps_base * cfg.zeta ** (cluster.level - shallowest)
            tol = max(target, sigma[0] * max(g.shape) * np.finfo(float).eps)
            k_ref = truncation_rank(sigma, tol)
            realized = sigma[k_ref] if k_ref < sigma.size else 0.0
            assert k == k_ref, key
            assert abs(state.target_eps[key] - target) <= 1e-12 * target, key
            # singular values of a backward stable SVD are exact to roundoff
            # relative to the largest one
            assert abs(state.realized_eps[key] - realized) <= 1e-12 * sigma[0], key

    @pytest.mark.parametrize("system", ["sphere512", "directional512"])
    def test_one_svd_per_basis_pair_in_each_pass(self, system, request, monkeypatch):
        # the benchmark traces compression.svd for its linalg.svd_* metrics;
        # a pass that bypassed it would zero them without failing.  A call
        # takes one factor or a stack of them, so factors are counted.
        import dirh2.compression

        *_, dense, tree, dirs, bt = request.getfixturevalue(system)
        factors = [0]
        passes = {}

        def counting_svd(a):
            factors[0] += a.shape[0] if a.ndim == 3 else 1
            return svd(a)

        def counting_pass(*args, **kwargs):
            before = factors[0]
            basis, state = build_basis(*args, **kwargs)
            passes[kwargs["side"]] = (factors[0] - before, len(basis.rank))
            return basis, state

        monkeypatch.setattr(dirh2.compression, "svd", counting_svd)
        monkeypatch.setattr(dirh2.compression, "build_basis", counting_pass)
        compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert set(passes) == {"row", "col"}
        for svd_factors, pairs in passes.values():
            assert svd_factors == pairs > 0

    def test_compress_calls_the_traced_functions(self, sphere512, monkeypatch):
        # the benchmark's per-layer metrics wrap these module-level names; a
        # compress that inlined them would zero those metrics without failing
        dense, tree, dirs, bt = sphere512
        calls = {"weights": 0, "sides": []}

        def counting_weights(*args, **kwargs):
            calls["weights"] += 1
            return compute_block_weights(*args, **kwargs)

        def counting_pass(*args, **kwargs):
            calls["sides"].append(kwargs.get("side"))
            return build_basis(*args, **kwargs)

        monkeypatch.setattr(dirh2.compression, "compute_block_weights", counting_weights)
        monkeypatch.setattr(dirh2.compression, "build_basis", counting_pass)
        compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert calls["weights"] == 1
        assert sorted(calls["sides"]) == ["col", "row"]

    def test_timings_cover_every_phase(self, sphere512):
        dense, tree, dirs, bt = sphere512
        timings = {}
        compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4), timings=timings)
        assert sorted(timings) == ["col", "projection", "row", "weights"]
        assert all(t > 0.0 for t in timings.values())

    def test_column_pass_weights_the_blocks_themselves(self):
        # the column pass reads the adjoint; compress must still weight each
        # block by the norm of A[t, s], not of A[s, t] (the DLP matrix is not
        # symmetric, so the two differ and give other column bases)
        mesh, tree, dirs, bt = sphere_system(3, 4.0)
        dense = assemble_dense_matrix(mesh, KernelSpec("dlp", 4.0))
        access = dense_accessor(dense.conj().T)
        cfg = CompressionConfig(eps=1e-4)
        a = compress(dense_accessor(dense), tree, dirs, bt, cfg)
        bases = {
            matrix: build_basis(access, tree, dirs, bt, cfg, compute_block_weights(m, tree, bt), side="col")[0]
            for matrix, m in (("A", dense_accessor(dense)), ("A^H", access))
        }
        assert_same_fields(a.col_basis, bases["A"])
        mine, theirs = a.col_basis, bases["A^H"]
        assert mine.rank != theirs.rank or not all(equal_bits(mine.leaf[k], theirs.leaf[k]) for k in theirs.leaf)

    def test_config_validation(self, line256):
        dense, tree, dirs, bt = line256
        access = dense_accessor(dense)
        with pytest.raises(ValueError):
            compress(access, tree, dirs, bt, CompressionConfig(eps=0.0))
        with pytest.raises(ValueError):
            compress(access, tree, dirs, bt, CompressionConfig(eps=1e-4, zeta=0.8))
        # NaN passes every comparison with False, so it needs its own check
        for eps, zeta in [(np.nan, 0.3), (np.inf, 0.3), (1e-4, np.nan), (1e-4, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                compress(access, tree, dirs, bt, CompressionConfig(eps=eps, zeta=zeta))


class TestNestedAgainstBestApproximation:
    """The nested bases against the best approximation at their ranks, the
    inequality of the ``compression`` module docstring; a guard, not one of
    the acceptance criteria."""

    @pytest.mark.parametrize("system", ["sphere512", "dlp_sphere512", "ellipsoid512"])
    def test_error_within_the_tails_below(self, system, request):
        # ||g - Q Q^H g||_F^2 <= the sum of tau(t', c')^2 over the pair and
        # every pair below it along the son maps, where tau is the Frobenius
        # tail of a strip's singular values beyond its pair's rank
        dense, tree, dirs, bt = request.getfixturevalue(system)
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        weights = compute_block_weights(dense_accessor(dense), tree, bt)
        for basis, mat, side in ((a.row_basis, dense, "row"), (a.col_basis, dense.conj().T, "col")):
            farfield, memo = farfield_sets(tree, dirs, bt, side), {}
            strips, tail_sq = {}, {}
            for key, k in basis.rank.items():
                g = strips[key] = weighted_strip(mat, tree, farfield, weights, key)
                tail_sq[key] = float(np.sum(np.linalg.svd(g, compute_uv=False)[k:] ** 2))

            def below(cid, c):
                total = tail_sq[(cid, c)]
                for son in tree.sons_of(cid):
                    total += below(son, dirs.son_index(tree.level[cid], c))
                return total

            for key, g in strips.items():
                q = expand_factor(basis, tree, dirs, *key, memo)
                err = np.linalg.norm(g - q @ (q.conj().T @ g), "fro")
                bound = np.sqrt(below(*key))
                assert err <= bound * (1 + 1e-9) + 1e-13 * max(1.0, np.linalg.norm(g, 2)), (side, key, err, bound)


class TestCompress:
    @pytest.mark.parametrize("system", ["sphere512", "dlp_sphere512"])
    def test_matrix_holds_the_stacks_the_passes_made(self, system, request, monkeypatch):
        # SLP with eta1 = 20 and M/2 + DLP with eta1 = 2: the passes and the
        # nearfield read lay their matrices out as stacks, which the matrix
        # applies as they are, so nothing is copied
        dense, tree, dirs, bt = request.getfixturevalue(system)
        made = []

        def recording(make):
            def wrapper(*args):
                out = make(*args)
                made.extend({id(m.base): m.base for m in out.values()}.values())
                return out

            return wrapper

        for name in ("join_buffers", "empty_stacks"):
            monkeypatch.setattr(dirh2.compression, name, recording(getattr(dh2core, name)))
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        phases = [a._coupling, a._nearfield, a._row.leaf, a._col.leaf, *a._row.transfer, *a._col.transfer]
        assert sorted(id(stack) for phase in phases for stack in phase.stacks) == sorted(map(id, made))

    def test_block_relative_error_per_block(self, sphere512):
        dense, tree, dirs, bt = sphere512
        eps = 1e-4
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=eps))
        assert bt.admissible_leaves.size
        for bid in bt.admissible_leaves:
            b = bt[bid]
            rows, cols = tree[b.t].index_set, tree[b.s].index_set
            blk = dense[np.ix_(rows, cols)]
            q = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
            p = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
            proj = q @ (q.conj().T @ blk @ p) @ p.conj().T
            err = np.linalg.norm(blk - proj, 2)
            assert err <= eps * np.linalg.norm(blk, 2) * (1 + 1e-6)

    def test_inverse_of_the_second_kind_system(self):
        # the abstract's "arbitrary matrix": A^-1 of M/2 + DLP, which no
        # kernel generates, in the directional regime (eta1 = 2)
        mesh, tree, dirs, bt = sphere_system(3, 4.0, eta1=2.0)
        assert any(dirs.levels[tree[bt[bid].t].level][bt[bid].c_index].any() for bid in bt.admissible_leaves)
        inverse = np.linalg.inv(assemble_dense_matrix(mesh, KernelSpec("dlp", 4.0)))
        eps = 1e-4
        a = compress(dense_accessor(inverse), tree, dirs, bt, CompressionConfig(eps=eps))
        for bid in bt.admissible_leaves:
            b = bt[bid]
            blk = inverse[np.ix_(tree[b.t].index_set, tree[b.s].index_set)]
            q = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
            p = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
            err = np.linalg.norm(blk - q @ (q.conj().T @ blk @ p) @ p.conj().T, 2)
            assert err <= eps * np.linalg.norm(blk, 2) * (1 + 1e-6)

    def test_global_error_tracks_tolerance(self, sphere512):
        dense, tree, dirs, bt = sphere512
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 1e-4 * np.linalg.norm(dense, 2)

    def test_pure_nearfield_is_exact(self):
        mesh, tree, dirs, bt = sphere_system(0, 0.0)
        dense = assemble_dense_matrix(mesh, KernelSpec("slp", 0.0))
        assert bt.admissible_leaves.size == 0
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert np.array_equal(expand_dense(a), dense)

    def test_exact_nested_input_recovered(self, sphere512):
        # a matrix that is exactly of the nested directional form compresses
        # losslessly with ranks bounded by the construction order
        _, tree, dirs, bt = sphere512
        mesh = sphere_system(3, 4.0)[0]
        built = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 4.0), tree, dirs, bt, 2
        )
        dense = expand_dense(built)
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-12))
        assert max(a.row_basis.rank.values()) <= 8
        assert max(a.col_basis.rank.values()) <= 8
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 1e-10 * np.linalg.norm(dense, 2)

    def test_halving_eps_never_hurts_blocks(self, line256):
        dense, tree, dirs, bt = line256
        errs = {}
        for eps in (1e-3, 5e-4):
            a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=eps))
            for bid in bt.admissible_leaves:
                b = bt[bid]
                rows, cols = tree[b.t].index_set, tree[b.s].index_set
                blk = dense[np.ix_(rows, cols)]
                q = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
                p = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
                err = np.linalg.norm(blk - q @ (q.conj().T @ blk @ p) @ p.conj().T, 2)
                errs.setdefault(bid, []).append(err)
        for coarse, fine in errs.values():
            assert fine <= coarse * (1 + 1e-9) + 1e-14

    def test_lazy_accessor_equals_dense_accessor(self, line256):
        dense, tree, dirs, bt = line256
        cfg = CompressionConfig(eps=1e-6)
        a1 = compress(dense_accessor(dense), tree, dirs, bt, cfg)

        def lazy(rows, cols):
            return dense[np.ix_(rows, cols)].copy()

        a2 = compress(lazy, tree, dirs, bt, cfg)
        for bid in a1.coupling:
            assert np.array_equal(a1.coupling[bid], a2.coupling[bid])
        x = np.linspace(0, 1, 256) + 0j
        assert np.array_equal(a1.matvec(x), a2.matvec(x))

    @pytest.mark.parametrize("kind, eta1", [("slp", 20.0), ("dlp", 2.0)])
    def test_memory_order_of_the_reads_does_not_matter(self, kind, eta1, tmp_path):
        # the same entries in C and in Fortran order compress to the same bytes
        from dirh2.dh2core import save_dh2

        mesh, tree, dirs, bt = sphere_system(3, 4.0, eta1=eta1)
        dense = assemble_dense_matrix(mesh, KernelSpec(kind, 4.0))
        cfg = CompressionConfig(eps=1e-4)
        readers = {
            "c": lambda rows, cols: np.ascontiguousarray(dense[np.ix_(rows, cols)]),
            "f": lambda rows, cols: np.asfortranarray(dense[np.ix_(rows, cols)]),
        }
        for order, read in readers.items():
            save_dh2(compress(read, tree, dirs, bt, cfg), tmp_path / order)
        for name in ("manifest.json", "payload.bin"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes(), name

    def test_weights_are_block_norm_estimates(self, request):
        for system in ("line256", "sphere512"):
            dense, tree, _, bt = request.getfixturevalue(system)
            weights = compute_block_weights(dense_accessor(dense), tree, bt)
            assert weights.shape == (len(bt),) and weights.dtype == np.float64
            assert (np.delete(weights, bt.admissible_leaves) == 1.0).all()
            for bid in bt.admissible_leaves:
                b = bt[bid]
                blk = dense[np.ix_(tree[b.t].index_set, tree[b.s].index_set)]
                exact = np.linalg.norm(blk, 2)
                assert abs(weights[bid] - exact) <= 1e-12 * exact, (system, bid)

    def test_recompresses_stored_containers_and_cmx_files(self, sphere512, tmp_path):
        # both file formats feed the same accessor-based entry point
        from dirh2.dh2core import load_dh2, save_dh2
        from dirh2.linalg import read_cmx, write_cmx

        dense, tree, dirs, bt = sphere512
        mesh = sphere_system(3, 4.0)[0]
        built = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 4.0), tree, dirs, bt, 2
        )
        save_dh2(built, tmp_path / "c")
        target = expand_dense(load_dh2(tmp_path / "c"))
        recompressed = compress(
            dense_accessor(target), tree, dirs, bt, CompressionConfig(eps=1e-6)
        )
        err = np.linalg.norm(expand_dense(recompressed) - target, 2)
        assert err <= 1e-6 * np.linalg.norm(target, 2)

        write_cmx(tmp_path / "g.cmx", dense)
        from_file = read_cmx(tmp_path / "g.cmx")
        a = compress(dense_accessor(from_file), tree, dirs, bt, CompressionConfig(eps=1e-4))
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 1e-4 * np.linalg.norm(dense, 2)

    def test_deterministic(self, line256):
        dense, tree, dirs, bt = line256
        cfg = CompressionConfig(eps=1e-5)
        a1 = compress(dense_accessor(dense), tree, dirs, bt, cfg, seed=3)
        a2 = compress(dense_accessor(dense), tree, dirs, bt, cfg, seed=3)
        for bid in a1.coupling:
            assert np.array_equal(a1.coupling[bid], a2.coupling[bid])
        for key in a1.row_basis.leaf:
            assert np.array_equal(a1.row_basis.leaf[key], a2.row_basis.leaf[key])


class TestDirectionalRegime:
    def test_compression_accuracy_with_nonzero_directions(self, directional512):
        _, dense, tree, dirs, bt = directional512
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 1e-4 * np.linalg.norm(dense, 2)
        # transfer matrices connect different directions across levels
        assert any(
            dirs.levels[tree[tree[sid].parent].level][c].any()
            for (sid, c) in a.row_basis.transfer
        )
        x = np.linspace(-1, 1, a.n) + 0.5j
        ref = expand_dense(a) @ x
        assert np.linalg.norm(a.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_interpolation_assembly_with_nonzero_directions(self, directional512):
        # order 3: blocks are admitted on the clusters' support boxes, so the
        # smoothed kernel's phase varies by up to eta2 = 5 radians across a
        # block, more than two points per axis resolve to 5 %
        mesh, dense, tree, dirs, bt = directional512
        a = assemble_dh2_by_interpolation(
            mesh, KernelSpec("slp", 8.0), tree, dirs, bt, 3
        )
        err = np.linalg.norm(expand_dense(a) - dense, 2)
        assert err <= 5e-2 * np.linalg.norm(dense, 2)

    def test_memoized_expansion_is_bitwise_equal(self, directional512):
        _, dense, tree, dirs, bt = directional512
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        for basis, side in ((a.row_basis, "row"), (a.col_basis, "col")):
            used = used_directions(tree, dirs, bt, side)
            assert set(basis.rank) == {(cid, c) for cid, cs in used.items() for c in cs}
            memo = {}
            for key in basis.rank:  # sons first, so parents reuse their sons' entries
                expand_factor(basis, tree, dirs, *key, memo)
            assert set(memo) == set(basis.rank)
            for key, q in memo.items():
                assert np.array_equal(q, expand_factor(basis, tree, dirs, *key))

    def test_couplings_are_projections_of_the_blocks(self, directional512):
        _, dense, tree, dirs, bt = directional512
        a = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-4))
        assert set(a.coupling) == set(bt.admissible_leaves)
        for bid in bt.admissible_leaves:
            b = bt[bid]
            q = expand_factor(a.row_basis, tree, dirs, b.t, b.c_index)
            p = expand_factor(a.col_basis, tree, dirs, b.s, b.c_index)
            ref = q.conj().T @ dense[np.ix_(tree[b.t].index_set, tree[b.s].index_set)] @ p
            assert np.linalg.norm(a.coupling[bid] - ref) <= 1e-12 * np.linalg.norm(ref), bid

    def test_reads_each_admissible_block_three_times(self, directional512):
        # once for its weight, once in the row strips, once in the column
        # strips; the nearfield once.  A target cluster reads the blocks
        # weighed against it in one call, and a leaf cluster the strips of
        # all its directions.
        _, dense, tree, dirs, bt = directional512
        read = [0]
        calls = [0]

        def counting(rows, cols):
            read[0] += len(rows) * len(cols)
            calls[0] += 1
            return dense[np.ix_(rows, cols)]

        compress(counting, tree, dirs, bt, CompressionConfig(eps=1e-4))
        area = lambda bids: sum(tree[bt[bid].t].size * tree[bt[bid].s].size for bid in bids)
        assert read[0] == 3 * area(bt.admissible_leaves) + area(bt.inadmissible_leaves)
        leaves = lambda side: sum(tree[cid].is_leaf for cid in used_directions(tree, dirs, bt, side))
        targets = len({bt[bid].t for bid in bt.admissible_leaves})
        assert calls[0] == targets + leaves("row") + leaves("col") + len(bt.inadmissible_leaves)

    def test_error_bound_sampled_with_direction_chains(self, directional512):
        _, dense, tree, dirs, bt = directional512
        basis, state, farfield, weights = row_pass(dense, tree, dirs, bt, CompressionConfig(eps=1e-4))
        keys = sorted(basis.rank)[:: max(1, len(basis.rank) // 150)]
        for key in keys:
            check_projection_bound(dense, tree, dirs, basis, state, farfield, weights, key)


class TestAca:
    def test_rank_one_in_one_step(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        block = np.outer(u, v.conj())
        a, b = aca_approximate(block, 1e-10)
        assert a.shape[1] == 1
        assert np.linalg.norm(block - a @ b.conj().T) <= 1e-12 * np.linalg.norm(block)

    def test_zero_block(self):
        a, b = aca_approximate(np.zeros((5, 7), dtype=complex), 1e-6)
        assert a.shape == (5, 0)
        assert b.shape == (7, 0)

    def test_rank_at_least_svd_rank_at_equal_residual(self):
        rng = np.random.default_rng(1)
        q1, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        q2, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        sigma = 2.0 ** -np.arange(64.0)
        block = (q1 * sigma) @ q2.conj().T
        a, b = aca_approximate(block, 1e-6)
        k_aca = a.shape[1]
        residual = np.linalg.norm(block - a @ b.conj().T, 2)
        k_svd = truncation_rank(svd(block).sigma, residual)
        assert k_aca >= k_svd

    def test_tolerance_controls_residual(self):
        rng = np.random.default_rng(2)
        q1, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        q2, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        block = ((q1 * 3.0 ** -np.arange(32.0)) @ q2.T).astype(complex)
        a, b = aca_approximate(block, 1e-8)
        assert np.linalg.norm(block - a @ b.conj().T, 2) <= 1e-6 * np.linalg.norm(block, 2)

    def test_rank_one_global_matrix(self, line256):
        # degenerate sanity case: a globally rank-1 matrix costs one column
        # plus one row per admissible block either way
        _, tree, dirs, bt = line256
        rng = np.random.default_rng(9)
        u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        dense = np.outer(u, v.conj())
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-10)
        low_rank = 0
        for bid in bt.admissible_leaves:
            a_f, b_f = aca.factors[bid]
            assert a_f.shape[1] == 1
            low_rank += a_f.size + b_f.size
        expected = sum(
            tree[bt[bid].t].size + tree[bt[bid].s].size for bid in bt.admissible_leaves
        )
        assert low_rank == expected
        nested = compress(dense_accessor(dense), tree, dirs, bt, CompressionConfig(eps=1e-10))
        assert max(nested.row_basis.rank.values()) == 1
        err = np.linalg.norm(expand_dense(nested) - dense, 2)
        assert err <= 1e-9 * np.linalg.norm(dense, 2)

    def test_blockwise_aca_matrix(self, line256):
        dense, tree, dirs, bt = line256
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-8)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        y = aca.matvec(x)
        assert np.linalg.norm(y - dense @ x) <= 1e-6 * np.linalg.norm(dense @ x)
        z = aca.matvec_adjoint(x)
        assert np.linalg.norm(z - dense.conj().T @ x) <= 1e-6 * np.linalg.norm(
            dense.conj().T @ x
        )
        entries = sum(a.size + b.size for a, b in aca.factors.values()) + sum(
            m.size for m in aca.nearfield.values()
        )
        assert aca.storage_entries() == entries
        assert aca.max_rank() >= 1

    def test_aca_matrix_is_frozen(self, line256):
        dense, tree, _, bt = line256
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            aca.nearfield = {}

    def test_aca_apply_matches_its_blocks(self, line256):
        dense, tree, dirs, bt = line256
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-8)
        blockwise = np.zeros_like(dense)
        for bid, (a_f, b_f) in aca.factors.items():
            blockwise[np.ix_(tree[bt[bid].t].index_set, tree[bt[bid].s].index_set)] = a_f @ b_f.conj().T
        for bid, m in aca.nearfield.items():
            blockwise[np.ix_(tree[bt[bid].t].index_set, tree[bt[bid].s].index_set)] = m
        rng = np.random.default_rng(5)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        ref = blockwise @ x
        assert np.linalg.norm(aca.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        refh = blockwise.conj().T @ x
        assert np.linalg.norm(aca.matvec_adjoint(x) - refh) <= 1e-12 * np.linalg.norm(refh)

    @pytest.mark.parametrize("length", [251, 261])
    def test_aca_apply_rejects_a_vector_of_another_length(self, line256, length):
        dense, tree, _, bt = line256
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-8)
        for apply in (aca.matvec, aca.matvec_adjoint):
            with pytest.raises(ValueError, match="^expected a vector of length 256$"):
                apply(np.ones(length, dtype=complex))

    def test_aca_apply_bitwise_as_reference(self, line256, monkeypatch):
        dense, tree, _, bt = line256
        aca = aca_compress(dense_accessor(dense), tree, bt, 1e-8)
        assert_applies_as_reference(aca, dirh2.compression, monkeypatch)
        for phase, cols in ((aca._left, aca._rank_total), (aca._right, aca._rank_total), (aca._nearfield, aca.n)):
            check_plan(phase, aca.n, cols)
