import os
import signal
import time

import numpy as np
import pytest

from dirh2 import linalg
from dirh2.blocktree import ADMISSIBLE, INADMISSIBLE, SUBDIVIDED, build_block_tree
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.directions import build_directions
from dirh2.geometry import SurfaceMesh, build_sphere_mesh

ETA1, ETA2 = 20.0, 5.0


def sphere_system(level, kappa, leaf_size=16, parabolic=True, eta1=ETA1):
    """Mesh, cluster tree, directions and block tree for the sphere setups."""
    mesh = build_sphere_mesh(level)
    tree = build_cluster_tree(mesh.midpoints, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, eta1)
    bt = build_block_tree(tree, dirs, kappa, eta1, ETA2, parabolic=parabolic)
    return mesh, tree, dirs, bt


def line_system(n, kappa, leaf_size=16):
    """Kernel matrix on a segment: the cluster tree is binary (two nonempty
    half-cells per split), so every non-leaf cluster has exactly two sons
    and blocks appear on several levels."""
    pts = np.zeros((n, 3))
    pts[:, 0] = np.linspace(0.0, 1.0, n)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, 1.0)
    dense = np.exp(1j * kappa * d) / (4 * np.pi * d)
    np.fill_diagonal(dense, 1.0 / n)
    tree = build_cluster_tree(pts, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, ETA1)
    bt = build_block_tree(tree, dirs, kappa, ETA1, ETA2)
    return dense, tree, dirs, bt


def cube_and_points_system():
    """Sixteen grid points in a unit cube and three single points about ten
    away in three directions: the cube is a leaf whose read holds three
    single-column strips, one per direction.  A product with such a column
    taken as a strided view of the read rounds differently from one with a
    contiguous copy."""
    grid = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1 / 3, 2 / 3, 1.0)]
    pts = np.array(grid + [[10.0, 0.0, 0.5], [0.0, 10.0, 0.5], [10.0, 10.0, 0.5]])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, 1.0)
    dense = np.exp(10j * d) / (4 * np.pi * d)
    tree = build_cluster_tree(pts, 16)
    dirs = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)], 10.0, 2.0)
    bt = build_block_tree(tree, dirs, 10.0, 2.0, 5.0)
    return dense, tree, dirs, bt


def ellipsoid_mesh(level):
    """The sphere mesh scaled to a 4:1:1 ellipsoid."""
    mesh = build_sphere_mesh(level)
    return SurfaceMesh(mesh.vertices * np.array([4.0, 1.0, 1.0]), mesh.triangles)


def dense_accessor(dense):
    return lambda rows, cols: dense[np.ix_(rows, cols)]


def weighted_strip(mat, tree, farfield, weights, key):
    """The weighted farfield strip of one (cluster, direction) pair: the
    rows of ``mat`` in the cluster's index set and the pair's sorted
    farfield columns, each column divided by the weight of its block.
    ``farfield`` is the (groups, cols) of ``farfield_sets`` for the side
    whose rows ``mat`` holds (the adjoint for the column side), and
    ``weights`` the array of ``compute_block_weights`` for the matrix."""
    groups, cols = farfield
    cid, _ = key
    strip = mat[np.ix_(tree.index_set(cid), cols[key])].astype(complex)
    w = np.ones(cols[key].size)
    for s, bid in groups[key]:
        w[np.searchsorted(cols[key], tree.index_set(s))] = 1.0 / weights[bid]
    return strip * w[None, :]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that the two-part callers see (``linalg._cpus``),
    and count the parts they hand to the worker thread: ``cpus(count)``
    returns the list of those parts."""
    started = []
    inner = linalg._start

    def counting(task):
        started.append(task)
        return inner(task)

    monkeypatch.setattr(linalg, "_start", counting)

    def use(count):
        monkeypatch.setattr(linalg, "_cpus", lambda: count)
        return started

    return use


def equal_bits(a, b) -> bool:
    """The same dtype, shape and bytes; lists (of Python values) compare equal."""
    if isinstance(b, list):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def exit_code_in_child(run, timeout: float = 60.0) -> int:
    """Call ``run`` in a child made by ``os.fork`` and return the child's
    exit code: 0 when ``run`` returns a true value, 3 when it returns a
    false one, 1 when it raises.  The test fails if the child has not
    ended within ``timeout`` seconds, so a call that would hang forever
    hangs only the child."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if run() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + timeout
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child did not end within {timeout:g} s")
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(status[1])


def reference_apply(out, inp, phase, hermitian=False):
    """The grouped apply as it was before phase plans: per stack one batched
    product, summed into ``out`` by ``np.add.at`` in slot and entry order."""
    r0 = c0 = 0
    for stack in phase.stacks:
        g, r, c = stack.shape
        rows = phase.rows[r0 : r0 + g * r].reshape(g, r)
        cols = phase.cols[c0 : c0 + g * c].reshape(g, c)
        r0, c0 = r0 + g * r, c0 + g * c
        if hermitian:
            np.add.at(out, cols, np.matmul(inp[rows].conj()[:, None, :], stack)[:, 0, :].conj())
        else:
            np.add.at(out, rows, np.matmul(stack, inp[cols][:, :, None])[:, :, 0])


def assert_applies_as_reference(a, module, monkeypatch):
    """A x and A^H x of ``a`` are bitwise equal to those of
    ``reference_apply`` put in place of ``module.apply_groups``."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(a.n) + 1j * rng.standard_normal(a.n)
    got = a.matvec(x), a.matvec_adjoint(x)
    calls = []

    def reference(*args):
        calls.append(1)
        reference_apply(*args)

    with monkeypatch.context() as m:
        m.setattr(module, "apply_groups", reference)
        want = a.matvec(x), a.matvec_adjoint(x)
    assert calls, "the reference was not called"
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def check_plan(phase, rows, cols):
    """Each side of ``phase`` is one 1-D ``np.intp`` array that holds an
    entry for every product position (G r rows and G c columns per stack)
    and lies in its vector: ``rows`` or ``cols`` entries long."""
    for side, axis, size in ((phase.rows, 1, rows), (phase.cols, 2, cols)):
        assert isinstance(side, np.ndarray) and side.dtype == np.intp and side.ndim == 1
        assert len(side) == sum(stack.shape[0] * stack.shape[axis] for stack in phase.stacks)
        assert ((side >= 0) & (side < size)).all()


def reference_nearest_direction_index(dirs, z):
    """``nearest_direction_index`` as it was before it took arrays: one
    vector, normalized by ``np.linalg.norm``, one scan of the directions."""
    if dirs.shape[0] == 1 and not dirs[0].any():
        return 0
    z = np.asarray(z, dtype=float)
    dist = np.linalg.norm(dirs - z / np.linalg.norm(z), axis=1)
    best = np.nonzero(dist == dist.min())[0]
    if best.size == 1:
        return int(best[0])
    order = np.lexsort((dirs[best, 2], dirs[best, 1], dirs[best, 0]))
    return int(best[order[0]])


def is_exact_tie(dirs, z):
    """Whether two or more directions are nearest to z/||z|| in the
    distances of ``reference_nearest_direction_index``."""
    dist = np.linalg.norm(dirs - z / np.linalg.norm(z), axis=1)
    return bool(dirs.shape[0] > 1 and (dist == dist.min()).sum() > 1)


def _reference_is_admissible(box_t, box_s, kappa, eta2, parabolic):
    gap = np.maximum(0.0, np.maximum(box_t[0] - box_s[1], box_s[0] - box_t[1]))
    dist = float(np.linalg.norm(gap))
    if dist <= 0.0:
        return False
    diam = max(float(np.linalg.norm(box_t[1] - box_t[0])), float(np.linalg.norm(box_s[1] - box_s[0])))
    if diam > eta2 * dist:
        return False
    return not (parabolic and kappa * diam * diam > eta2 * dist)


def reference_block_tree(tree, dirs, kappa, eta2, parabolic=True):
    """The block tree as ``build_block_tree`` built it before it decided a
    level at once: a recursive descent that decides one pair at a time.
    Returns (id, t, s, status, c_index) per block."""
    blocks = []

    def descend(t, s):
        block = [len(blocks), t, s, SUBDIVIDED, -1]
        blocks.append(block)
        ct, cs = tree[t], tree[s]
        box_t, box_s = (ct.support_min, ct.support_max), (cs.support_min, cs.support_max)
        if _reference_is_admissible(box_t, box_s, kappa, eta2, parabolic):
            block[3] = ADMISSIBLE
            z = 0.5 * (ct.support_min + ct.support_max) - 0.5 * (cs.support_min + cs.support_max)
            block[4] = reference_nearest_direction_index(dirs.levels[ct.level], z)
        elif ct.is_leaf or cs.is_leaf:
            block[3] = INADMISSIBLE
        else:
            for t2 in ct.sons:
                for s2 in cs.sons:
                    descend(t2, s2)

    descend(tree.root, tree.root)
    return [tuple(b) for b in blocks]


def reference_used_directions(tree, dirs, blocks, side):
    """``used_directions`` from (id, t, s, status, c_index) tuples,
    such as those of ``reference_block_tree`` or the records of
    ``BlockTree.blocks``, walking the clusters parent first."""
    used = {}
    for _, t, s, status, c in blocks:
        if status == ADMISSIBLE:
            used.setdefault(t if side == "row" else s, set()).add(c)
    for cid in range(len(tree)):
        for c in used.get(cid, ()) if tree[cid].sons else ():
            for son in tree[cid].sons:
                used.setdefault(son, set()).add(dirs.son_index(tree[cid].level, c))
    return {cid: sorted(cs) for cid, cs in used.items()}


def reference_sphere_mesh(level):
    """``build_sphere_mesh`` as it was before it refined a level at once: a
    recursive depth-first refinement that numbers each corner when it first
    reaches it.  Returns (vertices, triangles)."""
    from dirh2.geometry import _OCTAHEDRON_FACES, _OCTAHEDRON_VERTICES

    vertex_index, triangles = {}, []

    def refine(a, b, c, depth):
        if depth == 0:
            triangles.append(tuple(vertex_index.setdefault((p[0], p[1], p[2]), len(vertex_index)) for p in (a, b, c)))
            return
        ab, bc, ac = (a + b) / 2.0, (b + c) / 2.0, (a + c) / 2.0
        for child in ((a, ab, ac), (ab, b, bc), (ac, bc, c), (ab, bc, ac)):
            refine(*child, depth - 1)

    for face in _OCTAHEDRON_FACES:
        refine(*_OCTAHEDRON_VERTICES[list(face)], level)
    vertices = np.array(list(vertex_index))
    vertices /= np.linalg.norm(vertices, axis=1)[:, None]
    return vertices, np.array(triangles, dtype=np.int64)


def reference_cluster_tree(points, leaf_size):
    """``build_cluster_tree`` as it was before it kept a list of clusters to
    visit: a recursive descent.  Returns (id, level, parent, index set,
    support box corners, sons) per cluster."""
    from dirh2.clustering import _split_box

    clusters = []

    def build(level, parent, idx):
        cid = len(clusters)
        clusters.append([cid, level, parent, np.sort(idx), points[idx].min(axis=0), points[idx].max(axis=0), []])
        parts = _split_box(points, idx) if idx.size > leaf_size else []
        if len(parts) > 1:
            clusters[cid][6] = [build(level + 1, cid, sub) for sub in parts]
        return cid

    build(0, -1, np.arange(len(points), dtype=np.int64))
    return clusters


def reference_dense_block(mesh, spec, rows, cols):
    """``dense_block`` as it was before it worked in real arithmetic: a
    (rows, cols, 3) difference array and complex arithmetic."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    d = mesh.midpoints[rows][:, None, :] - mesh.midpoints[cols][None, :, :]
    r = np.linalg.norm(d, axis=2)
    same = rows[:, None] == cols[None, :]
    r_safe = np.where(same, 1.0, r)
    kappa = spec.kappa
    g = np.exp(1j * kappa * r_safe) / (4.0 * np.pi * r_safe)
    if spec.kind == "dlp":
        dn = np.einsum("ijk,jk->ij", d, mesh.normals[cols])
        g = (1.0 - 1j * kappa * r_safe) * g / r_safe**2 * dn
    block = g * mesh.areas[rows][:, None] * mesh.areas[cols][None, :]
    diag = mesh.areas[rows] ** 1.5 / (2.0 * np.sqrt(np.pi)) if spec.kind == "slp" else 0.5 * mesh.areas[rows]
    block[same] = np.broadcast_to(diag[:, None], block.shape)[same]
    return block


def reference_svd(a):
    """``linalg.svd`` as it was before its per-call overhead was cut: the
    finiteness check on the input, ``np.take_along_axis`` and two
    ``np.where`` for the phases.  Returns (u, sigma, v)."""
    a = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("svd input contains non-finite entries")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().swapaxes(-1, -2)
    if u.shape[-1] == 0:
        return u, s, v
    idx = np.argmax(np.abs(u), axis=-2)
    lead = np.take_along_axis(u, idx[..., None, :], axis=-2)
    mag = np.abs(lead)
    phase = np.where(mag > 0.0, lead / np.where(mag > 0.0, mag, 1.0), 1.0)
    return u * phase.conj(), s, v * phase.conj()


def _reference_farfield_groups(tree, dirs, bt, side, used):
    groups, shallowest = {}, {}
    for bid in bt.admissible_leaves:
        b = bt[bid]
        cid, other = (b.t, b.s) if side == "row" else (b.s, b.t)
        groups.setdefault((cid, b.c_index), []).append((other, bid))
        shallowest[(cid, b.c_index)] = tree[cid].level
    for cid in range(len(tree)):  # ids are parent-first
        cluster = tree[cid]
        if cluster.is_leaf:
            continue
        for c in used.get(cid, ()):
            c2 = dirs.son_index(cluster.level, c)
            level = shallowest[(cid, c)]
            for son in cluster.sons:
                groups.setdefault((son, c2), []).extend(groups[(cid, c)])
                shallowest[(son, c2)] = min(shallowest.get((son, c2), level), level)
    return groups, shallowest


def _reference_sorted_columns(tree, items):
    sets = [tree[s].index_set for s, _ in items]
    merged = np.concatenate(sets)
    order = np.argsort(merged, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    offsets = np.cumsum([0] + [x.size for x in sets])
    return merged[order], inverse, offsets


def reference_farfield_sets(tree, dirs, bt, side="row"):
    """``farfield_sets`` as it was before the index arrays: groups built
    by walking the blocks and the clusters, one sort per pair."""
    used = reference_used_directions(tree, dirs, bt.blocks, side)
    groups, _ = _reference_farfield_groups(tree, dirs, bt, side, used)
    return groups, {key: _reference_sorted_columns(tree, items)[0] for key, items in groups.items()}


def reference_build_basis(access, tree, dirs, bt, cfg, block_weights, side="row", col_basis=None):
    """``compression.build_basis`` as it was before the index arrays: one
    Python pass per (cluster, direction) pair, one ``_sorted_columns`` sort
    per pair, one ``np.linalg.qr(mode="r")`` per pair, and one coupling
    product per block, with ``reference_svd``.  A pair's reduced rows and
    columns are kept until its parent has read them."""
    from dirh2.compression import CompressionState
    from dirh2.dh2core import DirectionalClusterBasis, expand_factor
    from dirh2.linalg import truncation_rank

    max_sons = max((len(tree[cid].sons) for cid in range(len(tree)) if tree[cid].sons), default=1)
    cfg.validate(max_sons)
    used = reference_used_directions(tree, dirs, bt.blocks, side)
    groups, shallowest = _reference_farfield_groups(tree, dirs, bt, side, used)
    reduced, cols = {}, {}
    state, basis = CompressionState(), DirectionalClusterBasis()
    read_by_parent = {
        (son, dirs.son_index(tree[cid].level, c)) for cid, cs in used.items() for c in cs for son in tree[cid].sons
    }
    col_memo = {}
    eps_base = cfg.eps * float(np.sqrt((1.0 - max_sons * cfg.zeta**2) / 2.0))
    for key, level in shallowest.items():
        state.target_eps[key] = eps_base * cfg.zeta ** (tree[key[0]].level - level)

    for cid in sorted(used, reverse=True):
        cluster = tree[cid]
        keys = [(cid, c) for c in used[cid]]
        columns = [_reference_sorted_columns(tree, groups[key]) for key in keys]
        if cluster.is_leaf:
            read = access(cluster.index_set, np.concatenate([fcols for fcols, _, _ in columns]))
        strips = []
        start = 0
        for key, (fcols, inverse, offsets) in zip(keys, columns):
            items = groups[key]
            if cluster.is_leaf:
                g = read[:, start : start + fcols.size]
                start += fcols.size
                w = np.empty(fcols.size)
                w[inverse] = np.repeat([1.0 / block_weights[bid] for _, bid in items], np.diff(offsets))
                g = g * w[None, :]
            else:
                c2 = dirs.son_index(cluster.level, key[1])
                parts = []
                for son in cluster.sons:
                    rs = reduced[(son, c2)]
                    pos = np.searchsorted(cols[(son, c2)], fcols)
                    parts.append(rs[:, pos])
                g = np.vstack(parts)
            strips.append(g)
        factors = {
            key: np.linalg.qr(g.conj().T, mode="r").conj().T for key, g in zip(keys, strips) if g.shape[0]
        }
        by_shape = {}
        for key, f in factors.items():
            by_shape.setdefault(f.shape, []).append(key)
        svds = {}
        for shape_keys in by_shape.values():
            u, sigma, _ = reference_svd(np.stack([factors[key] for key in shape_keys]))
            svds.update((key, (u[i], sigma[i])) for i, key in enumerate(shape_keys))

        for key, g, (fcols, inverse, offsets) in zip(keys, strips, columns):
            c = key[1]
            items = groups[key]
            if key not in svds:
                k = 0
                q = np.zeros((0, 0), dtype=np.complex128)
                state.realized_eps[key] = 0.0
            else:
                u, sigma = svds[key]
                tol = state.target_eps[key]
                if sigma.size:
                    tol = max(tol, sigma[0] * max(g.shape) * np.finfo(float).eps)
                k = truncation_rank(sigma, tol)
                q = u[:, :k].copy()
                state.realized_eps[key] = float(sigma[k]) if k < sigma.size else 0.0
            r = q.conj().T @ g
            if col_basis is not None:
                for i, (s, bid) in enumerate(items):
                    if bt[bid].t == cid:
                        w = expand_factor(col_basis, tree, dirs, s, c, col_memo)
                        pos = inverse[offsets[i] : offsets[i + 1]]
                        state.coupling[bid] = block_weights[bid] * (r[:, pos] @ w)
            if key in read_by_parent:
                reduced[key] = r
                cols[key] = fcols
            basis.rank[key] = k
            if cluster.is_leaf:
                basis.leaf[key] = q
            else:
                off = 0
                c2 = dirs.son_index(cluster.level, c)
                for son in cluster.sons:
                    ks = basis.rank[(son, c2)]
                    basis.transfer[(son, c)] = q[off : off + ks]
                    off += ks
        for son in cluster.sons:
            for c_son in used.get(son, ()):
                reduced.pop((son, c_son), None)
                cols.pop((son, c_son), None)
    return basis, state
