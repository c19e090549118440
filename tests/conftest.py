import numpy as np

from dirh2.blocktree import build_block_tree
from dirh2.clustering import build_cluster_tree, level_diameter
from dirh2.directions import build_directions
from dirh2.geometry import build_sphere_mesh

ETA1, ETA2 = 20.0, 5.0


def sphere_system(level, kappa, leaf_size=16, parabolic=True):
    """Mesh, cluster tree, directions and block tree for the sphere setups."""
    mesh = build_sphere_mesh(level)
    tree = build_cluster_tree(mesh.midpoints, leaf_size)
    deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
    dirs = build_directions(deltas, kappa, ETA1)
    bt = build_block_tree(tree, dirs, kappa, ETA1, ETA2, parabolic=parabolic)
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


def dense_accessor(dense):
    return lambda rows, cols: dense[np.ix_(rows, cols)]


def reference_apply(out, inp, phase, hermitian=False):
    """The grouped apply as it was before phase plans: per stack one batched
    product, summed into ``out`` by ``np.add.at`` in slot and entry order."""
    r0 = c0 = 0
    for stack in phase.stacks:
        g, r, c = stack.shape
        rows = phase.rows.index[r0 : r0 + g * r].reshape(g, r)
        cols = phase.cols.index[c0 : c0 + g * c].reshape(g, c)
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


def check_rounds(phase):
    """On each side of ``phase`` the rounds hold every product position once,
    no round repeats an entry, and each entry takes its positions in phase
    order."""
    for side in (phase.rows, phase.cols):
        p = len(side.index)
        order = np.arange(p) if side.order is None else side.order
        assert np.array_equal(np.sort(order), np.arange(p))
        assert side.ends == sorted(set(side.ends)) and side.ends[-1:] == ([p] if p else [])
        for positions in np.split(order, side.ends[:-1]):
            assert len(np.unique(side.index[positions])) == len(positions)
        entries = side.index[order]
        by_entry = np.argsort(entries, kind="stable")
        same = entries[by_entry][1:] == entries[by_entry][:-1]
        assert (order[by_entry][1:][same] > order[by_entry][:-1][same]).all()
