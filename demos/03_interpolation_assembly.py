"""Building the nested directional representation by kernel interpolation.

Each admissible block is approximated by sampling the plane-wave smoothed
kernel at tensor Chebyshev points; leaf bases integrate the modulated
Lagrange polynomials, and transfer matrices re-expand them across levels.
The fast matvec is then checked against the expanded dense matrix, and the
interpolation error against the true kernel matrix.
"""

import time

import numpy as np

from dirh2 import (
    KernelSpec,
    assemble_dense_matrix,
    assemble_dh2_by_interpolation,
    build_block_tree,
    build_cluster_tree,
    build_directions,
    build_sphere_mesh,
    expand_dense,
    level_diameter,
    storage_report,
)

kappa = 8.0
mesh = build_sphere_mesh(3)  # n = 512
n = mesh.n_triangles
spec = KernelSpec("slp", kappa)
tree = build_cluster_tree(mesh.midpoints, 4)
deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
# a tight plane-wave condition so the directional machinery is visibly active
dirs = build_directions(deltas, kappa, eta1=2.0)
bt = build_block_tree(tree, dirs, kappa, 2.0, 5.0)
nonzero = sum(
    1 for bid in bt.admissible_leaves
    if dirs.levels[tree[bt[bid].t].level][bt[bid].c_index].any()
)
print(f"n={n}, kappa={kappa}: {len(bt.admissible_leaves)} admissible blocks, "
      f"{nonzero} with nonzero direction")

dense = assemble_dense_matrix(mesh, spec)
for order in (2, 3):
    t0 = time.perf_counter()
    a = assemble_dh2_by_interpolation(mesh, spec, tree, dirs, bt, order)
    built = time.perf_counter() - t0
    expanded = expand_dense(a)
    rel = np.linalg.norm(expanded - dense, 2) / np.linalg.norm(dense, 2)
    rep = storage_report(a)
    print(f"order {order}: rel spectral error {rel:.2e}, "
          f"{rep.total} stored entries ({rep.mem_per_dof_kib(n):.1f} KiB/DoF), "
          f"built in {built:.2f}s")

# the fast matvec is exact with respect to the represented matrix
x = np.random.default_rng(0).standard_normal(n) + 0j
err = np.linalg.norm(a.matvec(x) - expanded @ x) / np.linalg.norm(expanded @ x)
print(f"fast matvec vs dense expansion: {err:.2e}")

# the matvec applies every stored matrix once, one batched product per stack
print(f"{a.stored_matrix_count()} stored matrices; entries per category: "
      f"leaf {rep.leaf_entries}, transfer {rep.transfer_entries}, "
      f"coupling {rep.coupling_entries}, nearfield {rep.nearfield_entries}")

# interpolation fixes one uniform rank per cluster, so it is convergent but
# storage-hungry; the algebraic compression of demo 04 is what turns the
# same structure into an economical representation

