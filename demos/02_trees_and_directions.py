"""Cluster trees, direction grids, and admissibility-driven block trees.

Shows how the index set is organized spatially, how each level gets a set
of unit directions fine enough for its box size, and how the three
admissibility conditions classify cluster pairs.
"""

import numpy as np

from dirh2 import (
    build_block_tree,
    build_cluster_tree,
    build_directions,
    build_sphere_mesh,
    is_admissible,
    level_diameter,
    sparsity_stats,
)

kappa, eta1, eta2 = 16.0, 20.0, 5.0
mesh = build_sphere_mesh(4)
tree = build_cluster_tree(mesh.midpoints, 16)

print("== cluster tree (n = 2048, leaf size 16) ==")
print(f"{len(tree)} clusters, depth {tree.depth}")
for level in range(tree.depth + 1):
    sizes = np.diff(tree.set_ptr)[tree.level == level]
    print(
        f"level {level}: {len(sizes):4d} clusters, sizes {sizes.min()}..{sizes.max()}, "
        f"largest support-box diameter {level_diameter(tree, level):.3f}"
    )

print()
print("== direction grids ==")
deltas = [level_diameter(tree, l) for l in range(tree.depth + 1)]
dirs = build_directions(deltas, kappa, eta1)
for level in range(tree.depth + 1):
    kd = kappa * deltas[level]
    note = "zero direction only" if dirs.count(level) == 1 else "cube-face grid"
    print(f"level {level}: kappa*delta = {kd:6.1f} -> {dirs.count(level):3d} directions ({note})")

print()
print("== admissibility ==")
unit = (np.zeros(3), np.ones(3))
far = (np.array([3.0, 0, 0]), np.array([4.0, 1, 1]))
print(f"touching boxes:            {is_admissible(unit, unit, kappa, eta2)}")
print(f"separated boxes, kappa=0:  {is_admissible(unit, far, 0.0, eta2)}")
print(f"separated boxes, kappa=12: {is_admissible(unit, far, 12.0, eta2)} "
      f"(the parabolic condition bites at high frequency)")

bt = build_block_tree(tree, dirs, kappa, eta1, eta2)
stats = sparsity_stats(tree, bt)
print()
print(f"block tree: {len(bt)} blocks, {len(bt.admissible_leaves)} admissible, "
      f"{len(bt.inadmissible_leaves)} nearfield")
print(f"max blocks per cluster, by level: {stats.level_max_row}")
