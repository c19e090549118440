"""Sphere meshes, Helmholtz layer kernels, and the dense surrogate matrix.

Walks through the geometric ingredients: the refined-octahedron sphere mesh,
point evaluations of the single- and double-layer kernels, the plane-wave
smoothed kernel, and the dense matrix every approximation is measured
against.
"""

import tempfile
from pathlib import Path

import numpy as np

from dirh2 import (
    KernelSpec,
    assemble_dense_matrix,
    build_sphere_mesh,
    directional_kernel_value,
    kernel_value,
    read_cmx,
    write_cmx,
)

print("== sphere meshes ==")
for level in range(4):
    mesh = build_sphere_mesh(level)
    print(
        f"level {level}: {mesh.n_triangles:5d} triangles, "
        f"{len(mesh.vertices):5d} vertices, "
        f"area {mesh.areas.sum():.4f} (sphere: {4 * np.pi:.4f})"
    )

print()
print("== kernel point values ==")
x, y = np.array([0.5, 0.0, 0.0]), np.zeros(3)
slp = KernelSpec("slp", 8.0)
print(f"single layer, kappa=8, r=1/2:     {kernel_value(slp, x, y):.6f}")
print(f"  (exp(4i)/(2 pi)              =  {np.exp(4j) / (2 * np.pi):.6f})")

# the plane wave travelling along x - y removes the oscillation entirely
c = np.array([1.0, 0.0, 0.0])
print(f"smoothed kernel, c aligned:       {directional_kernel_value(slp, c, x, y):.6f}")
print(f"  (1/(4 pi r), purely real     =  {1 / (2 * np.pi):.6f})")

print()
print("== dense surrogate ==")
mesh = build_sphere_mesh(2)
g = assemble_dense_matrix(mesh, slp)
print(f"n = {g.shape[0]}, complex symmetric: |G - G^T|_max = {np.abs(g - g.T).max():.2e}")

g_dlp = assemble_dense_matrix(mesh, KernelSpec("dlp", 8.0))
print(f"combined double layer diagonal = areas/2: "
      f"{np.allclose(g_dlp.diagonal(), mesh.areas / 2)}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "dense.cmx"
    write_cmx(path, g)
    back = read_cmx(path)
print(f"CMX1 roundtrip exact: {np.array_equal(back, g)}")
