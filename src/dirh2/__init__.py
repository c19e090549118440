"""Directional nested-basis (DH2) compression of Helmholtz kernel matrices.

Typical pipeline::

    mesh  = build_sphere_mesh(level)
    spec  = KernelSpec("slp", kappa)
    g     = assemble_dense_matrix(mesh, spec)
    tree  = build_cluster_tree(mesh.midpoints, 16)
    dirs  = build_directions([level_diameter(tree, l) for l in range(tree.depth + 1)],
                             kappa, eta1=20.0)
    bt    = build_block_tree(tree, dirs, kappa, 20.0, 5.0)
    a     = compress(lambda r, c: g[np.ix_(r, c)], tree, dirs, bt,
                     CompressionConfig(eps=1e-4))
    y     = a.matvec(x)
"""

from .assembly import assemble_dh2_by_interpolation
from .blocktree import (
    BlockTree,
    build_block_tree,
    is_admissible,
    sparsity_stats,
)
from .clustering import ClusterTree, build_cluster_tree, level_diameter
from .compression import (
    AcaMatrix,
    CompressionConfig,
    aca_approximate,
    aca_compress,
    compress,
    farfield_sets,
    used_directions,
)
from .dh2core import (
    DH2Matrix,
    DirectionalClusterBasis,
    expand_dense,
    load_dh2,
    save_dh2,
    storage_report,
)
from .directions import (
    DirectionHierarchy,
    build_directions,
    project_to_sphere,
)
from .geometry import (
    KernelSpec,
    SurfaceMesh,
    assemble_dense_matrix,
    build_sphere_mesh,
    directional_kernel_value,
    kernel_value,
)
from .linalg import (
    power_iteration_norm,
    read_cmx,
    svd,
    truncation_rank,
    write_cmx,
)

__version__ = "0.1.0"

__all__ = [
    "AcaMatrix",
    "BlockTree",
    "ClusterTree",
    "CompressionConfig",
    "DH2Matrix",
    "DirectionHierarchy",
    "DirectionalClusterBasis",
    "KernelSpec",
    "SurfaceMesh",
    "aca_approximate",
    "aca_compress",
    "assemble_dense_matrix",
    "assemble_dh2_by_interpolation",
    "build_block_tree",
    "build_cluster_tree",
    "build_directions",
    "build_sphere_mesh",
    "compress",
    "directional_kernel_value",
    "expand_dense",
    "farfield_sets",
    "is_admissible",
    "kernel_value",
    "level_diameter",
    "load_dh2",
    "power_iteration_norm",
    "project_to_sphere",
    "read_cmx",
    "save_dh2",
    "sparsity_stats",
    "storage_report",
    "svd",
    "truncation_rank",
    "used_directions",
    "write_cmx",
]
