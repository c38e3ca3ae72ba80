"""Spherical conformal parameterization and meshing of genus-0 point clouds."""

from .cloud import (
    FrameSet,
    PointCloud,
    SpatialIndex,
    build_frames,
    build_index,
)
from .errors import (
    CloudError,
    DegenerateNeighborhoodError,
    FileFormatError,
    IllConditionedStencilError,
    MeshError,
    PipelineError,
    SolveError,
    SphereMeshError,
)
from .laplacian import (
    SparseOperator,
    assemble_lb,
    lb_coefficients,
    mls_fit,
)
from .projections import (
    AT_INFINITY,
    inv_north,
    inv_south,
    is_infinite,
    proj_north,
    proj_south,
)
from .fileio import read_cloud, read_map, write_cloud, write_map, write_mesh
from .mesh import SurfaceMesh
from .meshing import (
    SphereInterpolator,
    convex_hull,
    cube_sphere,
    icosphere,
    induce_mesh,
    interpolate_to_cloud,
    loop_subdivide,
    multilevel,
    quad_mesh,
    sphere_triangulation,
    spherical_delaunay,
)
from .metrics import (
    QualityReport,
    angle_distortion,
    delaunay_ratio,
    mean_curvature,
    quality_report,
)
from .param import (
    ParamConfig,
    SphericalMap,
    balance,
    initial_map,
    ns_iterate,
    parameterize,
    pole_distances,
)
from .solve import ConstrainedSystem, solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
