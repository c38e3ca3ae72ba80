"""Command-line interface.

Subcommands: synth (seeded test clouds), param (spherical
parameterization), mesh (induced triangulation + quality report), quad,
multilevel, metrics, bench-weights.  numpy loads with the package, so
only OPENBLAS_NUM_THREADS or OMP_NUM_THREADS set before the process
starts cap its BLAS thread pools.
"""

import argparse
import json
import sys
import time

from . import fileio, synth
from .errors import PipelineError, SphereMeshError
from .experiment import run_disk_experiment
from .mesh import SurfaceMesh
from .meshing import induce_mesh, multilevel, quad_mesh, sphere_triangulation
from .metrics import mean_curvature, quality_report
from .param import ParamConfig, parameterize
from .weights import Weight

WEIGHT_CHOICES = (
    "proposed", "special", "exponential", "gaussian", "wendland",
    "inverse-square", "constant",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spheremesh",
        description="Spherical conformal parameterization and meshing of "
        "genus-0 point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ParamConfig()

    def add_param_flags(p):
        p.add_argument("--k", type=int, default=defaults.k,
                       help="neighborhood size (default %(default)s)")
        p.add_argument("--r-percent", type=float, default=defaults.r_percent,
                       help="pinned outermost percentage (default %(default)s)")
        p.add_argument("--epsilon", type=float, default=defaults.epsilon,
                       help="N-S stopping threshold (default %(default)s)")
        p.add_argument("--weight", choices=WEIGHT_CHOICES,
                       default=defaults.weight.kind)
        p.add_argument("--max-iters", type=int, default=defaults.max_ns_iters,
                       help="N-S iteration cap (default %(default)s)")

    p = sub.add_parser("synth", help="generate a seeded synthetic cloud")
    p.add_argument("kind", choices=("sphere", "ellipsoid", "blob"))
    p.add_argument("-n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--axes", default="2,1,1",
                   help="ellipsoid semi-axes a,b,c (default 2,1,1)")
    p.add_argument("--displacement", type=float, default=0.3,
                   help="blob peak radial displacement (default 0.3)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="uniform noise amplitude relative to bounding radius")
    p.add_argument("--holes", type=int, default=0,
                   help="punch this many disk holes (topological noise)")
    p.add_argument("--hole-radius", type=float, default=0.15)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("param", help="compute a spherical parameterization")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True,
                   help="map table path (JSON metadata at <output>.json)")
    add_param_flags(p)

    p = sub.add_parser("mesh", help="triangulate a cloud via parameterization")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="OBJ or PLY path")
    p.add_argument("--report", help="write a quality-report JSON here")
    p.add_argument("--map", dest="map_path",
                   help="reuse a saved parameterization instead of solving")
    add_param_flags(p)

    p = sub.add_parser("quad", help="quad-mesh a cloud via parameterization")
    p.add_argument("input")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", dest="map_path")
    add_param_flags(p)

    p = sub.add_parser("multilevel", help="multilevel representations")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--base-subdivisions", type=int, default=3)
    p.add_argument("-o", "--output", required=True,
                   help="prefix; writes <prefix>_<nverts>.obj per level")
    p.add_argument("--map", dest="map_path")
    add_param_flags(p)

    p = sub.add_parser("metrics", help="quality report for a saved map")
    p.add_argument("input")
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--k", type=int, default=defaults.k)

    p = sub.add_parser("bench-weights", help="disk conformal-recovery table")
    p.add_argument("-n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mobius-a", type=float, default=0.3)
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("-o", "--output", help="write the error table JSON here")
    return parser


def _config_from(args):
    return ParamConfig(
        k=args.k,
        r_percent=args.r_percent,
        epsilon=args.epsilon,
        max_ns_iters=args.max_iters,
        weight=Weight(args.weight),
    )


def _load_or_compute_map(args):
    cloud = fileio.read_cloud(args.input)
    if getattr(args, "map_path", None):
        return cloud, fileio.read_map(args.map_path, cloud)
    return cloud, parameterize(cloud, _config_from(args))


def _write_report(report, path):
    """Write a quality report as JSON and print its summary line."""
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"mean |delta| {report.mean_abs_delta:.4f} deg, "
        f"Delaunay ratio {report.delaunay_ratio:.4f}"
    )


def cmd_synth(args):
    if args.kind == "sphere":
        cloud = synth.sphere_cloud(args.n, seed=args.seed)
    elif args.kind == "ellipsoid":
        axes = tuple(float(v) for v in args.axes.split(","))
        cloud = synth.ellipsoid_cloud(args.n, axes=axes, seed=args.seed)
    else:
        cloud = synth.blob_cloud(
            args.n, seed=args.seed, max_displacement=args.displacement
        )
    if args.holes:
        cloud = synth.punch_holes(
            cloud, args.holes, args.hole_radius, seed=args.seed + 1
        )
    if args.noise:
        cloud = synth.add_noise(cloud, args.noise, seed=args.seed + 2)
    fileio.write_cloud(cloud.points, args.output)
    print(f"wrote {cloud.n} points to {args.output}")
    return 0


def cmd_param(args):
    cloud = fileio.read_cloud(args.input)
    config = _config_from(args)
    sphere_map = parameterize(cloud, config)
    fileio.write_map(sphere_map, args.output, config=config)
    print(
        f"parameterized {cloud.n} points in {sphere_map.iterations} N-S "
        f"iterations (converged={sphere_map.converged}); wrote {args.output}"
    )
    return 0


def cmd_mesh(args):
    cloud, sphere_map = _load_or_compute_map(args)
    mesh = induce_mesh(cloud, sphere_map)
    fileio.write_mesh(mesh, args.output)
    print(f"wrote {mesh.n_faces} triangles to {args.output}")
    if args.report:
        sphere_mesh = sphere_triangulation(sphere_map)
        _write_report(quality_report(mesh, sphere_mesh), args.report)
    return 0


def cmd_quad(args):
    cloud, sphere_map = _load_or_compute_map(args)
    mesh = quad_mesh(sphere_map, args.resolution)
    fileio.write_mesh(mesh, args.output)
    print(f"wrote {mesh.n_faces} quads to {args.output}")
    return 0


def cmd_multilevel(args):
    cloud, sphere_map = _load_or_compute_map(args)
    meshes = multilevel(sphere_map, args.levels, args.base_subdivisions)
    for mesh in meshes:
        path = f"{args.output}_{mesh.n_vertices}.obj"
        fileio.write_mesh(mesh, path)
        print(f"wrote level with {mesh.n_vertices} vertices to {path}")
    return 0


def cmd_metrics(args):
    cloud = fileio.read_cloud(args.input)
    sphere_map = fileio.read_map(args.map_path, cloud)
    sphere_mesh = sphere_triangulation(sphere_map)
    source_mesh = SurfaceMesh(cloud.points, sphere_mesh.faces)
    curvature = mean_curvature(cloud, k=args.k)
    report = quality_report(source_mesh, sphere_mesh, curvature=curvature)
    _write_report(report, args.report)
    return 0


def cmd_bench_weights(args):
    result = run_disk_experiment(
        n=args.n, a=args.mobius_a, seed=args.seed, k=args.k
    )
    print(f"{'weight':<14} {'mean error':>12} {'max error':>12}")
    for e in result.errors:
        print(f"{e.weight:<14} {e.mean_error:>12.3e} {e.max_error:>12.3e}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "param": cmd_param,
    "mesh": cmd_mesh,
    "quad": cmd_quad,
    "multilevel": cmd_multilevel,
    "metrics": cmd_metrics,
    "bench-weights": cmd_bench_weights,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.time()
    try:
        code = COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error in pipeline {exc}", file=sys.stderr)
        return 1
    except SphereMeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"done in {time.time() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
