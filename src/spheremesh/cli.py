"""Command-line interface.

Subcommands: synth (seeded test clouds), param (spherical
parameterization), mesh (induced triangulation + quality report), quad,
multilevel, metrics, bench-weights.  numpy loads with the package, so
only OPENBLAS_NUM_THREADS or OMP_NUM_THREADS set before the process
starts cap its BLAS thread pools.
"""

import argparse
import json
import math
import sys
import time

from . import fileio, synth
from .errors import SphereMeshError
from .experiment import run_disk_experiment
from .meshing import induce_mesh, multilevel, quad_mesh, sphere_triangulation
from .metrics import mean_curvature, quality_report
from .param import ParamConfig, parameterize

PARAM_FLAGS = {"k": "--k", "r_percent": "--r-percent", "epsilon": "--epsilon",
               "max_ns_iters": "--max-iters"}  # ParamConfig field -> flag


def _checked(convert, ok, expected):
    """An argparse type: ``convert(text)``, which must satisfy ``ok``."""
    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


POINT_COUNT = _checked(int, lambda n: n >= 4, "an integer of at least 4")
COUNT = _checked(int, lambda n: n >= 0, "a non-negative integer")
POSITIVE = _checked(int, lambda n: n >= 1, "a positive integer")
AMPLITUDE = _checked(float, lambda x: 0 <= x < math.inf, "a non-negative number")
DISPLACEMENT = _checked(float, lambda x: 0 <= x < 1, "a number in [0, 1)")
ANGLE = _checked(float, lambda x: 0 <= x < math.pi, "an angle in [0, pi)")
SEMI_AXES = _checked(
    lambda text: tuple(float(v) for v in text.split(",")),
    lambda axes: len(axes) == 3 and all(0 < a < math.inf for a in axes),
    "three positive semi-axes a,b,c",
)
MOBIUS_A = _checked(float, lambda a: -1 < a < 1, "a number in (-1, 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spheremesh",
        description="Spherical conformal parameterization and meshing of "
        "genus-0 point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ParamConfig()

    def add_param_flags(p):
        # None marks a flag not given; main fills in the ParamConfig default
        p.add_argument("--k", type=int,
                       help=f"neighborhood size (default {defaults.k})")
        p.add_argument("--r-percent", type=float,
                       help=f"pinned outermost percentage (default {defaults.r_percent})")
        p.add_argument("--epsilon", type=float,
                       help=f"N-S stopping threshold (default {defaults.epsilon})")
        p.add_argument("--max-iters", type=int, dest="max_ns_iters",
                       help=f"N-S iteration cap (default {defaults.max_ns_iters})")

    p = sub.add_parser("synth", help="generate a seeded synthetic cloud")
    p.add_argument("kind", choices=("sphere", "ellipsoid", "blob"))
    p.add_argument("-n", type=POINT_COUNT, default=5000)
    p.add_argument("--seed", type=COUNT, default=0)
    p.add_argument("--axes", type=SEMI_AXES, default=(2.0, 1.0, 1.0),
                   help="ellipsoid semi-axes a,b,c (default 2,1,1)")
    p.add_argument("--displacement", type=DISPLACEMENT, default=0.3,
                   help="blob peak radial displacement (default 0.3)")
    p.add_argument("--noise", type=AMPLITUDE, default=0.0,
                   help="uniform noise amplitude relative to bounding radius")
    p.add_argument("--holes", type=COUNT, default=0,
                   help="punch this many disk holes (topological noise)")
    p.add_argument("--hole-radius", type=ANGLE, default=0.15,
                   help="hole cap angle in radians (default 0.15)")
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
    p.add_argument("--resolution", type=POSITIVE, default=16)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--map", dest="map_path")
    add_param_flags(p)

    p = sub.add_parser("multilevel", help="multilevel representations")
    p.add_argument("input")
    p.add_argument("--levels", type=COUNT, default=4)
    p.add_argument("--base-subdivisions", type=COUNT, default=3)
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
    p.add_argument("-n", type=POINT_COUNT, default=2000)
    p.add_argument("--seed", type=COUNT, default=0)
    p.add_argument("--mobius-a", type=MOBIUS_A, default=0.3)
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("-o", "--output", help="write the error table JSON here")
    return parser


def _load_or_compute_map(args):
    cloud = fileio.read_cloud(args.input)
    if getattr(args, "map_path", None):
        return cloud, fileio.read_map(args.map_path, cloud)
    return cloud, parameterize(cloud, args.config)


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
        cloud = synth.ellipsoid_cloud(args.n, axes=args.axes, seed=args.seed)
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
    sphere_map = parameterize(cloud, args.config)
    fileio.write_map(sphere_map, args.output, config=args.config)
    print(
        f"parameterized {cloud.n} points in {sphere_map.iterations} N-S "
        f"iterations (converged={sphere_map.converged}); wrote {args.output}"
    )
    return 0


def cmd_mesh(args):
    fileio.mesh_format(args.output)  # a bad extension fails before the solve
    cloud, sphere_map = _load_or_compute_map(args)
    mesh = induce_mesh(cloud, sphere_map)
    fileio.write_mesh(mesh, args.output)
    print(f"wrote {mesh.n_faces} triangles to {args.output}")
    if args.report:
        _write_report(quality_report(mesh, sphere_triangulation(sphere_map)), args.report)
    return 0


def cmd_quad(args):
    fileio.mesh_format(args.output)
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
    report = quality_report(induce_mesh(cloud, sphere_map), sphere_triangulation(sphere_map),
                            curvature=mean_curvature(cloud, k=args.k))
    _write_report(report, args.report)
    return 0


def cmd_bench_weights(args):
    result = run_disk_experiment(
        n=args.n, a=args.mobius_a, seed=args.seed, k=args.k
    )
    print(f"{'weight':<14} {'mean error':>12} {'max error':>12}")
    for kind, e in result["errors"].items():
        print(f"{kind:<14} {e['mean']:>12.3e} {e['max']:>12.3e}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
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
    """Run one command: exit 2 for a bad flag, 1 for a bad file or a
    failed computation (a PipelineError names its stage), else 0."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # every command's ParamConfig flags (metrics and bench-weights have
    # only --k, their curvature or disk stencil) go through one
    # validator; a saved map was solved with its own settings
    flags = {f: v for f in PARAM_FLAGS if (v := getattr(args, f, None)) is not None}
    if flags and getattr(args, "map_path", None) and args.command != "metrics":
        flag = PARAM_FLAGS[next(iter(flags))]
        parser.error(f"argument {flag}: not allowed with argument --map")
    args.config = ParamConfig(**flags)
    try:
        args.config.validate()
    except ValueError as exc:  # each message starts with the field
        parser.error(f"argument {PARAM_FLAGS[str(exc).split()[0]]}: {exc}")
    if args.command == "bench-weights" and args.n < args.k:
        parser.error(f"argument -n: expected at least --k = {args.k} points, "
                     f"got {args.n}")
    start = time.time()
    try:
        code = COMMANDS[args.command](args)
    except (SphereMeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"done in {time.time() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
