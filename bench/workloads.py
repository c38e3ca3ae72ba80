"""Workloads of the spheremesh benchmark: seeded inputs, set-up, timed
passes, output checks and the metrics they yield.

A pass is one unit of a workload's work: one cloud through the whole
pipeline (``param_large``, ``param_batch``) or one remesh of the prepared
map (``remesh``).  A cycle runs every pass of the workload once; a run
repeats cycles until ``--seconds`` is used up (at least one).  An
operation is one cloud through the pipeline or one remesh call; it fails
when the library raises or when its output fails a check, and each
failure is recorded with its stage.
"""

import os
import platform
import resource
import shutil
import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from spheremesh import (
    PipelineError,
    icosphere,
    cube_sphere,
    induce_mesh,
    multilevel,
    parameterize,
    quad_mesh,
    quality_report,
    read_cloud,
    sphere_triangulation,
    write_cloud,
    write_mesh,
)
from spheremesh.synth import add_noise, blob_cloud, ellipsoid_cloud, punch_holes

import hostclock
import tracing

WORK = Path(__file__).resolve().parent / "_work"
INTERP_TOL = 1e-9  # largest allowed interpolation gap, relative to the cloud radius
BASE_SUBDIVISIONS = 3  # multilevel's default icosphere base (642 vertices)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads (FULL is the benchmark, SMOKE the
    smoke test of the benchmark's own code)."""

    large_n: int = 20000
    batch_n: int = 1500
    per_family: int = 4
    holes: int = 10
    noise: float = 0.01
    remesh_n: int = 5000
    levels: int = 3
    quad_resolution: int = 32
    check_samples: int = 256
    # set-up repeats at least this often and until this much time has
    # passed, so that a set-up of a few milliseconds still gives a
    # steady median
    setup_repeats: int = 3
    setup_seconds: float = 1.0


FULL = Sizes()
SMOKE = Sizes(
    large_n=500, batch_n=500, per_family=1, remesh_n=500, levels=1,
    quad_resolution=4, check_samples=32, setup_repeats=1, setup_seconds=0.0,
)


# ---------------------------------------------------------------- inputs


def large_inputs(seed, sizes):
    n = sizes.large_n
    return [(f"blob_cloud({n}, seed={seed})", partial(blob_cloud, n, seed))]


def batch_inputs(seed, sizes):
    """Three families of small clouds: plain blobs, ellipsoids with long
    axis 2, 4, 6, 8, and blobs with holes and noise.  Member j of each
    family uses cloud seed 2 (j + 1) + 8 seed; holes and noise use seed."""
    n, holes, noise = sizes.batch_n, sizes.holes, sizes.noise
    out = []
    for j in range(sizes.per_family):
        s = 2 * (j + 1) + 8 * seed
        axis = 2 * (j + 1)

        def holed(s=s):
            cloud = punch_holes(blob_cloud(n, s), holes, seed=seed)
            return add_noise(cloud, noise, seed=seed)

        out += [
            (f"blob_cloud({n}, seed={s})", partial(blob_cloud, n, s)),
            (
                f"ellipsoid_cloud({n}, ({axis}, 1, 1), seed={s})",
                partial(ellipsoid_cloud, n, (axis, 1, 1), s),
            ),
            (
                f"add_noise(punch_holes(blob_cloud({n}, seed={s}), {holes}, "
                f"seed={seed}), {noise}, seed={seed})",
                holed,
            ),
        ]
    return out


# ------------------------------------------------------------ outcomes


@dataclass
class Outcome:
    """What one operation did in one pass."""

    op: int
    label: str
    stage: str = None  # failing stage, None when the operation succeeded
    error: str = None
    outputs: tuple = None  # kept for the checks; dropped after the first cycle
    quality: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return self.stage is None

    def signature(self):
        """Deterministic summary compared across cycles."""
        return (self.stage, tuple(sorted(self.quality.items())))

    def fail(self, stage, exc):
        if isinstance(exc, PipelineError):
            stage = f"{stage}: {exc.stage}"
        self.stage, self.error = stage, f"{type(exc).__name__}: {exc}"

    def record(self):
        return {
            "op": self.op, "input": self.label, "ok": self.ok, "stage": self.stage,
            "error": self.error, "quality": self.quality, "warnings": self.warnings,
        }


class Stages(dict):
    """Own seconds per stage (param, mesh, remesh, io) of one pass: the
    host clock's samples that fall inside a stage are left out."""

    def __init__(self, clock=None):
        super().__init__()
        self.clock = clock

    def _spent(self):
        return self.clock.spent if self.clock is not None else 0.0

    @contextmanager
    def timed(self, key):
        start, spent = time.perf_counter(), self._spent()
        try:
            yield
        finally:
            own = time.perf_counter() - start - (self._spent() - spent)
            self[key] = self.get(key, 0.0) + own


def _bytes_written(tracer, path):
    tracer.count("fileio.bytes_written", os.path.getsize(path))


def _map_quality(report):
    return {"mean_abs_delta_deg": report.mean_abs_delta, "delaunay_ratio": report.delaunay_ratio}


# ------------------------------------------------- param_large / param_batch


def map_pass(op, label, xyz, obj, tracer, stages):
    """One cloud through read, parameterize, mesh + quality, write."""
    out = Outcome(op, label)
    tracer.op = op
    stage = "read"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with stages.timed("io"), tracer.span("fileio.read"):
                cloud = read_cloud(xyz)
            stage = "parameterize"
            with stages.timed("param"), tracer.span("op.parameterize"):
                smap = parameterize(cloud)
            with stages.timed("mesh"):
                stage = "induce_mesh"
                with tracer.span("op.induce_mesh"):
                    induced = induce_mesh(cloud, smap)
                stage = "sphere_triangulation"
                with tracer.span("op.sphere_triangulation"):
                    sphere = sphere_triangulation(smap)
                stage = "quality_report"
                with tracer.span("op.quality_report"):
                    report = quality_report(induced, sphere)
            stage = "write"
            with stages.timed("io"), tracer.span("fileio.write"):
                write_mesh(induced, obj)
            _bytes_written(tracer, obj)
        except Exception as exc:  # every failure is counted, with its stage
            out.fail(stage, exc)
        else:
            out.outputs = (cloud, induced)
            out.quality = _map_quality(report)
    out.warnings = sorted({str(w.message) for w in caught})
    return [out]


def folded_faces(cloud, mesh):
    """Induced faces whose normal points toward the cloud centroid.  The
    inputs are star-shaped about it, so an unfolded map of a clean cloud
    gives none; noise can flip a few small faces."""
    v = mesh.vertices[mesh.faces]
    normal = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    outward = v.mean(axis=1) - cloud.centroid()
    return int(np.count_nonzero(np.einsum("ij,ij->i", normal, outward) < 0))


def check_map(out):
    cloud, induced = out.outputs
    induced.validate_closed_genus0()
    out.quality["folded_faces"] = folded_faces(cloud, induced)


def prepare_param(inputs, work):
    """Write every input cloud as XYZ; the passes read them back."""
    passes = []
    for op, (label, make) in enumerate(inputs):
        xyz = work / f"cloud{op}.xyz"
        write_cloud(make().points, xyz)
        passes.append(partial(map_pass, op, label, xyz, work / f"mesh{op}.obj"))
    return passes, [], {}


# --------------------------------------------------------------- remesh


def build_map(seed, sizes):
    """Map of the first cloud in blob_cloud(n, seed), blob_cloud(n, seed +
    1000), ... that parameterizes.  Rejected inputs are returned, so a
    set-up that had to skip one shows it."""
    rejected = []
    for k in range(10):
        s = seed + 1000 * k
        label = f"blob_cloud({sizes.remesh_n}, seed={s})"
        cloud = blob_cloud(sizes.remesh_n, s)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                smap = parameterize(cloud)
                report = quality_report(induce_mesh(cloud, smap), sphere_triangulation(smap))
        except Exception as exc:  # recorded; the next derived seed is tried
            rejected.append({"input": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        return smap, label, report, rejected
    raise RuntimeError(f"no remesh input mapped: {rejected}")


def remesh_pass(smap, sizes, work, tracer, stages):
    """multilevel and quad_mesh of the prepared map, every mesh written."""
    results = []
    calls = (
        ("multilevel", lambda: multilevel(smap, sizes.levels)),
        ("quad_mesh", lambda: [quad_mesh(smap, sizes.quad_resolution)]),
    )
    for op, (name, call) in enumerate(calls):
        out = Outcome(op, f"{name} of the prepared map")
        tracer.op = op
        stage = name
        try:
            with stages.timed("remesh"), tracer.span(f"op.{name}"):
                meshes = call()
            stage = "write"
            for i, mesh in enumerate(meshes):
                path = work / f"{name}{i}.obj"
                with stages.timed("io"), tracer.span("fileio.write"):
                    write_mesh(mesh, path)
                _bytes_written(tracer, path)
        except Exception as exc:  # every failure is counted, with its stage
            out.fail(stage, exc)
        else:
            out.outputs = meshes
            out.quality = {"vertex_sum": float(sum(m.vertices.sum() for m in meshes))}
        results.append(out)
    return results


def brute_force_positions(smap, directions):
    """Cloud positions of sphere directions by testing every face of the
    map's triangulation: with s = w_a a + w_b b + w_c c the central ray
    meets face (a, b, c) at barycentric weights w / sum(w), inside when
    all are nonnegative."""
    faces = sphere_triangulation(smap).faces
    inverse = np.linalg.inv(np.transpose(smap.images[faces], (0, 2, 1)))
    cloud = smap.cloud.points
    out = np.empty((len(directions), 3))
    for start in range(0, len(directions), 16):
        s = directions[start:start + 16]
        w = np.einsum("fij,mj->mfi", inverse, s)
        total = w.sum(axis=2)
        bary = w / np.where(total > 0, total, 1.0)[..., None]
        score = np.where(total > 0, bary.min(axis=2), -np.inf)
        best = np.argmax(score, axis=1)
        rows = np.arange(len(s))
        out[start:start + 16] = np.einsum(
            "mi,mij->mj", bary[rows, best], cloud[faces[best]]
        )
    return out


def interp_gap(smap, directions, positions, rng, count):
    """Largest gap between library and brute-force positions over a
    seeded subsample, relative to the cloud's bounding radius."""
    pick = np.sort(rng.choice(len(directions), size=min(count, len(directions)), replace=False))
    d = directions[pick] / np.linalg.norm(directions[pick], axis=1, keepdims=True)
    gap = np.abs(brute_force_positions(smap, d) - positions[pick]).max()
    return float(gap / smap.cloud.bounding_radius())


def check_remesh(out, smap, sizes, rng):
    """Vertex counts of the icosphere sequence or of 6 r^2 + 2, and the
    interpolation gap of every output mesh."""
    meshes = out.outputs
    if out.op == 0:
        if len(meshes) != sizes.levels + 1:
            raise AssertionError(f"{len(meshes)} levels, expected {sizes.levels + 1}")
        templates = [icosphere(BASE_SUBDIVISIONS + level) for level in range(sizes.levels + 1)]
    else:
        templates = [cube_sphere(sizes.quad_resolution)]
        r = sizes.quad_resolution
        if meshes[0].n_vertices != 6 * r * r + 2:
            raise AssertionError(f"quad mesh has {meshes[0].n_vertices} vertices, expected {6 * r * r + 2}")
    gaps = []
    for level, (mesh, template) in enumerate(zip(meshes, templates)):
        if out.op == 0:
            expected = 10 * 4 ** (BASE_SUBDIVISIONS + level) + 2
            if mesh.n_vertices != expected:
                raise AssertionError(f"level {level} has {mesh.n_vertices} vertices, expected {expected}")
        if not np.array_equal(mesh.faces, template.faces):
            raise AssertionError(f"mesh {level} does not keep its template's faces")
        gaps.append(interp_gap(smap, template.vertices, mesh.vertices, rng, sizes.check_samples))
    out.quality["interp_err"] = max(gaps)
    if max(gaps) > INTERP_TOL:
        raise AssertionError(f"interpolation gap {max(gaps):.3g} exceeds {INTERP_TOL:g}")


# ---------------------------------------------------------------- runs


def environment(root):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": git_commit(root),
    }


def git_commit(root):
    """Commit of a git checkout read from .git, or None outside one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Cycle:
    timings: list  # hostclock.Timing per pass
    stages: list  # Stages per pass
    outcomes: list
    tracer: object = None

    @property
    def walls(self):
        return [t.wall for t in self.timings]


@contextmanager
def unsampled():
    """Times a traced pass without host-clock samples, which would land
    inside the spans."""
    timing = hostclock.Timing()
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.wall = timing.own = time.perf_counter() - start


def run_cycle(passes, tracer, clock):
    """Every pass once: untraced passes are timed on the host clock."""
    timings, stages, outcomes = [], [], []
    null = tracing.NullTracer()
    for one in passes:
        st = Stages(clock if tracer is None else None)
        with clock.measure() if tracer is None else unsampled() as timing:
            outcomes += one(tracer or null, st)
        timings.append(timing)
        stages.append(st)
    return Cycle(timings, stages, outcomes, tracer)


def measure(passes, seconds, trace, clock):
    """Cycles until ``seconds`` have passed; with tracing, each round is
    an untraced cycle followed by a traced one.  Also returns the peak
    RSS in MB after set-up and the first cycle, which does not depend on
    how many cycles fit."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(passes, None, clock))
        if len(cycles) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                cycles.append(run_cycle(passes, tracer, clock))
        for c in cycles[1:]:  # only the first cycle's outputs are checked
            for o in c.outcomes:
                o.outputs = None
    return cycles, peak_rss_mb


def prepare(workload, seed, sizes, work):
    """Set-up: inputs on disk or the map to remesh.  Returns the passes,
    the set-up's own outcomes and the set-up details."""
    if workload == "param_large":
        return prepare_param(large_inputs(seed, sizes), work)
    if workload == "param_batch":
        return prepare_param(batch_inputs(seed, sizes), work)
    if workload != "remesh":
        raise ValueError(f"unknown workload {workload!r}")
    smap, label, report, rejected = build_map(seed, sizes)
    passes = [partial(remesh_pass, smap, sizes, work)]
    source = Outcome(-1, label, quality=_map_quality(report))
    return passes, [source], {"map": smap, "rejected_maps": rejected}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def run_metrics(cycles, first, maps_in_setup, setups, peak_rss_mb):
    """Every metric of the run by name, as (value, unit).  Times are
    medians over the passes of the untraced cycles, corrected for host
    speed (see hostclock.py) except the raw ``wall_s`` and
    ``setup.wall_s``."""
    passes = [
        (timing, st)
        for c in cycles if c.tracer is None
        for timing, st in zip(c.timings, c.stages)
    ]

    def stage(key):
        return _median([st.get(key, 0.0) / t.slowdown for t, st in passes])

    maps = [o.quality for o in maps_in_setup or first if o.ok and "delaunay_ratio" in o.quality]
    delta = [q["mean_abs_delta_deg"] for q in maps]
    ratio = [q["delaunay_ratio"] for q in maps]
    return {
        "pass_s": (_median([t.corrected for t, _ in passes]), "s"),
        "wall_s": (_median([t.wall for t, _ in passes]), "s"),
        "host.slowdown": (_median([t.slowdown for t, _ in passes]), "ratio"),
        "param_s": (stage("param"), "s"),
        "mesh_s": (stage("mesh"), "s"),
        "remesh_s": (stage("remesh"), "s"),
        "setup_s": (_median([t.corrected for t in setups]), "s"),
        "setup.wall_s": (_median([t.wall for t in setups]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (sum(not o.ok for o in first) / len(first), "ratio"),
        "mean_abs_delta_deg": (_median(delta), "deg"),
        "max_mean_abs_delta_deg": (max(delta, default=0.0), "deg"),
        "min_delaunay_ratio": (min(ratio, default=0.0), "ratio"),
        "delaunay_ratio": (_median(ratio), "ratio"),
        "interp_err": (max((o.quality.get("interp_err", 0.0) for o in first), default=0.0), "ratio"),
        "folded_faces": (sum(o.quality.get("folded_faces", 0) for o in first), "count"),
    }


END_TO_END = ("pass_s", "setup_s", "peak_rss_mb", "delaunay_ratio")


def per_layer(cycles, report, rejected_maps):
    """Per-layer metrics of the traced cycles (median over them), the
    stage and quality metrics that are not end-to-end, and the tracing's
    own coverage and overhead."""
    traced = [c for c in cycles if c.tracer is not None]
    untraced = [c for c in cycles if c.tracer is None]
    per_cycle = []
    for c in traced:
        own = c.tracer.self_times()
        calls = c.tracer.calls()
        values = {f"{name}.s": own.get(name, 0.0) for name in tracing.LAYERS}
        values.update({f"{name}.calls": calls.get(name, 0) for name in tracing.CALL_COUNTS})
        values.update({name: c.tracer.counts.get(name, 0) for name in tracing.COUNTERS})
        values["trace.coverage"] = sum(own.get(n, 0.0) for n in tracing.LAYERS) / sum(c.walls)
        per_cycle.append(values)
    out = {}
    for name in per_cycle[0]:
        values = [v[name] for v in per_cycle]
        if name.endswith(".s"):
            out[name] = (_median(values), "s")
        else:
            unit = "bytes" if name == "fileio.bytes_written" else "count"
            out[name] = (statistics.median_low(values), unit)
    out["trace.coverage"] = (out["trace.coverage"][0], "ratio")
    untraced_own = [sum(t.own for t in c.timings) for c in untraced]
    overhead = _median([sum(c.walls) for c in traced]) / _median(untraced_own) - 1.0
    out["trace.overhead"] = (overhead, "ratio")
    out["setup.rejected_maps"] = (len(rejected_maps), "count")
    out.update({k: v for k, v in report.items() if k not in END_TO_END})
    return out


def run(workload, seed, seconds, trace, root, sizes=FULL, work_root=WORK):
    """One benchmark run.  Returns (summary, result, cycles): result is
    the object printed as the last line, summary everything else."""
    work = work_root / workload
    clock = hostclock.HostClock()
    setups = []
    while len(setups) < sizes.setup_repeats or sum(t.wall for t in setups) < sizes.setup_seconds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        with clock.measure() as timing:
            passes, maps_in_setup, details = prepare(workload, seed, sizes, work)
        setups.append(timing)

    cycles, peak_rss_mb = measure(passes, seconds, trace, clock)

    first = cycles[0].outcomes
    problems = []
    expected = [o.signature() for o in first]
    if any([o.signature() for o in c.outcomes] != expected for c in cycles[1:]):
        problems.append("outputs differ between cycles")
    rng = np.random.default_rng(seed)
    for out in first:
        if not out.ok:
            continue
        try:
            if workload == "remesh":
                check_remesh(out, details["map"], sizes, rng)
            else:
                check_map(out)
        except Exception as exc:  # a delivered output is wrong
            out.fail("check", exc)
            problems.append(f"operation {out.op}: {out.error}")

    report = run_metrics(cycles, first, maps_in_setup, setups, peak_rss_mb)
    rejected = details.get("rejected_maps", [])
    if trace:
        metrics = per_layer(cycles, report, rejected)
    else:
        metrics = {name: report[name] for name in END_TO_END}
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": environment(root),
        "cycles": len(cycles),
        "passes_per_cycle": len(passes),
        "pass_seconds": [c.walls for c in cycles],
        "pass_own_seconds": [[t.own for t in c.timings] for c in cycles if c.tracer is None],
        "pass_kernel_ms": [[[r * 1000.0 for r in t.refs] for t in c.timings] for c in cycles if c.tracer is None],
        "setup_seconds": [t.wall for t in setups],
        "setup_kernel_ms": [[r * 1000.0 for r in t.refs] for t in setups],
        "metrics": _as_json(report),
        "operations": [o.record() for o in maps_in_setup + first],
        "rejected_maps": rejected,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": len(first),
        "failed": sum(not o.ok for o in first),
        "metrics": _as_json(metrics),
    }
    return summary, result, cycles


def _as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
