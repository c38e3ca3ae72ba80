"""In-memory spans around the spheremesh layers, recorded from outside the
library.

``installed(tracer)`` replaces each traced function at the name its
callers bind (for example ``spheremesh.param.solve``, which
``parameterize`` calls through its module globals) by a wrapper that
opens a span, and puts the originals back on exit.  Spans stay in memory
as ``[name, start, end, parent, op]`` rows and are written out by the
caller when the run ends.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import spheremesh.meshing
import spheremesh.metrics
import spheremesh.param
from spheremesh import SpatialIndex, SphereInterpolator, SurfaceMesh

# Every span name that is a library layer.  Spans named "op.*" are the
# public calls the benchmark makes itself; they are parents only, and
# their self time is what the layers below do not cover.
LAYERS = (
    "hull",
    "solve",
    "param.triple",
    "param.initial_map",
    "param.south",
    "param.ns",
    "param.balance",
    "cloud.index",
    "cloud.knn",
    "cloud.frames",
    "laplacian.assemble",
    "meshing.interp_init",
    "meshing.locate",
    "meshing.loop_subdivide",
    "meshing.cube_sphere",
    "mesh.edge_incidence",
    "mesh.corner_angles",
    "metrics.angle_distortion",
    "metrics.delaunay_ratio",
    "fileio.read",
    "fileio.write",
)

# Layers whose number of calls is reported next to their time.
CALL_COUNTS = ("hull", "solve", "mesh.edge_incidence")

# Work counters recorded at the same boundaries as the spans.
COUNTERS = (
    "hull.points",
    "solve.unknowns",
    "param.ns.rounds",
    "laplacian.nnz",
    "meshing.locate.samples",
    "meshing.snapped",
    "meshing.loop_subdivide.faces_out",
    "fileio.bytes_written",
)


class Tracer:
    """Spans and counters of one traced cycle."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None  # id of the operation the next spans belong to
        self._open = []

    @contextmanager
    def span(self, name):
        row = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.op]
        self.spans.append(row)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            row[2] = time.perf_counter()

    def count(self, name, value):
        self.counts[name] += int(value)

    def self_times(self):
        """Seconds per span name: each span's duration minus the part
        its direct children cover (spans nest, the run is one thread)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def calls(self):
        return Counter(row[0] for row in self.spans)


class NullTracer:
    """Stands in for a tracer in untraced passes; records nothing."""

    def __init__(self):
        self.op = None
        self._context = nullcontext()

    def span(self, name):
        return self._context

    def count(self, name, value):
        pass


def _wrap(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, *args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _locate(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, samples):
        snapped = self.snapped
        tracer.count("meshing.locate.samples", len(samples))
        with tracer.span("meshing.locate"):
            result = fn(self, samples)
        tracer.count("meshing.snapped", self.snapped - snapped)
        return result

    return wrapper


def _targets(tracer):
    """(owner, attribute, wrapper) for every traced call site."""
    param = spheremesh.param
    meshing = spheremesh.meshing
    metrics = spheremesh.metrics

    def hull_points(t, points, *a, **k):
        t.count("hull.points", len(points))

    def unknowns(t, system, *a, **k):
        t.count("solve.unknowns", system.free_ids.size)

    def rounds(t, result):
        t.count("param.ns.rounds", len(result[1]))

    def nnz(t, operator):
        t.count("laplacian.nnz", operator.matrix.nnz)

    def faces_out(t, mesh):
        t.count("meshing.loop_subdivide.faces_out", mesh.n_faces)

    plain = [
        (param, "convex_hull", "hull", hull_points, None),
        (meshing, "convex_hull", "hull", hull_points, None),
        (param, "solve", "solve", unknowns, None),
        (param, "most_regular_triple", "param.triple", None, None),
        (param, "initial_map", "param.initial_map", None, None),
        (param, "south_correction", "param.south", None, None),
        (param, "ns_iterate", "param.ns", None, rounds),
        (param, "balance", "param.balance", None, None),
        (param, "build_index", "cloud.index", None, None),
        (SpatialIndex, "knn_arrays", "cloud.knn", None, None),
        (param, "build_frames", "cloud.frames", None, None),
        (param, "assemble_lb_from_frames", "laplacian.assemble", None, nnz),
        (SphereInterpolator, "__init__", "meshing.interp_init", None, None),
        (meshing, "loop_subdivide", "meshing.loop_subdivide", None, faces_out),
        (meshing, "cube_sphere", "meshing.cube_sphere", None, None),
        (SurfaceMesh, "edge_face_incidence", "mesh.edge_incidence", None, None),
        (SurfaceMesh, "corner_angles", "mesh.corner_angles", None, None),
        (metrics, "angle_distortion", "metrics.angle_distortion", None, None),
        (metrics, "delaunay_ratio", "metrics.delaunay_ratio", None, None),
    ]
    # a call site the library no longer has is skipped; its layer then
    # reads 0 and trace.coverage shows the gap
    out = [
        (owner, attr, _wrap(tracer, name, getattr(owner, attr), before, after))
        for owner, attr, name, before, after in plain
        if hasattr(owner, attr)
    ]
    if hasattr(SphereInterpolator, "locate"):
        out.append((SphereInterpolator, "locate", _locate(tracer, SphereInterpolator.locate)))
    return out


@contextmanager
def installed(tracer):
    """Route the traced library calls through ``tracer`` while inside."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(tracer):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
