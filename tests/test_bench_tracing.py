"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name; every library layer it lists must still see a call."""

import sys
from pathlib import Path

import numpy as np

from spheremesh import (
    induce_mesh,
    multilevel,
    parameterize,
    quad_mesh,
    quality_report,
    sphere_triangulation,
)
from spheremesh.synth import blob_cloud

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_tracer_sees_every_library_layer():
    cloud = blob_cloud(500, 0)
    with tracing.installed(tracing.Tracer()) as tracer:
        m = parameterize(cloud)
        quality_report(induce_mesh(cloud, m), sphere_triangulation(m))
        multilevel(m, 1)
        quad_mesh(m, 4)
    calls = tracer.calls()
    # this test writes no files, the library no longer has the
    # regular-triple search or the south correction that the bench names,
    # and parameterize no longer balances
    layers = [name for name in tracing.LAYERS if not name.startswith("fileio.")
              and name not in ("param.triple", "param.south", "param.balance")]
    assert [name for name in layers if calls[name] == 0] == []


def test_traced_multilevel_equals_untraced():
    # the tracer wraps locate as wrapper(self, samples); the walk's
    # fallback and the base level call it through that wrapper
    m = parameterize(blob_cloud(500, 0))
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = multilevel(m, 2)
    assert tracer.counts["meshing.locate.samples"] >= 642
    for got, expected in zip(traced, multilevel(m, 2), strict=True):
        np.testing.assert_array_equal(got.vertices, expected.vertices)
        np.testing.assert_array_equal(got.faces, expected.faces)
