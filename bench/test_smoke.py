"""Smoke test of the benchmark's own code at tiny sizes (500-point clouds,
one remesh level).  It is not part of the repository's test suite; run it
with ``python3 -m pytest -q bench/test_smoke.py``."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(key):
    return {m["name"] for m in SPEC[key]}


def _run(workload, trace, work_root):
    return workloads.run(
        workload, 0, 0.01, trace, run.ROOT, sizes=workloads.SMOKE, work_root=work_root
    )


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


@pytest.fixture(scope="module")
def results(work_root):
    return {(w, t): _run(w, t, work_root) for w in run.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(results, workload, trace):
    summary, result, _ = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    # the summary line carries every metric of the run with its unit
    assert {"pass_s", "wall_s", "param_s", "mesh_s", "remesh_s", "setup_s", "peak_rss_mb",
            "failed_ratio", "mean_abs_delta_deg", "max_mean_abs_delta_deg",
            "min_delaunay_ratio", "interp_err"} <= set(summary["metrics"])


def test_remesh_bypasses_the_param_layers(results):
    metrics = results["remesh", 1][1]["metrics"]
    assert metrics["hull.calls"]["value"] == 0
    assert metrics["solve.calls"]["value"] == 0
    assert metrics["meshing.locate.samples"]["value"] > 0


def test_param_workloads_trace_every_cloud(results):
    for workload in ("param_large", "param_batch"):
        summary, result, _ = results[workload, 1]
        metrics = result["metrics"]
        assert metrics["hull.calls"]["value"] <= result["attempted"]
        assert metrics["solve.calls"]["value"] >= 4 * (result["attempted"] - result["failed"])
        assert metrics["meshing.locate.samples"]["value"] == 0
        assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0


def test_quality_repeats_at_the_same_seed(results, work_root):
    again = _run("param_batch", 0, work_root)
    keys = ("failed_ratio", "mean_abs_delta_deg", "max_mean_abs_delta_deg", "min_delaunay_ratio")
    first = results["param_batch", 0][0]["metrics"]
    assert {k: first[k] for k in keys} == {k: again[0]["metrics"][k] for k in keys}


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["op.parameterize", 0.0, 10.0, -1, 0],
        ["solve", 1.0, 4.0, 0, 0],
        ["hull", 5.0, 9.0, 0, 0],
        ["cloud.knn", 2.0, 3.0, 1, 0],
    ]
    own = tracer.self_times()
    assert own == {"op.parameterize": 3.0, "solve": 2.0, "hull": 4.0, "cloud.knn": 1.0}


def test_host_clock_leaves_its_samples_out():
    clock = hostclock.HostClock(interval=0.01)
    with clock.measure() as timing:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    # a 0.2 s block takes its samples inside, and they make up the gap
    # between its wall and own time
    assert timing.samples == len(clock.samples) >= hostclock.MIN_SAMPLES * len(hostclock.KERNELS)
    assert timing.wall - timing.own == pytest.approx(sum(took for _, took in clock.samples))
    assert timing.corrected == pytest.approx(timing.own / timing.slowdown)
    # a block shorter than one interval still gets its samples, at the end
    with clock.measure() as short:
        pass
    assert short.samples == hostclock.MIN_SAMPLES * len(hostclock.KERNELS)
    assert short.own == short.wall


def test_brute_force_locator_agrees_with_the_library(results):
    smap, _, _, _ = workloads.build_map(0, workloads.SMOKE)
    from spheremesh import icosphere, interpolate_to_cloud

    directions = icosphere(2).vertices
    expected = interpolate_to_cloud(smap, directions)
    got = workloads.brute_force_positions(smap, directions)
    assert abs(got - expected).max() <= 1e-9 * smap.cloud.bounding_radius()


def test_missing_library_fails(tmp_path):
    with pytest.raises(SystemExit):
        run.load_library(tmp_path)
