import json

import numpy as np
import pytest

from spheremesh.cli import main


def run_cli(args):
    return main(args)


class TestSynthCommand:
    def test_seeded_runs_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        assert run_cli(["synth", "sphere", "-n", "1000", "--seed", "0",
                        "-o", str(p1)]) == 0
        assert run_cli(["synth", "sphere", "-n", "1000", "--seed", "0",
                        "-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_blob_and_holes(self, tmp_path):
        out = tmp_path / "blob.xyz"
        assert run_cli(["synth", "blob", "-n", "800", "--seed", "3",
                        "--holes", "5", "-o", str(out)]) == 0
        assert out.exists()

    def test_noise_flag(self, tmp_path):
        clean = tmp_path / "clean.xyz"
        noisy = tmp_path / "noisy.xyz"
        run_cli(["synth", "sphere", "-n", "500", "--seed", "1", "-o", str(clean)])
        run_cli(["synth", "sphere", "-n", "500", "--seed", "1",
                 "--noise", "0.03", "-o", str(noisy)])
        a = np.loadtxt(clean)
        b = np.loadtxt(noisy)
        radius = np.linalg.norm(a - a.mean(axis=0), axis=1).max()
        assert 0 < np.abs(a - b).max() <= 0.03 * radius + 1e-12


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "sphere", "--bogus", "-o", "x.xyz"])
        assert exc.value.code == 2

    def test_threads_flag_is_gone(self, small_sphere_file, tmp_path):
        # thread pools are sized when numpy loads, before any flag is read
        with pytest.raises(SystemExit) as exc:
            run_cli(["--threads", "1", "param", str(small_sphere_file),
                     "-o", str(tmp_path / "m.txt")])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2

    def test_compute_failure_exit_1(self, tmp_path, capsys):
        # a planar cloud fails in the pipeline with a stage label
        path = tmp_path / "flat.xyz"
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.normal(size=(50, 2)), np.zeros(50)])
        np.savetxt(path, pts)
        code = run_cli(["param", str(path), "-o", str(tmp_path / "m.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "input validation" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run_cli(["param", str(tmp_path / "nope.xyz"),
                        "-o", str(tmp_path / "m.txt")])
        assert code == 1


@pytest.fixture(scope="module")
def small_sphere_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clouds") / "sphere.xyz"
    run_cli(["synth", "sphere", "-n", "700", "--seed", "2", "-o", str(path)])
    return path


class TestPipelineCommands:
    def test_param_writes_map_and_metadata(self, small_sphere_file, tmp_path):
        out = tmp_path / "map.txt"
        code = run_cli(["param", str(small_sphere_file), "-o", str(out),
                        "--epsilon", "0.0001", "--k", "25"])
        assert code == 0
        meta = json.loads((tmp_path / "map.txt.json").read_text())
        assert meta["k"] == 25
        assert meta["epsilon"] == 1e-4
        assert meta["weight"] == "proposed"
        assert meta["converged"] is True
        assert len(meta["movement_history"]) == meta["iterations"]
        assert "stage_seconds" in meta
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 700

    def test_mesh_with_report(self, small_sphere_file, tmp_path):
        out = tmp_path / "out.obj"
        rep = tmp_path / "rep.json"
        code = run_cli(["mesh", str(small_sphere_file), "-o", str(out),
                        "--report", str(rep)])
        assert code == 0
        report = json.loads(rep.read_text())
        assert "mean_abs_delta" in report
        assert "delaunay_ratio" in report
        assert report["delaunay_ratio"] > 0.9

    def test_mesh_reuses_saved_map(self, small_sphere_file, tmp_path):
        map_path = tmp_path / "map.txt"
        run_cli(["param", str(small_sphere_file), "-o", str(map_path)])
        out = tmp_path / "via_map.obj"
        code = run_cli(["mesh", str(small_sphere_file), "-o", str(out),
                        "--map", str(map_path)])
        assert code == 0
        assert out.exists()

    def test_quad_command(self, small_sphere_file, tmp_path):
        out = tmp_path / "quad.obj"
        code = run_cli(["quad", str(small_sphere_file), "--resolution", "4",
                        "-o", str(out)])
        assert code == 0
        faces = [l for l in out.read_text().splitlines() if l.startswith("f ")]
        assert len(faces) == 6 * 16

    def test_multilevel_command(self, small_sphere_file, tmp_path):
        prefix = tmp_path / "lvl"
        code = run_cli(["multilevel", str(small_sphere_file), "--levels", "1",
                        "--base-subdivisions", "1", "-o", str(prefix)])
        assert code == 0
        assert (tmp_path / "lvl_42.obj").exists()
        assert (tmp_path / "lvl_162.obj").exists()

    def test_metrics_command(self, small_sphere_file, tmp_path):
        map_path = tmp_path / "map.txt"
        run_cli(["param", str(small_sphere_file), "-o", str(map_path)])
        rep = tmp_path / "metrics.json"
        code = run_cli(["metrics", str(small_sphere_file), "--map",
                        str(map_path), "--report", str(rep)])
        assert code == 0
        report = json.loads(rep.read_text())
        assert "mean_curvature" in report
        assert len(report["mean_curvature"]) == 700

    def test_bench_weights_command(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run_cli(["bench-weights", "-n", "600", "--seed", "0",
                        "-o", str(out)])
        assert code == 0
        table = json.loads(out.read_text())
        assert "proposed" in table["errors"]

    def test_param_defaults_match_reference_setup(self, small_sphere_file,
                                                  tmp_path):
        out = tmp_path / "defaults.txt"
        code = run_cli(["param", str(small_sphere_file), "-o", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "defaults.txt.json").read_text())
        assert meta["k"] == 25
        assert meta["epsilon"] == 1e-4
        assert meta["r_percent"] == 10.0
        assert meta["weight"] == "proposed"
        assert meta["max_ns_iters"] == 100
