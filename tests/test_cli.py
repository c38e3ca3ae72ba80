import argparse
import json

import numpy as np
import pytest

from spheremesh import ParamConfig, parameterize
from spheremesh.cli import build_parser, main


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

    def test_ellipsoid_axes(self, tmp_path):
        out = tmp_path / "ell.xyz"
        assert run_cli(["synth", "ellipsoid", "-n", "500", "--seed", "4",
                        "--axes", "3,2,0.5", "-o", str(out)]) == 0
        pts = np.loadtxt(out)
        assert pts.shape == (500, 3)
        np.testing.assert_allclose(
            np.sum((pts / [3.0, 2.0, 0.5]) ** 2, axis=1), 1.0, atol=1e-12
        )


BAD_FLAGS = [
    pytest.param(["param", "{cloud}", "-o", "{out}", "--k", "5"], "--k", id="k"),
    pytest.param(["param", "{cloud}", "-o", "{out}", "--r-percent", "60"], "--r-percent",
                 id="r-percent"),
    pytest.param(["param", "{cloud}", "-o", "{out}", "--epsilon", "nan"], "--epsilon",
                 id="epsilon"),
    pytest.param(["param", "{cloud}", "-o", "{out}", "--max-iters", "0"], "--max-iters",
                 id="max-iters"),
    pytest.param(["synth", "ellipsoid", "--axes", "1,x,2", "-o", "{out}"], "--axes",
                 id="axes-not-numbers"),
    pytest.param(["synth", "ellipsoid", "--axes", "1,2", "-o", "{out}"], "--axes",
                 id="axes-two"),
    pytest.param(["synth", "sphere", "-n", "-5", "-o", "{out}"], "-n", id="n"),
    pytest.param(["bench-weights", "--mobius-a", "1.5", "-o", "{out}"], "--mobius-a",
                 id="mobius-a"),
    pytest.param(["synth", "sphere", "--holes", "-1", "-o", "{out}"], "--holes",
                 id="holes"),
    pytest.param(["synth", "sphere", "--noise", "-1", "-o", "{out}"], "--noise",
                 id="noise"),
    pytest.param(["bench-weights", "-n", "10", "-o", "{out}"], "-n",
                 id="bench-weights-n-below-k"),
    pytest.param(["bench-weights", "--k", "5", "-o", "{out}"], "--k",
                 id="bench-weights-k"),
    pytest.param(["metrics", "{cloud}", "--map", "{out}", "--report", "{out}",
                  "--k", "5"], "--k", id="metrics-k"),
    pytest.param(["quad", "{cloud}", "-o", "{out}", "--resolution", "0"], "--resolution",
                 id="quad-resolution"),
    pytest.param(["multilevel", "{cloud}", "-o", "{out}", "--levels", "-1"], "--levels",
                 id="multilevel-levels"),
    pytest.param(["multilevel", "{cloud}", "-o", "{out}", "--base-subdivisions", "-1"],
                 "--base-subdivisions", id="multilevel-base-subdivisions"),
    pytest.param(["synth", "blob", "-n", "100", "--seed", "-1", "-o", "{out}"], "--seed",
                 id="seed"),
    pytest.param(["bench-weights", "--seed", "-3", "-o", "{out}"], "--seed",
                 id="bench-weights-seed"),
    pytest.param(["synth", "blob", "--displacement", "nan", "-o", "{out}"],
                 "--displacement", id="displacement"),
    pytest.param(["synth", "blob", "--displacement", "1", "-o", "{out}"],
                 "--displacement", id="displacement-one"),
    pytest.param(["synth", "sphere", "--holes", "3", "--hole-radius", "nan",
                  "-o", "{out}"], "--hole-radius", id="hole-radius"),
    pytest.param(["synth", "sphere", "--holes", "3", "--hole-radius", "3.2",
                  "-o", "{out}"], "--hole-radius", id="hole-radius-past-pi"),
    pytest.param(["synth", "sphere", "--holes", "3", "--hole-radius", "4",
                  "-o", "{out}"], "--hole-radius", id="hole-radius-four"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", BAD_FLAGS)
    def test_bad_flag_value_exits_2_before_any_file(self, tmp_path, capsys, argv, flag):
        # the cloud does not exist, so reading it before the check would exit 1
        paths = dict(cloud=tmp_path / "cloud.xyz", out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            run_cli([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: argument {flag}: " in err.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    def test_every_typed_flag_has_a_bad_value_row(self):
        # path options have no type, so they need no row
        covered = {row.values[1] for row in BAD_FLAGS}
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        missing = [
            (command, action.option_strings)
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if action.type is not None and action.option_strings
            and not covered & set(action.option_strings)
        ]
        assert missing == []

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

    @pytest.mark.parametrize("command", ["param", "mesh", "quad", "multilevel"])
    def test_weight_flag_is_gone(self, command, tmp_path, capsys):
        # every map uses the paper's proposed weight; bench-weights compares
        with pytest.raises(SystemExit) as exc:
            run_cli([command, str(tmp_path / "cloud.xyz"), "-o", str(tmp_path / "out"),
                     "--weight", "proposed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --weight" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--k", "40"), ("--r-percent", "20"), ("--epsilon", "1e-3"), ("--max-iters", "4"),
    ])
    @pytest.mark.parametrize("command", ["mesh", "quad", "multilevel"])
    def test_map_setting_with_map_exits_2_before_any_file(self, command, flag, value,
                                                          tmp_path, capsys):
        # a saved map was solved with its own settings, which the flag
        # would not change
        with pytest.raises(SystemExit) as exc:
            run_cli([command, str(tmp_path / "cloud.xyz"), "-o", str(tmp_path / "out"),
                     "--map", str(tmp_path / "map.txt"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"error: argument {flag}: not allowed with argument --map")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["param", "mesh", "quad", "multilevel"])
    def test_help_shows_the_map_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for text in ("(default 25)", "(default 10.0)", "(default 0.0001)", "(default 16)"):
            assert text in out

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

    @pytest.mark.parametrize("command", ["mesh", "quad"])
    def test_unknown_mesh_format_fails_before_the_solve(
        self, command, small_sphere_file, tmp_path, capsys, monkeypatch
    ):
        import spheremesh.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("parameterize ran before the format check")

        monkeypatch.setattr(cli, "parameterize", no_solve)
        out = tmp_path / "x.stl"
        code = run_cli([command, str(small_sphere_file), "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(out) in err and "'stl'" in err
        assert not out.exists()


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
        assert "weight" not in meta
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

    @pytest.mark.parametrize("command", [
        ["mesh", "{cloud}", "-o", "{out}.obj", "--map", "{map}", "--report", "{out}.json"],
        ["mesh", "{cloud}", "-o", "{out}.obj", "--map", "{map}"],
        ["metrics", "{cloud}", "--map", "{map}", "--report", "{out}.json"],
    ], ids=["mesh-report", "mesh", "metrics"])
    def test_saved_map_builds_one_hull(self, command, small_sphere_file, tmp_path,
                                       monkeypatch):
        import spheremesh.meshing as meshing

        map_path = tmp_path / "map.txt"
        run_cli(["param", str(small_sphere_file), "-o", str(map_path)])
        calls = []
        original = meshing.convex_hull

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(meshing, "convex_hull", counting)
        paths = dict(cloud=small_sphere_file, map=map_path, out=tmp_path / "out")
        assert run_cli([arg.format(**paths) for arg in command]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [
        ["mesh"], ["quad", "--resolution", "2"], ["multilevel", "--levels", "0"],
    ], ids=["mesh", "quad", "multilevel"])
    def test_map_settings_reach_the_solve_without_map(self, command, small_sphere_file,
                                                      tmp_path, monkeypatch):
        import spheremesh.cli as cli

        configs = []

        def recording(cloud, config):
            configs.append(config)
            return parameterize(cloud, config)

        monkeypatch.setattr(cli, "parameterize", recording)
        code = run_cli([*command, str(small_sphere_file), "-o", str(tmp_path / "out.obj"),
                        "--k", "20", "--r-percent", "20", "--epsilon", "1e-3",
                        "--max-iters", "4"])
        assert code == 0
        assert configs == [ParamConfig(k=20, r_percent=20.0, epsilon=1e-3, max_ns_iters=4)]

    def test_metrics_k_is_allowed_with_map(self, small_sphere_file, tmp_path):
        # metrics has no solve: its --k sets the curvature stencil
        map_path = tmp_path / "map.txt"
        run_cli(["param", str(small_sphere_file), "-o", str(map_path)])
        rep = tmp_path / "metrics.json"
        assert run_cli(["metrics", str(small_sphere_file), "--map", str(map_path),
                        "--report", str(rep), "--k", "12"]) == 0
        assert len(json.loads(rep.read_text())["mean_curvature"]) == 700

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

    def test_multilevel_zero_levels_writes_the_base(self, small_sphere_file, tmp_path):
        prefix = tmp_path / "lvl"
        code = run_cli(["multilevel", str(small_sphere_file), "--levels", "0",
                        "--base-subdivisions", "1", "-o", str(prefix)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("lvl_*")) == ["lvl_42.obj"]

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
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            code = run_cli(["bench-weights", "-n", "600", "--seed", "0",
                            "-o", str(out)])
            assert code == 0
        table = json.loads(outs[0].read_text())
        assert "proposed" in table["errors"]
        # the table holds no timing, so a seed gives the same bytes
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_param_defaults_match_reference_setup(self, small_sphere_file,
                                                  tmp_path):
        out = tmp_path / "defaults.txt"
        code = run_cli(["param", str(small_sphere_file), "-o", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "defaults.txt.json").read_text())
        assert meta["k"] == 25
        assert meta["epsilon"] == 1e-4
        assert meta["r_percent"] == 10.0
        assert "weight" not in meta
        assert meta["max_ns_iters"] == 16


@pytest.fixture(scope="module")
def blob_and_map(tmp_path_factory):
    # the pipeline mirrors this map, and qhull lists the facets of the
    # mirrored images in an order of its own
    folder = tmp_path_factory.mktemp("blob")
    run_cli(["synth", "blob", "-n", "500", "--seed", "0", "-o", str(folder / "c.xyz")])
    run_cli(["param", str(folder / "c.xyz"), "-o", str(folder / "map.txt")])
    return folder / "c.xyz", folder / "map.txt"


@pytest.mark.parametrize("command", [
    ["mesh"], ["multilevel", "--levels", "1", "--base-subdivisions", "1"],
    ["quad", "--resolution", "4"],
], ids=["mesh", "multilevel", "quad"])
def test_saved_map_meshes_to_the_same_bytes(command, blob_and_map, tmp_path):
    cloud, map_path = blob_and_map
    written = []
    for folder, extra in (("solved", []), ("saved", ["--map", str(map_path)])):
        (tmp_path / folder).mkdir()
        out = tmp_path / folder / ("out" if command[0] == "multilevel" else "out.obj")
        assert run_cli([*command, str(cloud), "-o", str(out), *extra]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / folder).iterdir()})
    assert len(written[0]) == (2 if command[0] == "multilevel" else 1)
    assert written[0] == written[1]


def test_rejected_map_file_is_named(blob_and_map, tmp_path, capsys):
    cloud, map_path = blob_and_map
    lines = map_path.read_text().splitlines(keepends=True)
    lines[4] = "0.5 0.5 0.5\n"
    bad = tmp_path / "m.txt"
    bad.write_text("".join(lines))
    sidecar = map_path.with_name(map_path.name + ".json")
    bad.with_name(bad.name + ".json").write_bytes(sidecar.read_bytes())
    assert run_cli(["mesh", str(cloud), "--map", str(bad), "-o", str(tmp_path / "o.obj")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {bad}: points are not on the unit sphere")
