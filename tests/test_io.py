import re
from types import SimpleNamespace

import numpy as np
import pytest

from spheremesh import (
    FileFormatError,
    SurfaceMesh,
    cube_sphere,
    icosphere,
    read_cloud,
    read_map,
    read_mesh,
    write_cloud,
    write_map,
    write_mesh,
)
from spheremesh.fileio import _BLOCK_ROWS
from spheremesh.param import ParamConfig, SphericalMap
from spheremesh.synth import sphere_cloud

TETRA = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"


class TestXyz:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n\n# more\n" + TETRA + "# trailing\n")
        cloud = read_cloud(path)
        assert cloud.n == 4

    def test_inline_comment(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0 # origin\n1 0 0\n0 1 0\n0 0 1\n")
        assert read_cloud(path).n == 4

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0\n1 0\n0 1 0\n0 0 1\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_cloud(path)

    def test_duplicate_names_both_lines(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# c\n0 0 0\n1 0 0\n0 1 0\n1 0 0\n0 0 1\n")
        with pytest.raises(FileFormatError, match="line 3 and line 5"):
            read_cloud(path)

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(FileFormatError, match="at least 4"):
            read_cloud(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        cloud = sphere_cloud(50, seed=1)
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_cloud(cloud.points, p1)
        back = read_cloud(p1)
        np.testing.assert_array_equal(back.points, cloud.points)
        write_cloud(back.points, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPly:
    def test_ascii_with_extra_properties(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment test\n"
            "element vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "end_header\n"
            "0 0 0 0 0 1\n1 0 0 0 0 1\n0 1 0 0 0 1\n0 0 1 0 0 1\n"
        )
        cloud = read_cloud(path)
        assert cloud.n == 4
        np.testing.assert_array_equal(cloud.points[1], [1, 0, 0])

    def test_binary_with_normals(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10000, 3)).astype(np.float32)
        normals = rng.normal(size=(10000, 3)).astype(np.float32)
        path = tmp_path / "c.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\n"
            "element vertex 10000\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "end_header\n"
        )
        body = np.column_stack([pts, normals]).astype("<f4").tobytes()
        path.write_bytes(header.encode() + body)
        cloud = read_cloud(path)
        assert cloud.n == 10000
        np.testing.assert_allclose(cloud.points, pts.astype(np.float64))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nnonsense here\nend_header\n")
        with pytest.raises(FileFormatError, match="line 3"):
            read_cloud(path)


class TestObj:
    def test_vertices_only_faces_warn(self, tmp_path):
        path = tmp_path / "c.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n")
        with pytest.warns(UserWarning, match="ignored 1 face"):
            cloud = read_cloud(path)
        assert cloud.n == 4

    def test_mesh_roundtrip_obj(self, tmp_path):
        mesh = icosphere(1)
        path = tmp_path / "m.obj"
        write_mesh(mesh, path)
        text = path.read_text()
        assert text.count("\nf ") + text.startswith("f ") == mesh.n_faces
        back = read_mesh(path)
        assert back.n_vertices == mesh.n_vertices
        assert back.n_faces == mesh.n_faces
        assert back.euler_characteristic() == 2
        np.testing.assert_array_equal(back.faces, mesh.faces)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)

    def test_tetrahedron_line_counts(self, tmp_path):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        path = tmp_path / "t.obj"
        write_mesh(SurfaceMesh(v, f), path)
        lines = path.read_text().strip().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 4
        assert sum(l.startswith("f ") for l in lines) == 4

    def test_quad_cube_sphere(self, tmp_path):
        mesh = cube_sphere(1)
        path = tmp_path / "q.obj"
        write_mesh(mesh, path)
        lines = path.read_text().strip().splitlines()
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(f_lines) == 6
        assert all(len(l.split()) == 5 for l in f_lines)
        back = read_mesh(path)
        assert back.arity == 4
        assert back.euler_characteristic() == 2

    def test_mesh_roundtrip_ply(self, tmp_path):
        mesh = icosphere(2)
        path = tmp_path / "m.ply"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert back.n_vertices == mesh.n_vertices
        np.testing.assert_array_equal(back.faces, mesh.faces)
        assert back.euler_characteristic() == 2


class TestMapSerialization:
    def test_roundtrip_with_metadata(self, tmp_path):
        cloud = sphere_cloud(40, seed=3)
        m = SphericalMap(
            cloud=cloud, images=cloud.points.copy(),
            history=[0.5, 0.01, 1e-5], iterations=3, converged=True,
        )
        path = tmp_path / "map.txt"
        config = ParamConfig(k=12, epsilon=2e-4)
        m.stage_seconds = {"lb assembly": 0.5}
        write_map(m, path, config=config)
        back = read_map(path, cloud)
        np.testing.assert_array_equal(back.images, m.images)
        assert back.history == m.history

        import json

        meta = json.loads((tmp_path / "map.txt.json").read_text())
        for key in ("k", "r_percent", "epsilon", "weight", "iterations",
                    "movement_history", "stage_seconds"):
            assert key in meta
        assert meta["k"] == 12
        assert meta["weight"] == "proposed"
        assert meta["stage_seconds"] == {"lb assembly": 0.5}

    def test_size_mismatch_rejected(self, tmp_path):
        cloud = sphere_cloud(40, seed=4)
        other = sphere_cloud(50, seed=5)
        m = SphericalMap(cloud, cloud.points.copy(), [], 0, True)
        path = tmp_path / "map.txt"
        write_map(m, path)
        with pytest.raises(FileFormatError, match="40"):
            read_map(path, other)


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\n"
    "property double x\nproperty double y\nproperty double z\n"
    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
)  # the vertex rows start at line 10, the face row at line 13
OBJ_BODY = "v 0 0 0\nv {}\nv 0 1 0\nf 1 2 3\n"
OBJ_FACE = OBJ_BODY.format("1 0 0").replace("f 1 2 3", "f {}")  # face at line 4
PLY_BODY = "0 0 0\n{}\n0 1 0\n{}\n"

MALFORMED = [
    pytest.param(read_mesh, "m.obj", OBJ_BODY.format("1 0 x"), "line 2: ",
                 id="obj-unparsable-coordinate"),
    pytest.param(read_mesh, "m.obj", OBJ_BODY.format("1 0"), "line 2: ",
                 id="obj-two-coordinates"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 x 0", "3 0 1 2"),
                 "line 11: ", id="ply-mesh-unparsable-vertex"),
    pytest.param(read_cloud, "m.ply", PLY_HEADER + PLY_BODY.format("1 x 0", "3 0 1 2"),
                 "line 11: ", id="ply-cloud-unparsable-vertex"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 0", "3 0 1 2"),
                 "line 11: ", id="ply-mesh-short-vertex-row"),
    pytest.param(read_mesh, "m.ply",
                 PLY_HEADER.replace("vertex 3", "vertex x") + PLY_BODY.format("1 0 0", "3 0 1 2"),
                 "line 3: ", id="ply-unparsable-element-count"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 0 0", "3 0 1"),
                 "line 13: face row lists 2 of 3 ids", id="ply-short-face-row"),
    pytest.param(read_mesh, "m.obj", OBJ_FACE.format("1 2 9"),
                 "line 4: vertex id 9 is outside [1, 4)", id="obj-face-id-too-large"),
    pytest.param(read_mesh, "m.obj", OBJ_FACE.format("0 1 2"),
                 "line 4: vertex id 0 is outside [1, 4)", id="obj-face-zero-based"),
    pytest.param(read_mesh, "m.obj", OBJ_FACE.format("1 2"),
                 "line 4: face has 2 vertex ids", id="obj-two-id-face"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 0 0", "3 0 1 7"),
                 "line 13: vertex id 7 is outside [0, 3)", id="ply-face-id-too-large"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 0 0", "3 0 1 -1"),
                 "line 13: vertex id -1 is outside [0, 3)", id="ply-face-id-negative"),
    pytest.param(read_mesh, "m.ply", PLY_HEADER + PLY_BODY.format("1 0 0", "2 0 1"),
                 "line 13: face has 2 vertex ids", id="ply-two-id-face"),
]


@pytest.mark.parametrize("reader, name, text, message", MALFORMED)
def test_malformed_row_names_the_line(tmp_path, reader, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        reader(path)


def _line(values):
    return " ".join(["%.17g" % v for v in values]) + "\n"


def _table(n, seed=0):
    """n rows of xyz values that stress %.17g: signed zeros, tiny and huge
    magnitudes, integral values and random doubles."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    specials = np.array([-0.0, 0.0, 1.0, -2.0, 5e-324, 1.7976931348623157e308, 0.1])
    pts.ravel()[: min(pts.size, specials.size)] = specials[: pts.size]
    return pts


def _faces(n, arity, seed=0):
    return np.random.default_rng(seed).integers(0, max(n, 1), size=(n, arity))


ROW_COUNTS = [0, 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1]


class TestBlockWriters:
    """Each writer gives the bytes of a per-row formatter at row counts
    that leave a block empty, partial, exactly full, and spilling over."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_xyz(self, tmp_path, n):
        pts = _table(n)
        write_cloud(pts, tmp_path / "c.xyz")
        expected = "".join(_line(p) for p in pts)
        assert (tmp_path / "c.xyz").read_text() == expected

    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_obj(self, tmp_path, n, arity):
        mesh = SurfaceMesh(_table(n), _faces(n, arity))
        write_mesh(mesh, tmp_path / "m.obj")
        expected = "".join("v " + _line(v) for v in mesh.vertices) + "".join(
            "f " + " ".join(str(i + 1) for i in f) + "\n" for f in mesh.faces
        )
        assert (tmp_path / "m.obj").read_text() == expected

    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_ply(self, tmp_path, n, arity):
        mesh = SurfaceMesh(_table(n), _faces(n, arity))
        write_mesh(mesh, tmp_path / "m.ply")
        expected = (
            "ply\nformat ascii 1.0\n"
            f"element vertex {n}\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"element face {n}\n"
            "property list uchar int vertex_indices\nend_header\n"
            + "".join(_line(v) for v in mesh.vertices)
            + "".join(
                f"{len(f)} " + " ".join(str(i) for i in f) + "\n" for f in mesh.faces
            )
        )
        assert (tmp_path / "m.ply").read_text() == expected

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_map_table(self, tmp_path, n):
        images = _table(n)
        smap = SimpleNamespace(
            images=images, n=n, iterations=0, converged=True, history=[],
            stage_seconds=None,
        )
        write_map(smap, tmp_path / "map.txt")
        expected = "".join(f"{i} " + _line(p) for i, p in enumerate(images))
        assert (tmp_path / "map.txt").read_text() == expected


class TestReadMapValidation:
    @pytest.fixture
    def written(self, tmp_path):
        cloud = sphere_cloud(10, seed=6)
        m = SphericalMap(cloud, cloud.points.copy(), [], 0, True)
        path = tmp_path / "map.txt"
        write_map(m, path)
        return cloud, path, path.read_text().splitlines(keepends=True)

    def test_repeated_id_rejected(self, written):
        cloud, path, lines = written
        lines[7] = "2" + lines[7][1:]
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match="line 8: id 2 repeats line 3"):
            read_map(path, cloud)

    def test_id_past_the_end_rejected(self, written):
        cloud, path, lines = written
        lines[9] = "10" + lines[9][1:]
        path.write_text("".join(lines))
        outside = r"line 10: id 10 is outside \[0, 10\)"
        with pytest.raises(FileFormatError, match=outside):
            read_map(path, cloud)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coordinate_rejected(self, written, bad):
        cloud, path, lines = written
        lines[4] = "4 0 " + bad + " 1\n"
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match="line 5: non-finite image"):
            read_map(path, cloud)
