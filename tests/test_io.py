import io
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from spheremesh import (
    CloudError,
    FileFormatError,
    MeshError,
    SurfaceMesh,
    convex_hull,
    icosphere,
    parameterize,
    read_cloud,
    read_map,
    spherical_delaunay,
    write_cloud,
    write_map,
    write_mesh,
)
from spheremesh import fileio
from spheremesh.fileio import _BLOCK_ROWS, _write_floats, _write_ints
from spheremesh.param import ParamConfig, SphericalMap
from spheremesh.synth import blob_cloud, sphere_cloud

TETRA = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"

# name -> (file text, FileFormatError message after the path, or None for
# a file that reads); the messages are those of the line scanner alone
XYZ_CORPUS = {
    "comments": ("# header\n\n# more\n" + TETRA + "# trailing\n", None),
    "blank-lines": ("\n\n0 0 0\n\n1 0 0\n   \n0 1 0\n\t\n0 0 1\n\n", None),
    "inline-comment": ("0 0 0 # origin\n1 0 0#x\n0 1 0\n0 0 1 # top\n", None),
    "tabs": ("0\t0\t0\n1\t0 0\n0 1\t0\n\t0 0 1\t\n", None),
    "crlf": (TETRA.replace("\n", "\r\n"), None),
    "extra-columns": ("0 0 0 1 2\n1 0 0 a\n0 1 0\n0 0 1 x y\n", None),
    "exponents": ("1e-3 -2.5E+10 .5\n1. 0 0\n0 1e0 -0\n+0 0 1E2\n", None),
    "underscores": ("1_0 0 0\n1 0 0\n0 1 0\n0 0 1\n", None),
    "nan": (TETRA.replace("1 0 0", "1 nan 0"), "non-finite coordinates at line 2"),
    "overflow": (TETRA.replace("0 1 0", "0 1e999 0"), "non-finite coordinates at line 3"),
    "short-row": ("0 0 0\n1 0\n0 1 0\n0 0 1\n", "line 2: expected 'x y z'"),
    "bad-value": ("0 0 0\n1 x 0\n0 1 0\n0 0 1\n",
                  "line 2: could not convert string to float: 'x'"),
    "duplicate": ("# c\n0 0 0\n1 0 0\n0 1 0\n1 0 0\n0 0 1\n",
                  "duplicate point at line 3 and line 5"),
    "crlf-duplicate": ("0 0 0\r\n1 0 0\r\n\r\n0 0 0\r\n0 0 1\r\n",
                       "duplicate point at line 1 and line 4"),
    "empty": ("", "needs at least 4 points, got 0"),
    "one-line": ("0 0 0\n", "needs at least 4 points, got 1"),
    "three-points": ("0 0 0\n1 0 0 # c\n0 1 0\n", "needs at least 4 points, got 3"),
}


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

    def test_successful_read_checks_duplicates_once(self, tmp_path, monkeypatch):
        import spheremesh.cloud
        import spheremesh.fileio

        calls = []
        find_duplicate = spheremesh.cloud.find_duplicate

        def counted(points):
            calls.append(len(points))
            return find_duplicate(points)

        monkeypatch.setattr(spheremesh.cloud, "find_duplicate", counted)
        monkeypatch.setattr(spheremesh.fileio, "find_duplicate", counted)
        path = tmp_path / "c.xyz"
        path.write_text(TETRA)
        assert read_cloud(path).n == 4
        assert calls == [4]

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(FileFormatError, match="at least 4"):
            read_cloud(path)

    @pytest.mark.parametrize("name", XYZ_CORPUS)
    def test_read_matches_the_scanner(self, tmp_path, monkeypatch, name):
        # one loadtxt call parses a well-formed file; anything else is
        # re-read by the line scanner, which alone reports the problem
        import spheremesh.fileio

        text, message = XYZ_CORPUS[name]
        path = tmp_path / "c.xyz"
        path.write_bytes(text.encode())
        scanned = []
        read_xyz = spheremesh.fileio._read_xyz

        def counted(p, width):
            scanned.append(p)
            return read_xyz(p, width)

        monkeypatch.setattr(spheremesh.fileio, "_read_xyz", counted)
        if message is None:
            points = read_cloud(path).points
            want = np.array(read_xyz(path, None)[0], dtype=np.float64)
            assert points.dtype == want.dtype and points.tobytes() == want.tobytes()
            assert len(scanned) == (name == "underscores")  # loadtxt rejects 1_0
        else:
            with pytest.raises(FileFormatError) as info:
                read_cloud(path)
            assert str(info.value) == f"{path}: {message}"
            assert scanned == [path]

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

    def test_binary_skips_scalar_element_before_vertices(self, tmp_path):
        pts = np.array(TETRA.split(), dtype=np.float64).reshape(4, 3)
        camera = np.array([(7.5, 200), (-1.0, 3)], dtype=[("a", "<f4"), ("b", "u1")])
        header = CLOUD_PLY.format(
            BINARY, "element camera 2\nproperty float a\nproperty uchar b\n"
        )
        path = tmp_path / "c.ply"
        path.write_bytes(header.encode() + camera.tobytes() + pts.astype("<f8").tobytes())
        np.testing.assert_array_equal(read_cloud(path).points, pts)

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

    def test_inline_comments(self, tmp_path):
        path = tmp_path / "c.obj"
        path.write_text("v 0 0 0 # origin\nv 1 0 0\nv 0 1 0\nv 0 0 1#top\nf 1 2 3 # base\n")
        with pytest.warns(UserWarning, match="ignored 1 face"):
            cloud = read_cloud(path)
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_tetrahedron_line_counts(self, tmp_path):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        path = tmp_path / "t.obj"
        write_mesh(SurfaceMesh(v, f), path)
        lines = path.read_text().strip().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 4
        assert sum(l.startswith("f ") for l in lines) == 4

    def test_unknown_format_names_the_path(self, tmp_path):
        path = tmp_path / "m.stl"
        message = re.escape(f"{path}: unknown mesh format 'stl'")
        with pytest.raises(FileFormatError, match=message):
            write_mesh(icosphere(1), path)
        assert not path.exists()


@pytest.mark.parametrize("ext", ["obj", "ply"])
def test_written_mesh_reads_back_as_its_vertices(tmp_path, ext):
    # the reader stops at the PLY vertices, before the face element, and
    # skips the OBJ f-lines with a warning
    mesh, path = icosphere(2), tmp_path / f"m.{ext}"
    write_mesh(mesh, path)
    if ext == "obj":
        with pytest.warns(UserWarning, match="ignored 320 face lines"):
            cloud = read_cloud(path)
    else:
        cloud = read_cloud(path)
    assert cloud.points.tobytes() == mesh.vertices.tobytes()


def hand_map(cloud, images=None, history=()):
    """A map of a sphere cloud built by hand: the images are the points
    unless given, the faces always those of the points."""
    return SphericalMap(
        cloud=cloud, images=cloud.points.copy() if images is None else images,
        history=list(history), converged=True,
        delaunay_faces=spherical_delaunay(cloud.points).faces,
    )


class TestMapSerialization:
    def test_roundtrip_with_metadata(self, tmp_path):
        cloud = sphere_cloud(40, seed=3)
        m = hand_map(cloud, history=[0.5, 0.01, 1e-5])
        path = tmp_path / "map.txt"
        config = ParamConfig(k=12, epsilon=2e-4)
        m.stage_seconds = {"lb assembly": 0.5}
        write_map(m, path, config=config)
        back = read_map(path, cloud)
        np.testing.assert_array_equal(back.images, m.images)
        assert back.history == m.history

        meta = json.loads((tmp_path / "map.txt.json").read_text())
        for key in ("k", "r_percent", "epsilon", "iterations",
                    "movement_history", "stage_seconds"):
            assert key in meta
        assert meta["k"] == 12
        assert "weight" not in meta
        assert meta["stage_seconds"] == {"lb assembly": 0.5}

    def test_size_mismatch_rejected(self, tmp_path):
        cloud = sphere_cloud(40, seed=4)
        other = sphere_cloud(50, seed=5)
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud), path)
        with pytest.raises(FileFormatError, match="map has 40 rows for a cloud of 50$"):
            read_map(path, other)

    def test_table_is_the_cloud_of_the_images(self, tmp_path):
        # row i is image i in the XYZ writer's bytes (TestBlockWriters),
        # so the table opens as the point cloud of the images
        cloud = sphere_cloud(40, seed=3)
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud), path)
        assert read_cloud(path).points.tobytes() == cloud.points.tobytes()
        back = read_map(path, cloud)
        assert back.images.tobytes() == cloud.points.tobytes()
        assert back.images.flags.writeable

    def test_id_table_fails_at_its_first_row(self, tmp_path):
        # a table of 'id x y z' rows, the format before maps were XYZ
        cloud = sphere_cloud(10, seed=6)
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud), path)
        path.write_text("".join(f"{i} {row}" for i, row in
                                enumerate(path.read_text().splitlines(keepends=True))))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: line 1: "
                                                  "expected 'x y z'$"):
            read_map(path, cloud)

    def test_iterations_follow_the_history(self, tmp_path):
        cloud = sphere_cloud(40, seed=3)
        m = hand_map(cloud)
        assert m.iterations == 0
        with pytest.raises(AttributeError):
            m.iterations = 3
        # a positional call cannot bind converged to an old count
        with pytest.raises(TypeError):
            SphericalMap(cloud, cloud.points.copy(), [], 3, True)
        path = tmp_path / "map.txt"
        write_map(m, path)
        meta = json.loads((tmp_path / "map.txt.json").read_text())
        assert (meta["iterations"], meta["movement_history"]) == (0, [])
        assert read_map(path, cloud).iterations == 0


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\n"
    "property double x\nproperty double y\nproperty double z\n"
    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
)  # the vertex rows start at line 10
OBJ_BODY = "v 0 0 0\nv {}\nv 0 1 0\nf 1 2 3\n"
PLY_BODY = "0 0 0\n{}\n0 1 0\n{}\n"
CLOUD_PLY = (
    "ply\nformat {}\n{}element vertex 4\n"
    "property double x\nproperty double y\nproperty double z\nend_header\n"
)  # format, then any elements before the vertices
ASCII, BINARY = "ascii 1.0", "binary_little_endian 1.0"
LIST_PROPERTY = "property list uchar int vertex_indices\n"
FACE_ELEMENT = "element face 1\n" + LIST_PROPERTY
OBJ_CLOUD = "".join(f"v {row}\n" for row in TETRA.splitlines())

MALFORMED = [
    pytest.param(read_cloud, "m.obj", OBJ_BODY.format("1 0 x"), "line 2: ",
                 id="obj-unparsable-coordinate"),
    pytest.param(read_cloud, "m.obj", OBJ_BODY.format("1 0"), "line 2: ",
                 id="obj-two-coordinates"),
    pytest.param(read_cloud, "m.ply", PLY_HEADER + PLY_BODY.format("1 x 0", "3 0 1 2"),
                 "line 11: ", id="ply-cloud-unparsable-vertex"),
    pytest.param(read_cloud, "m.ply", PLY_HEADER + PLY_BODY.format("1 0", "3 0 1 2"),
                 "line 11: ", id="ply-mesh-short-vertex-row"),
    pytest.param(read_cloud, "m.ply",
                 PLY_HEADER.replace("vertex 3", "vertex x") + PLY_BODY.format("1 0 0", "3 0 1 2"),
                 "line 3: ", id="ply-unparsable-element-count"),
    pytest.param(read_cloud, "c.ply", "plx\n" + TETRA, "not a PLY file",
                 id="ply-bad-magic"),
    pytest.param(read_cloud, "c.ply", "ply\nformat ascii 1.0\nelement vertex 4\n",
                 "line 4: header ended early", id="ply-header-ended-early"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format("binary_big_endian 1.0", ""),
                 "unsupported PLY format 'binary_big_endian'", id="ply-big-endian"),
    pytest.param(read_cloud, "c.ply", "ply\nformat ascii 1.0\nproperty float x\n",
                 "line 3: property before element", id="ply-property-before-element"),
    pytest.param(read_cloud, "c.ply", "ply\nformat ascii 1.0\nelement vertex\n",
                 "line 3: expected 'element <name> <count>'", id="ply-element-without-count"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(ASCII, "").replace("property double z\n", "")
                 + "0 0\n1 0\n0 1\n1 1\n",
                 "vertex lacks property 'z'", id="ply-vertex-without-z"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(ASCII, "").replace("vertex", "point") + TETRA,
                 "no vertex element", id="ply-no-vertex-element"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format(BINARY, FACE_ELEMENT),
                 "list-typed element 'face' precedes vertices in a binary PLY",
                 id="ply-binary-list-before-vertices"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format(BINARY, "") + "\0" * 95,
                 "binary vertex data truncated", id="ply-binary-truncated"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format(ASCII, "") + TETRA[:-6],
                 "line 11: truncated element", id="ply-ascii-truncated"),
    pytest.param(read_cloud, "c.ply", "ply\nformat\n",
                 "line 2: expected 'format <format> <version>'", id="ply-format-without-value"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format(ASCII, "").replace("double z", "double"),
                 "line 6: expected 'property <type> <name>'", id="ply-property-without-name"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(ASCII, FACE_ELEMENT.replace(" int vertex_indices", "")),
                 "line 4: expected 'property list <count type> <item type> <name>'",
                 id="ply-list-property-without-types"),
    pytest.param(read_cloud, "c.ply", CLOUD_PLY.format(BINARY, "").replace("double x", "half x"),
                 "line 4: unknown PLY type 'half'", id="ply-binary-unknown-vertex-type"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(BINARY, "element camera 1\nproperty half a\n"),
                 "line 4: unknown PLY type 'half'", id="ply-binary-unknown-skipped-type"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(ASCII, "").replace("end_header", LIST_PROPERTY + "end_header")
                 + "".join(row + " 1 7\n" for row in TETRA.splitlines()),
                 "line 7: list property in the vertex element", id="ply-ascii-vertex-list"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(BINARY, "").replace("property double x\n", LIST_PROPERTY),
                 "line 4: list property in the vertex element", id="ply-binary-vertex-list"),
    pytest.param(read_cloud, "c.xyz", TETRA.replace("1 0 0", "1 nan 0"),
                 "non-finite coordinates at line 2", id="xyz-nan"),
    pytest.param(read_cloud, "c.obj", "# c\n" + OBJ_CLOUD.replace("0 0 1", "0 0 inf"),
                 "non-finite coordinates at line 5", id="obj-inf"),
    pytest.param(read_cloud, "c.ply",
                 CLOUD_PLY.format(ASCII, "") + TETRA.replace("0 1 0", "0 -inf 0"),
                 "non-finite coordinates at vertex 2", id="ply-inf"),
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


# the writers run with blocks of _TEST_BLOCK rows, so that the row
# counts, and the test ids that carry them, do not follow _BLOCK_ROWS
_TEST_BLOCK = 4096
ROW_COUNTS = [0, 1, _TEST_BLOCK, 2 * _TEST_BLOCK + 1]


class TestBlockWriters:
    """Each writer gives the bytes of a per-row formatter at row counts
    that leave a block empty, partial, exactly full, and spilling over."""

    @pytest.fixture(autouse=True)
    def _test_block(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", _TEST_BLOCK)

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
        write_cloud(images, tmp_path / "c.xyz")
        expected = "".join(_line(p) for p in images)
        assert (tmp_path / "map.txt").read_text() == expected
        assert (tmp_path / "c.xyz").read_text() == expected


def _int_rows(rows, prefix, offset):
    """Reference bytes of ``_write_ints``: one ``%d`` line per row."""
    fmt = prefix + b" %d" * rows.shape[1] + b"\n"
    return b"".join(fmt % tuple(int(v) + offset for v in row) for row in rows)


def _written_ints(rows, prefix, offset):
    fh = io.BytesIO()
    _write_ints(fh, rows, prefix, offset)
    return fh.getvalue()


class TestWriteInts:
    """The face-row kernel gives the bytes of ``%d`` formatting."""

    @pytest.mark.parametrize("top", [9, 99, 10**6 - 1])
    def test_offset_crosses_a_digit_boundary(self, top):
        # the largest id gains a digit only once the OBJ +1 is added
        rows = np.array([[0, top, 1], [top - 1, 2, top]])
        assert _written_ints(rows, b"f", 1) == _int_rows(rows, b"f", 1)
        assert _written_ints(rows, b"3", 0) == _int_rows(rows, b"3", 0)

    def test_block_mixes_one_and_seven_digit_ids(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 10, size=(2 * _BLOCK_ROWS + 5, 4))
        rows[::7, 2] = rng.integers(10**6, 10**7, size=len(rows[::7]))
        for prefix, offset in [(b"f", 1), (b"4", 0)]:
            assert _written_ints(rows, prefix, offset) == _int_rows(rows, prefix, offset)

    @given(
        rows=arrays(
            np.int64,
            st.tuples(st.integers(0, 300), st.sampled_from([3, 4])),
            elements=st.integers(0, 2**62),
        ),
        prefix=st.sampled_from([b"f", b"3", b"4"]),
        offset=st.sampled_from([0, 1]),
    )
    def test_matches_percent_d(self, rows, prefix, offset):
        assert _written_ints(rows, prefix, offset) == _int_rows(rows, prefix, offset)

    @pytest.mark.parametrize("ext", ["obj", "ply"])
    def test_mesh_write_working_set(self, tmp_path, ext):
        # icosphere(6) traces 0.79 MB as OBJ and 0.82 MB as PLY, one block's
        # temporaries; a whole-table copy of the faces (OBJ's faces + 1) or
        # a kernel run on the whole table would not fit
        mesh, path = icosphere(6), tmp_path / f"m.{ext}"
        write_mesh(mesh, path)
        tracemalloc.start()
        try:
            write_mesh(mesh, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def _float_rows(rows, prefix):
    """Reference bytes of ``_write_floats``: one line of ``%.17g`` words
    per row, after the prefix if there is one."""
    head = [prefix] if prefix else []
    return b"".join(
        b" ".join(head + [b"%.17g" % v for v in row]) + b"\n" for row in rows.tolist()
    )


def _written_floats(rows, prefix):
    fh = io.BytesIO()
    _write_floats(fh, rows, prefix)
    return fh.getvalue()


def _around_powers_of_ten():
    """The doubles at and 1-2 ulps around +-10**k for k = -5..17, exact
    decimal ties at the 18th digit, 2**53 and its neighbours, 1e16 +- 1
    ulp, 0 and -0."""
    values = []
    for k in range(-5, 18):
        v = float(f"1e{k}")
        below, above = np.nextafter(v, 0), np.nextafter(v, np.inf)
        values += [np.nextafter(below, 0), below, v, above, np.nextafter(above, np.inf)]
    # an odd j / 2**(17 - e) in [10**e, 10**(e + 1)) lies halfway between
    # two 17-digit decimals
    for e in range(-4, 16):
        lo, hi = 10.0**e * 2.0 ** (17 - e), min(10.0 ** (e + 1) * 2.0 ** (17 - e), 2.0**53)
        values += [(2 * int((lo + (hi - lo) * t) / 2) + 1) / 2.0 ** (17 - e)
                   for t in (0.0, 0.5, 0.999)]
    values += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, np.nextafter(1e16, 0), 1e16,
               np.nextafter(1e16, np.inf), 0.0, -0.0]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestWriteFloats:
    """The float-row kernel gives the bytes of ``%.17g`` formatting."""

    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(0, 300), st.sampled_from([3, 4])),
            elements=st.one_of(st.floats(), st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4)),
        ),
        prefix=st.sampled_from([b"v", b""]),
    )
    def test_matches_percent_g(self, rows, prefix):
        assert _written_floats(rows, prefix) == _float_rows(rows, prefix)

    @pytest.mark.parametrize("prefix", [b"v", b""])
    def test_edges(self, prefix):
        # each value beside an ordinary one, so its row is the kernel's
        # whenever the value is in [1e-4, 1e16)
        values = _around_powers_of_ten()
        rows = np.column_stack([values, np.full_like(values, 0.5), values])
        assert _written_floats(rows, prefix) == _float_rows(rows, prefix)

    def test_ties_round_to_even(self):
        # 0.5 past the 17th digit: 1000000000000000.25 -> ...0.2, .75 -> ...0.8
        rows = np.array([[1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25)]])
        expected = b"1000000000000000.2 1000000000000000.8 -1000000000000000.2\n"
        assert _written_floats(rows, b"") == expected
        assert _written_floats(rows, b"") == _float_rows(rows, b"")

    def test_block_mixes_exponents_and_fallback_rows(self):
        rng = np.random.default_rng(5)
        n = 2 * _BLOCK_ROWS + 3
        rows = rng.uniform(1, 10, size=(n, 3)) * 10.0 ** rng.integers(-4, 16, size=(n, 3))
        rows *= rng.choice([-1, 1], size=rows.shape)
        rows[_BLOCK_ROWS - 1, 0] = 0.0
        rows[_BLOCK_ROWS, 1] = 1e-5
        rows[_BLOCK_ROWS + 1, 2] = np.nan
        rows[[1, 2, n - 1], 0] = [np.inf, -1e300, 5e-324]
        for prefix in (b"v", b""):
            assert _written_floats(rows, prefix) == _float_rows(rows, prefix)

    def test_coordinates_skip_the_fallback(self, monkeypatch):
        # every value of a shrunk and shifted icosphere has |x| >= 1e-4,
        # so every row goes through the kernel, not through %; so does
        # every row of the unshifted one that holds only exact zeros and
        # such values, but not one with a rounding residue like 3.4e-19
        shifted = icosphere(6).vertices * 0.7 + 0.01
        assert np.abs(shifted).min() >= 1e-4
        unshifted = icosphere(6).vertices
        assert (unshifted == 0).any()
        laid_out = []

        def spy(block, prefix):
            laid_out.append(len(block))
            return fixed_rows(block, prefix)

        fixed_rows = fileio._fixed_rows
        monkeypatch.setattr(fileio, "_fixed_rows", spy)
        for rows in (shifted, unshifted):
            a = np.abs(rows)
            laid_out.clear()
            assert _written_floats(rows, b"v") == _float_rows(rows, b"v")
            assert sum(laid_out) == np.all((a == 0) | (a >= 1e-4), axis=1).sum()

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (6,)])
    def test_write_cloud_checks_the_shape(self, tmp_path, shape):
        path = tmp_path / "c.xyz"
        with pytest.raises(CloudError, match=re.escape("expected an (n, 3) array")):
            write_cloud(np.ones(shape), path)
        assert not path.exists()

    @pytest.mark.parametrize("table", ["cloud", "map"])
    def test_cloud_and_map_write_working_set(self, tmp_path, table):
        # 40 962 rows within one block's temporaries; the map table is
        # written by the cloud writer, beside a sidecar
        points = icosphere(6).vertices
        smap = SimpleNamespace(images=points, n=len(points), iterations=0,
                               converged=True, history=[], stage_seconds=None)
        write = {"cloud": lambda: write_cloud(points, tmp_path / "c.xyz"),
                 "map": lambda: write_map(smap, tmp_path / "map.txt")}[table]
        write()
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestReadMapTriangulation:
    def test_mirrored_map_reads_back_its_faces(self, tmp_path):
        # the pipeline mirrors this map, and qhull lists the facets of the
        # mirrored images in an order of its own
        cloud = blob_cloud(500, 0)
        m = parameterize(cloud)
        unmirrored = convex_hull(m.images * [-1.0, 1.0, 1.0])
        assert SurfaceMesh(cloud.points - cloud.centroid(), unmirrored).signed_volume() < 0
        assert m.delaunay_faces.flags.c_contiguous  # SurfaceMesh wraps it without a copy
        path = tmp_path / "map.txt"
        write_map(m, path)
        np.testing.assert_array_equal(read_map(path, cloud).delaunay_faces, m.delaunay_faces)

    def test_absorbed_image_fails_when_read(self, tmp_path):
        # image 4 moved 1e-15 from image 3 along the sphere: distinct
        # rows, which the hull cannot tell apart
        cloud = sphere_cloud(10, seed=6)
        images = cloud.points.copy()
        along = np.cross(images[3], [0.0, 0.0, 1.0])
        images[4] = images[3] + 1e-15 * along / np.sqrt(along @ along)
        assert (images[4] != images[3]).any()
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud, images), path)
        with pytest.raises(MeshError, match=f"^{re.escape(str(path))}: .*absorbed by the hull"):
            read_map(path, cloud)

    def test_off_sphere_image_fails_when_read(self, tmp_path):
        cloud = sphere_cloud(10, seed=6)
        images = cloud.points.copy()
        images[4] = 0.5
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud, images), path)
        message = f"^{re.escape(str(path))}: points are not on the unit sphere$"
        with pytest.raises(MeshError, match=message):
            read_map(path, cloud)


class TestReadMapValidation:
    @pytest.fixture
    def written(self, tmp_path):
        cloud = sphere_cloud(10, seed=6)
        path = tmp_path / "map.txt"
        write_map(hand_map(cloud), path)
        return cloud, path, path.read_text().splitlines(keepends=True)

    def test_inline_comment(self, written):
        cloud, path, lines = written
        lines[2] = lines[2].rstrip("\n") + "  # checked by hand\n"
        path.write_text("# x y z\n" + "".join(lines))
        np.testing.assert_array_equal(read_map(path, cloud).images, cloud.points)

    @pytest.mark.parametrize("text, message", [
        ('{"converged": true,', "not valid JSON"), ("[0.5]", "expected a JSON object"),
        ('{"movement_history": 5}', "movement_history must be a list of finite numbers"),
        ('{"movement_history": [0.1, "x"]}', "movement_history must be a list"),
        ('{"movement_history": [1e-3, NaN]}', "movement_history must be a list"),
        ('{"movement_history": [true]}', "movement_history must be a list"),
        ('{"converged": 1, "movement_history": []}', "converged must be true or false"),
        ('{"converged": "yes", "movement_history": []}', "converged must be true or false"),
        ('{"movement_history": []}', "converged must be true or false"),
        ('{"converged": false}', "movement_history must be a list of finite numbers"),
    ])
    def test_bad_sidecar_names_the_json_path(self, written, text, message):
        cloud, path, _ = written
        sidecar = path.with_name(path.name + ".json")
        sidecar.write_text(text)
        with pytest.raises(FileFormatError, match=re.escape(f"{sidecar}: {message}")):
            read_map(path, cloud)

    def test_missing_sidecar_is_named(self, written):
        # the table alone does not say whether the map converged
        cloud, path, _ = written
        sidecar = path.with_name(path.name + ".json")
        sidecar.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(sidecar))):
            read_map(path, cloud)

    def test_sidecar_fields_read_back(self, written):
        cloud, path, _ = written
        sidecar = path.with_name(path.name + ".json")
        sidecar.write_text('{"movement_history": [0.5, 2e-5], "converged": false}')
        m = read_map(path, cloud)
        assert (m.history, m.iterations, m.converged) == ([0.5, 2e-5], 2, False)

    def test_equal_images_name_both_lines(self, written):
        cloud, path, lines = written
        lines[4] = lines[3]
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match="duplicate point at line 4 and line 5$"):
            read_map(path, cloud)

    @pytest.mark.parametrize("row", ["0 1\n", "0 1 0 0\n"], ids=["short", "long"])
    def test_row_not_x_y_z_rejected(self, written, row):
        cloud, path, lines = written
        lines[4] = row
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match="line 5: expected 'x y z'$"):
            read_map(path, cloud)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coordinate_rejected(self, written, bad):
        cloud, path, lines = written
        lines[4] = "0 " + bad + " 1\n"
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match="non-finite coordinates at line 5$"):
            read_map(path, cloud)
