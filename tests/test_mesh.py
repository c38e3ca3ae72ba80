import numpy as np
import pytest

from spheremesh import MeshError, SurfaceMesh
from spheremesh.mesh import first_occurrence_ids

TETRA_V = np.array(
    [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
) / np.sqrt(3)
TETRA_F = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])


def torus(nu=8, nv=6, major=2.0, minor=1.0):
    """Closed, consistently oriented triangulated torus (Euler characteristic 0)."""
    u, v = np.meshgrid(2 * np.pi * np.arange(nu) / nu, 2 * np.pi * np.arange(nv) / nv,
                       indexing="ij")
    ring = major + minor * np.cos(v)
    vertices = np.column_stack([(ring * np.cos(u)).ravel(), (ring * np.sin(u)).ravel(),
                                (minor * np.sin(v)).ravel()])
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    a, b = i * nv + j, (i + 1) % nu * nv + j
    c, d = (i + 1) % nu * nv + (j + 1) % nv, i * nv + (j + 1) % nv
    faces = np.concatenate([np.stack([a, b, c], -1).reshape(-1, 3),
                            np.stack([a, c, d], -1).reshape(-1, 3)])
    return SurfaceMesh(vertices, faces)


class TestSurfaceMesh:
    def test_torus_is_not_genus0(self):
        mesh = torus()
        assert mesh.is_closed() and mesh.is_oriented()
        with pytest.raises(MeshError, match="Euler characteristic 0 != 2"):
            mesh.validate_closed_genus0()

    def test_tetra_properties(self):
        mesh = SurfaceMesh(TETRA_V, TETRA_F)
        assert mesh.euler_characteristic() == 2
        # sorted pairs in lexicographic order
        np.testing.assert_array_equal(
            mesh.edges(), [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        )
        assert mesh.is_closed()
        assert mesh.is_oriented()
        assert mesh.signed_volume() > 0
        mesh.validate_closed_genus0()

    def test_flipped_face_breaks_orientation(self):
        faces = TETRA_F.copy()
        faces[0] = faces[0][::-1]
        mesh = SurfaceMesh(TETRA_V, faces)
        assert not mesh.is_oriented()
        with pytest.raises(MeshError, match="orientation"):
            mesh.validate_closed_genus0()

    def test_open_mesh_detected(self):
        mesh = SurfaceMesh(TETRA_V, TETRA_F[:3])
        assert not mesh.is_closed()
        assert mesh.euler_characteristic() == 1
        with pytest.raises(MeshError, match="closed"):
            mesh.validate_closed_genus0()

    def test_edge_face_incidence_first_occurrence(self):
        edge_of, counts = SurfaceMesh(TETRA_V, TETRA_F).edge_face_incidence()
        # edges numbered as met along faces 0..3, corners 0..2
        np.testing.assert_array_equal(
            edge_of, [[0, 1, 2], [3, 4, 0], [2, 5, 3], [4, 5, 1]]
        )
        np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2, 2])
        edge_of, counts = SurfaceMesh(TETRA_V, TETRA_F[:3]).edge_face_incidence()
        np.testing.assert_array_equal(edge_of, [[0, 1, 2], [3, 4, 0], [2, 5, 3]])
        np.testing.assert_array_equal(counts, [2, 1, 2, 2, 1, 1])

    def test_first_occurrence_ids(self):
        ids, first, counts = first_occurrence_ids(np.array([7, 3, 7, 9, 3, 3]))
        np.testing.assert_array_equal(ids, [0, 1, 0, 2, 1, 1])
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(counts, [2, 3, 1])

    def test_inward_orientation_detected(self):
        faces = TETRA_F[:, ::-1]
        mesh = SurfaceMesh(TETRA_V, faces)
        assert mesh.signed_volume() < 0
        with pytest.raises(MeshError, match="inward"):
            mesh.validate_closed_genus0()

    def test_corner_angles_tetra(self):
        mesh = SurfaceMesh(TETRA_V, TETRA_F)
        np.testing.assert_allclose(mesh.corner_angles(), np.pi / 3, atol=1e-12)

    def test_quad_cube(self):
        v = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
             for z in (0.0, 1.0)]
        )
        f = np.array(
            [
                [0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
                [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3],
            ]
        )
        mesh = SurfaceMesh(v, f)
        assert mesh.arity == 4
        assert mesh.euler_characteristic() == 2
        assert mesh.is_closed() and mesh.is_oriented()
        assert mesh.signed_volume() == pytest.approx(1.0)
        np.testing.assert_allclose(mesh.corner_angles(), np.pi / 2, atol=1e-12)

    @pytest.mark.parametrize("vertices, faces, message", [
        (np.zeros((4, 2)), [[0, 1, 2]], "bad vertex array shape"),
        (np.zeros((4, 3)), [[0, 1]], "faces must be triangles or quads"),
    ], ids=["planar-vertices", "two-corner-faces"])
    def test_bad_shapes_rejected(self, vertices, faces, message):
        with pytest.raises(MeshError, match=message):
            SurfaceMesh(vertices, faces)

    def test_bad_indices_rejected(self):
        with pytest.raises(MeshError):
            SurfaceMesh(TETRA_V, [[0, 1, 9]])

    def test_degenerate_face_detected(self):
        # split edge (1,2) with a vertex placed exactly on vertex 1:
        # closed and oriented, but two faces collapse to zero area
        v = np.vstack([TETRA_V, TETRA_V[1]])
        f = np.array(
            [[0, 1, 4], [0, 4, 2], [0, 3, 1], [0, 2, 3], [1, 3, 4],
             [3, 2, 4]]
        )
        mesh = SurfaceMesh(v, f)
        assert mesh.is_closed() and mesh.is_oriented()
        with pytest.raises(MeshError, match="degenerate"):
            mesh.validate_closed_genus0()
