import numpy as np
import pytest

from spheremesh import MeshError, SurfaceMesh

TETRA_V = np.array(
    [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
) / np.sqrt(3)
TETRA_F = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])


class TestSurfaceMesh:
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
