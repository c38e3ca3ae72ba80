import numpy as np
import pytest

from spheremesh import MeshError, SurfaceMesh, convex_hull

from conftest import uniform_sphere


def empty_halfspace_violations(points, faces, tol=1e-10):
    """Oracle: count points strictly above any face plane (brute force)."""
    count = 0
    for a, b, c in faces:
        normal = np.cross(points[b] - points[a], points[c] - points[a])
        normal = normal / np.linalg.norm(normal)
        dist = points @ normal - normal @ points[a]
        count += int((dist > tol).sum())
    return count


class TestConvexHull:
    def test_tetrahedron(self):
        pts = np.array(
            [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        ) / np.sqrt(3)
        faces = convex_hull(pts)
        mesh = SurfaceMesh(pts, faces)
        assert mesh.n_faces == 4
        assert mesh.euler_characteristic() == 2
        assert mesh.signed_volume() > 0

    def test_octahedron_combinatorics(self):
        pts = np.array(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
             [0, 0, -1]]
        )
        mesh = SurfaceMesh(pts, convex_hull(pts))
        assert mesh.n_faces == 8
        assert len(mesh.edges()) == 12
        mesh.validate_closed_genus0()

    def test_cube_exact_coplanar_faces(self):
        corners = np.array(
            [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
             for z in (-1.0, 1.0)]
        )
        faces = convex_hull(corners)
        mesh = SurfaceMesh(corners, faces)
        assert mesh.n_faces == 12  # 6 quads, triangulated
        assert mesh.euler_characteristic() == 2
        assert empty_halfspace_violations(corners, faces) == 0

    def test_face_order(self):
        # each face starts at its smallest id; rows ascend by sorted ids
        faces = convex_hull(uniform_sphere(300, seed=2))
        np.testing.assert_array_equal(faces[:, 0], faces.min(axis=1))
        assert (np.diff(np.sort(faces, axis=1) @ [300**2, 300, 1]) > 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirrored_points_reverse_every_winding(self, seed):
        pts = uniform_sphere(400, seed=seed) * [1.0, 2.0, 0.5]
        faces = convex_hull(pts)
        np.testing.assert_array_equal(convex_hull(pts * [-1.0, 1.0, 1.0]), faces[:, [0, 2, 1]])

    def test_random_sphere_oracle(self):
        for seed in range(6):
            n = 100 + 80 * seed
            pts = uniform_sphere(n, seed=seed)
            faces = convex_hull(pts)
            mesh = SurfaceMesh(pts, faces)
            assert empty_halfspace_violations(pts, faces) == 0
            assert len(np.unique(faces)) == n
            mesh.validate_closed_genus0()

    def test_off_origin_sphere_outward(self):
        pts = uniform_sphere(200, seed=5) * 3.0 + np.array([10.0, -5.0, 2.0])
        faces = convex_hull(pts)
        mesh = SurfaceMesh(pts, faces)
        assert mesh.signed_volume() > 0
        assert mesh.is_oriented()
        assert empty_halfspace_violations(pts, faces) == 0

    def test_interior_points_absorbed(self):
        pts = np.vstack([uniform_sphere(40, seed=9), [[0.0, 0.0, 0.0]]])
        faces = convex_hull(pts)
        assert 40 not in np.unique(faces)

    def test_deterministic(self):
        pts = uniform_sphere(300, seed=10)
        np.testing.assert_array_equal(convex_hull(pts), convex_hull(pts))

    def test_too_few_points(self):
        with pytest.raises(MeshError):
            convex_hull(np.eye(3))

    def test_coplanar_rejected(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
        with pytest.raises(MeshError, match="coplanar"):
            convex_hull(pts)

    def test_collinear_rejected(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(MeshError, match="collinear"):
            convex_hull(np.column_stack([t, t, t]))

    def test_crowded_cap(self):
        # dense cluster near a pole plus sparse cover: the hull must stay
        # closed, oriented and empty under near-coplanar crowding
        rng = np.random.default_rng(12)
        cap = rng.normal(size=(400, 3)) * np.array([1e-4, 1e-4, 1e-4])
        cap[:, 2] = 1.0
        cap /= np.linalg.norm(cap, axis=1, keepdims=True)
        pts = np.vstack([uniform_sphere(100, seed=13), cap])
        faces = convex_hull(pts)
        mesh = SurfaceMesh(pts, faces)
        assert mesh.is_closed() and mesh.is_oriented()
        assert mesh.euler_characteristic() == 2
        assert empty_halfspace_violations(pts, faces, tol=1e-10) == 0
