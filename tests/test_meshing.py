import numpy as np
import pytest

from spheremesh import (
    MeshError,
    PointCloud,
    SphereInterpolator,
    SphericalMap,
    cube_sphere,
    icosphere,
    induce_mesh,
    interpolate_to_cloud,
    loop_subdivide,
    multilevel,
    parameterize,
    quad_mesh,
    spherical_delaunay,
)

from conftest import uniform_sphere


def identity_map(points):
    """A sphere cloud parameterized by itself."""
    cloud = PointCloud(points)
    return SphericalMap(
        cloud=cloud, images=cloud.points.copy(), history=[0.0],
        iterations=1, converged=True,
    )


class TestSphericalDelaunay:
    def test_tetrahedron(self):
        pts = np.array(
            [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        ) / np.sqrt(3)
        mesh = spherical_delaunay(pts)
        assert mesh.n_faces == 4
        assert mesh.euler_characteristic() == 2

    def test_octahedron(self):
        pts = np.array(
            [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
             [0, 0, -1]]
        )
        mesh = spherical_delaunay(pts)
        assert mesh.n_faces == 8
        assert len(mesh.edges()) == 12

    def test_off_sphere_rejected(self):
        with pytest.raises(MeshError, match="unit sphere"):
            spherical_delaunay(2.0 * uniform_sphere(10, seed=0))

    def test_duplicate_point_absorbed(self):
        pts = uniform_sphere(200, seed=4)
        with pytest.raises(MeshError, match="absorbed"):
            spherical_delaunay(np.vstack([pts, pts[:1]]))

    def test_random_all_vertices_used(self):
        pts = uniform_sphere(500, seed=1)
        mesh = spherical_delaunay(pts)
        assert len(np.unique(mesh.faces)) == 500
        mesh.validate_closed_genus0()


class TestInduceMesh:
    def test_identity_map_matches_delaunay(self):
        pts = uniform_sphere(300, seed=2)
        m = identity_map(pts)
        induced = induce_mesh(m.cloud, m)
        direct = spherical_delaunay(pts)
        np.testing.assert_array_equal(induced.faces, direct.faces)
        np.testing.assert_array_equal(induced.vertices, pts)

    def test_every_point_is_a_vertex(self):
        pts = uniform_sphere(800, seed=3) * np.array([2.0, 1.0, 1.0])
        cloud = PointCloud(pts)
        m = parameterize(cloud)
        induced = induce_mesh(cloud, m)
        assert len(np.unique(induced.faces)) == 800
        induced.validate_closed_genus0()

    def test_ellipsoid_delaunay_ratio(self):
        from spheremesh import delaunay_ratio

        pts = uniform_sphere(3000, seed=20) * np.array([2.0, 1.0, 1.0])
        cloud = PointCloud(pts)
        m = parameterize(cloud)
        induced = induce_mesh(cloud, m)
        assert delaunay_ratio(induced) >= 0.97


class TestInterpolation:
    def test_sample_at_image_returns_cloud_point_exactly(self):
        pts = uniform_sphere(200, seed=4)
        m = identity_map(pts)
        interp = SphereInterpolator(m)
        out = interp(m.images[[7, 42, 130]])
        np.testing.assert_array_equal(out, pts[[7, 42, 130]])

    def test_identity_sphere_error_below_sagitta(self):
        pts = uniform_sphere(2000, seed=5)
        m = identity_map(pts)
        samples = uniform_sphere(500, seed=6)
        out = interpolate_to_cloud(m, samples)
        err = np.linalg.norm(out - samples, axis=1)
        # interpolation lands on the chordal hull surface below the sphere
        mesh = spherical_delaunay(pts)
        edges = mesh.edges()
        longest = np.linalg.norm(pts[edges[:, 0]] - pts[edges[:, 1]], axis=1).max()
        sagitta = longest**2 / 8.0
        assert err.max() <= sagitta * 1.5

    def test_outputs_inside_bounding_box(self):
        pts = uniform_sphere(400, seed=7) * np.array([2.0, 1.0, 0.5])
        cloud = PointCloud(pts)
        m = parameterize(cloud)
        out = interpolate_to_cloud(m, uniform_sphere(300, seed=8))
        assert np.all(out.min(axis=0) >= pts.min(axis=0) - 1e-12)
        assert np.all(out.max(axis=0) <= pts.max(axis=0) + 1e-12)

    def test_locate_agrees_with_linear_scan(self):
        pts = uniform_sphere(150, seed=9)
        m = identity_map(pts)
        interp = SphereInterpolator(m)
        samples = uniform_sphere(64, seed=10)
        faces, bary = interp.locate(samples)
        # oracle: exhaustive candidate list
        wide = SphereInterpolator(m, candidates=interp.mesh.n_faces)
        faces2, bary2 = wide.locate(samples)
        # hits can differ on shared edges; the interpolated POSITIONS agree
        out1 = interp(samples)
        out2 = wide(samples)
        np.testing.assert_allclose(out1, out2, atol=1e-12)
        assert interp.snapped == 0


class TestCubeSphere:
    def test_resolution_one_is_cube(self):
        mesh = cube_sphere(1)
        assert mesh.n_vertices == 8
        assert mesh.n_faces == 6
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices, axis=1), 1.0, atol=1e-15
        )

    @pytest.mark.parametrize("r", [2, 5, 16])
    def test_combinatorics(self, r):
        mesh = cube_sphere(r)
        assert mesh.n_faces == 6 * r * r
        assert mesh.n_vertices == 6 * r * r + 2
        assert mesh.euler_characteristic() == 2
        assert mesh.is_closed() and mesh.is_oriented()
        assert mesh.signed_volume() > 0

    def test_quad_mesh_identity_quality(self):
        pts = uniform_sphere(4000, seed=11)
        m = identity_map(pts)
        mesh = quad_mesh(m, 16)
        assert mesh.n_faces == 6 * 256
        assert mesh.euler_characteristic() == 2
        assert mesh.is_closed() and mesh.is_oriented()
        angles = np.degrees(mesh.corner_angles())
        assert angles.min() >= 60.0
        assert angles.max() <= 120.0
        # every quad within 20 degrees of planar (normals of its two
        # triangle halves nearly parallel)
        v, f = mesh.vertices, mesh.faces
        n1 = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        n2 = np.cross(v[f[:, 2]] - v[f[:, 0]], v[f[:, 3]] - v[f[:, 0]])
        cosang = np.einsum("ij,ij->i", n1, n2) / (
            np.linalg.norm(n1, axis=1) * np.linalg.norm(n2, axis=1)
        )
        bend = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
        assert bend.max() <= 20.0


class TestMultilevel:
    def test_icosphere_counts(self):
        for level, (v, f) in enumerate(
            [(12, 20), (42, 80), (162, 320), (642, 1280)]
        ):
            mesh = icosphere(level)
            assert (mesh.n_vertices, mesh.n_faces) == (v, f)
            mesh.validate_closed_genus0()

    def test_loop_subdivision_quadruples_faces(self):
        mesh = icosphere(1)
        sub = loop_subdivide(mesh)
        assert sub.n_faces == 4 * mesh.n_faces
        assert sub.euler_characteristic() == 2

    def test_multilevel_vertex_counts(self):
        pts = uniform_sphere(3000, seed=12)
        m = identity_map(pts)
        meshes = multilevel(m, levels=2, base_subdivisions=3)
        assert [mm.n_vertices for mm in meshes] == [642, 2562, 10242]
        for mm in meshes:
            assert mm.euler_characteristic() == 2
            assert mm.is_closed() and mm.is_oriented()
