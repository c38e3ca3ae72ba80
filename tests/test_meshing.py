import hashlib

import numpy as np
import pytest

import spheremesh.meshing
from spheremesh import (
    MeshError,
    PointCloud,
    SphereInterpolator,
    SphericalMap,
    SurfaceMesh,
    cube_sphere,
    icosphere,
    induce_mesh,
    interpolate_to_cloud,
    loop_subdivide,
    multilevel,
    parameterize,
    quad_mesh,
    sphere_triangulation,
    spherical_delaunay,
)
from spheremesh.meshing import _BARY_TOL, _CHUNK

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


@pytest.fixture(scope="module")
def ellipsoid_map():
    """Parameterization of a 1000-point 2:1:0.5 ellipsoid, whose images
    surround the origin (at 400 points they crowd into one cap)."""
    pts = uniform_sphere(1000, seed=7) * np.array([2.0, 1.0, 0.5])
    return parameterize(PointCloud(pts))


def exhaustive_positions(sphere_map, samples):
    """Cloud positions by testing every face: with s = w_a a + w_b b +
    w_c c, the central ray meets face (a, b, c) at weights w / sum(w),
    inside when all are nonnegative."""
    faces = sphere_triangulation(sphere_map).faces
    inverse = np.linalg.inv(np.transpose(sphere_map.images[faces], (0, 2, 1)))
    out = []
    for chunk in np.array_split(samples, -(-len(samples) // 256)):
        w = np.einsum("fij,mj->mfi", inverse, chunk)
        total = w.sum(axis=2)
        bary = w / np.where(total > 0, total, 1.0)[..., None]
        score = np.where(total > 0, bary.min(axis=2), -np.inf)
        best = score.argmax(axis=1)
        rows = np.arange(len(chunk))
        assert score[rows, best].min() >= -1e-12
        out.append(np.einsum(
            "mi,mij->mj", bary[rows, best], sphere_map.cloud.points[faces[best]]
        ))
    return np.vstack(out)


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
        m = identity_map(uniform_sphere(150, seed=9))
        samples = np.vstack([uniform_sphere(64, seed=10), m.images])
        interp = SphereInterpolator(m)
        out = interp(samples)
        # hits can differ on shared edges; the interpolated POSITIONS agree
        # with a scan of every face
        np.testing.assert_allclose(
            out, exhaustive_positions(m, samples), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(out[-m.n:], m.cloud.points)
        assert interp.snapped == 0

    def test_locate_matches_exhaustive_oracle(self, ellipsoid_map):
        m = ellipsoid_map
        samples = np.vstack([icosphere(4).vertices, m.images])
        interp = SphereInterpolator(m)
        out = interp(samples)
        np.testing.assert_allclose(
            out, exhaustive_positions(m, samples), rtol=0, atol=1e-12
        )
        # images return their cloud points bit-exactly
        np.testing.assert_array_equal(out[-m.n:], m.cloud.points)
        assert interp.snapped == 0

    def test_samples_on_shared_edges_lie_in_their_face(self):
        # by symmetry, about a third of the icosphere(3) directions lie on
        # an edge or vertex of the icosphere(2) hull and meet two or more
        # faces; whichever the query returns contains the sample
        m = identity_map(icosphere(2).vertices)
        samples = icosphere(3).vertices[::4]
        interp = SphereInterpolator(m)
        faces, bary = interp.locate(samples)
        assert bary.min() >= -_BARY_TOL
        assert interp.snapped == 0
        np.testing.assert_allclose(
            interp(samples), exhaustive_positions(m, samples), rtol=0, atol=1e-12
        )

    def test_exit_face_maximises_dual_product(self, ellipsoid_map):
        # polar duality: the central ray of s leaves a hull around the
        # origin through the face maximising n_f . s / d_f
        interp = SphereInterpolator(ellipsoid_map)
        assert np.all(interp._offsets > 0)
        samples = uniform_sphere(2000, seed=15)
        s = samples / np.linalg.norm(samples, axis=1, keepdims=True)
        faces, bary = interp.locate(samples)
        score = s @ (interp._normals / interp._offsets[:, None]).T
        second, best = np.argsort(score, axis=1)[:, -2:].T
        rows = np.arange(len(s))
        # away from shared edges the runner-up trails by a margin
        clear = score[rows, best] - score[rows, second] > 1e-9 * score[rows, best]
        assert clear.mean() > 0.99
        np.testing.assert_array_equal(faces[clear], best[clear])
        # the weights of a ray test of the best and runner-up faces
        hit, weights = interp._ray_test(np.column_stack([best, second]), s)
        assert hit[:, 0].all()
        np.testing.assert_array_equal(bary[clear], weights[clear, 0])
        assert interp.snapped == 0

    def test_samples_across_chunks_agree(self, ellipsoid_map):
        interp = SphereInterpolator(ellipsoid_map)
        samples = np.repeat(uniform_sphere(1, seed=13), 2 * _CHUNK + 1, axis=0)
        faces, bary = interp.locate(samples)
        assert np.all(faces == faces[0])
        assert np.all(bary == bary[0])

    def test_unhit_samples_snap_to_their_face(self, ellipsoid_map, monkeypatch):
        m = ellipsoid_map
        samples = uniform_sphere(40, seed=14)
        expected = SphereInterpolator(m)(samples)
        # a tolerance no weight can meet: every sample misses its
        # candidates and the scan, and is snapped
        monkeypatch.setattr(spheremesh.meshing, "_BARY_TOL", -2.0)
        interp = SphereInterpolator(m)
        np.testing.assert_allclose(interp(samples), expected, rtol=0, atol=1e-12)
        assert interp.snapped == len(samples)

    def test_snapped_counts_samples_no_face_contains(self):
        # a 400-point 2:1:0.5 ellipsoid maps into one cap: the origin lies
        # outside the hull, and most central rays miss it
        pts = uniform_sphere(400, seed=7) * np.array([2.0, 1.0, 0.5])
        m = parameterize(PointCloud(pts))
        interp = SphereInterpolator(m)
        samples = uniform_sphere(3000, seed=1)
        faces, bary = interp.locate(samples)
        s = samples / np.linalg.norm(samples, axis=1, keepdims=True)
        every_face = np.arange(interp.mesh.n_faces)
        contained = np.concatenate([
            interp._ray_test(np.broadcast_to(every_face, (len(c), every_face.size)), c)[0]
            .any(axis=1)
            for c in np.array_split(s, 12)
        ])
        assert interp.snapped == np.count_nonzero(~contained) > 0
        # every output is a convex combination of its face's cloud points
        assert bary[~contained].min() >= 0.0
        assert bary.min() >= -_BARY_TOL
        np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        corners = m.cloud.points[interp.mesh.faces[faces]]
        np.testing.assert_allclose(
            interp(samples), np.einsum("ij,ijk->ik", bary, corners), rtol=0, atol=1e-12
        )


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

    @pytest.mark.parametrize("r", [1, 2, 3, 32])
    def test_matches_per_vertex_loop(self, r):
        # reference: one dict lookup and one tan per quad corner, vertices
        # numbered in first-seen order
        vert_ids, verts, faces = {}, [], []
        steps = [-r + 2 * j for j in range(r + 1)]
        sides = {
            (0, 1): (1, 2), (0, -1): (2, 1),
            (1, 1): (2, 0), (1, -1): (0, 2),
            (2, 1): (0, 1), (2, -1): (1, 0),
        }
        for (axis, sign), (ua, va) in sides.items():
            for j in range(r):
                for kk in range(r):
                    quad = []
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        key = [0, 0, 0]
                        key[axis] = sign * r
                        key[ua] = steps[j + du]
                        key[va] = steps[kk + dv]
                        key = tuple(key)
                        if key not in vert_ids:
                            vert_ids[key] = len(verts)
                            angles = 0.25 * np.pi * np.array(key, dtype=np.float64)
                            p = np.tan(angles / r)
                            verts.append(p / np.linalg.norm(p))
                        quad.append(vert_ids[key])
                    faces.append(quad)
        mesh = cube_sphere(r)
        np.testing.assert_array_equal(mesh.faces, np.array(faces, dtype=np.intp))
        np.testing.assert_array_equal(mesh.vertices, np.array(verts))

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

    @pytest.mark.parametrize(
        "k, digest", [(0, "e0cdbcb335bade58"), (2, "52ba19c5cda73d33")]
    )
    def test_loop_subdivision_faces_pinned(self, k, digest):
        faces = loop_subdivide(icosphere(k)).faces
        got = hashlib.sha256(faces.astype("<i8").tobytes()).hexdigest()
        assert got[:16] == digest

    def test_loop_subdivision_matches_loop_reference(self):
        mesh = icosphere(2)
        v, f = mesh.vertices, mesh.faces
        places, ring = {}, {}
        for fid, face in enumerate(f):
            for e in range(3):
                a, b = sorted((face[e], face[(e + 1) % 3]))
                places.setdefault((a, b), []).append(face[(e + 2) % 3])
                ring.setdefault(a, set()).add(b)
                ring.setdefault(b, set()).add(a)
        expected = []
        for i in range(len(v)):
            nbrs = sorted(ring[i])
            n = len(nbrs)
            beta = (0.625 - (0.375 + 0.25 * np.cos(2.0 * np.pi / n)) ** 2) / n
            expected.append((1.0 - n * beta) * v[i] + beta * v[nbrs].sum(axis=0))
        for (a, b), (o0, o1) in places.items():
            expected.append(0.375 * (v[a] + v[b]) + 0.125 * (v[o0] + v[o1]))
        got = loop_subdivide(mesh).vertices
        np.testing.assert_allclose(got, np.array(expected), rtol=0, atol=1e-15)

    def test_loop_subdivision_rejects_open_mesh(self):
        ico = icosphere(1)
        with pytest.raises(MeshError, match="closed mesh"):
            loop_subdivide(SurfaceMesh(ico.vertices, ico.faces[1:]))

    def test_loop_subdivision_rejects_unused_vertex(self):
        ico = icosphere(1)
        extra = np.vstack([ico.vertices, [[0.0, 0.0, 0.0]]])
        with pytest.raises(MeshError, match="every vertex"):
            loop_subdivide(SurfaceMesh(extra, ico.faces))

    def test_multilevel_vertex_counts(self):
        pts = uniform_sphere(3000, seed=12)
        m = identity_map(pts)
        meshes = multilevel(m, levels=2, base_subdivisions=3)
        assert [mm.n_vertices for mm in meshes] == [642, 2562, 10242]
        for mm in meshes:
            assert mm.euler_characteristic() == 2
            assert mm.is_closed() and mm.is_oriented()
