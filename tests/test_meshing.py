import hashlib
import tracemalloc
import warnings

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
from spheremesh.cloud import row_dot
from spheremesh.meshing import _BARY_TOL, _CHUNK
from spheremesh.synth import add_noise, blob_cloud, ellipsoid_cloud, punch_holes, sphere_cloud

from conftest import uniform_sphere


def identity_map(points):
    """A sphere cloud parameterized by itself."""
    cloud = PointCloud(points)
    return SphericalMap(
        cloud=cloud, images=cloud.points.copy(), history=[0.0], converged=True,
        delaunay_faces=spherical_delaunay(cloud.points).faces,
    )


def crowded_map():
    """A map crowded into one cap: the origin lies outside the hull, and
    most central rays miss it."""
    pts = uniform_sphere(400, seed=7)
    cap = pts - [0.0, 0.0, 3.0]
    images = cap / np.linalg.norm(cap, axis=1, keepdims=True)
    return SphericalMap(
        cloud=PointCloud(pts), images=images, history=[0.0], converged=True,
        delaunay_faces=spherical_delaunay(images).faces,
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

    def test_too_few_points_rejected(self):
        with pytest.raises(MeshError, match="need at least 4 points"):
            spherical_delaunay(np.eye(3))

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

    def test_cached_faces_must_cover_every_point(self):
        pts = uniform_sphere(100, seed=2)
        m = identity_map(pts)
        faces = spherical_delaunay(pts).faces
        m.delaunay_faces = faces[~np.any(faces == 0, axis=1)]
        with pytest.raises(MeshError, match="cached triangulation does not cover"):
            sphere_triangulation(m)

    @pytest.mark.parametrize("other", [(300, 3), (400, 2)], ids=["same-size", "larger"])
    def test_other_cloud_rejected(self, other):
        m = identity_map(uniform_sphere(300, seed=2))
        with pytest.raises(MeshError, match="not the one"):
            induce_mesh(PointCloud(uniform_sphere(*other)), m)

    def test_equal_copy_of_the_cloud_accepted(self):
        m = identity_map(uniform_sphere(300, seed=2))
        induced = induce_mesh(PointCloud(m.cloud.points.copy()), m)
        np.testing.assert_array_equal(induced.faces, induce_mesh(m.cloud, m).faces)

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


def dual_scores(interp, s):
    """n_f . s / d_f of every sample and face, from the face table."""
    normals, offsets = interp._table[:, :3], interp._table[:, 3]
    return s @ (normals / offsets[:, None]).T


def reference_ray_test(points, faces, face_ids, s):
    """``SphereInterpolator._ray_test`` from five per-face arrays, each
    gathered on its own, with numpy's reductions over the coordinates:
    the reference for the face table and the elementwise sums."""
    a, b, c = (points[corner] for corner in faces.T)
    b -= a
    c -= a
    normals = np.cross(b, c)
    nn = np.einsum("ij,ij->i", normals, normals)[:, None]
    u = np.cross(c, normals) / nn
    v = np.cross(normals, b) / nn
    offsets = np.einsum("ij,ij->i", normals, a)
    s = s.reshape(s.shape[:1] + (1,) * (face_ids.ndim - 1) + (3,))
    denom = np.sum(normals[face_ids] * s, axis=-1)
    ok = denom > 0
    t = offsets[face_ids] / np.where(ok, denom, 1.0)
    x = t[..., None] * s - a[face_ids]
    beta = np.sum(x * u[face_ids], axis=-1)
    gamma = np.sum(x * v[face_ids], axis=-1)
    bary = np.stack([1.0 - beta - gamma, beta, gamma], axis=-1)
    return ok & (t > 0) & (bary.min(axis=-1) >= -_BARY_TOL), bary


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
        with pytest.warns(UserWarning, match="did not converge"):
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
        assert np.all(interp._table[:, 3] > 0)
        samples = uniform_sphere(2000, seed=15)
        s = samples / np.linalg.norm(samples, axis=1, keepdims=True)
        faces, bary = interp.locate(samples)
        score = dual_scores(interp, s)
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

    def test_lone_face_rounds_like_face_beside_runner_up(self, ellipsoid_map):
        # locate tests each exit face alone; a test beside another face
        # must give the same hit and bit-equal weights
        interp = SphereInterpolator(ellipsoid_map)
        samples = uniform_sphere(2000, seed=17)
        s = samples / np.linalg.norm(samples, axis=1, keepdims=True)
        score = dual_scores(interp, s)
        second, best = np.argsort(score, axis=1)[:, -2:].T
        alone_hit, alone = interp._ray_test(best, s)
        pair_hit, pair = interp._ray_test(np.column_stack([best, second]), s)
        assert alone_hit.shape == (len(s),) and alone.shape == (len(s), 3)
        assert alone_hit.all()
        np.testing.assert_array_equal(alone_hit, pair_hit[:, 0])
        np.testing.assert_array_equal(alone, pair[:, 0])

    @pytest.mark.parametrize("k", [None, 3], ids=["m", "m-by-k"])
    @pytest.mark.parametrize("crowded", [False, True], ids=["ellipsoid", "crowded"])
    def test_ray_test_matches_per_array_reference(self, ellipsoid_map, crowded, k):
        # random faces, with every other sample's exit face in the first
        # column, so that hits, misses and (on the crowded map) faces
        # with d_f <= 0 are all tested
        m = crowded_map() if crowded else ellipsoid_map
        interp = SphereInterpolator(m)
        samples = uniform_sphere(600, seed=23)
        s = samples / np.sqrt(row_dot(samples, samples))[:, None]
        shape = (len(s),) if k is None else (len(s), k)
        face_ids = np.random.default_rng(24).integers(interp.mesh.n_faces, size=shape)
        face_ids.reshape(len(s), -1)[::2, 0] = interp.locate(samples[::2])[0]
        hit, bary = interp._ray_test(face_ids, s)
        ref_hit, ref_bary = reference_ray_test(interp.images, interp.mesh.faces, face_ids, s)
        assert hit.shape == shape and bary.shape == shape + (3,)
        assert 0 < np.count_nonzero(hit) < hit.size
        np.testing.assert_array_equal(hit, ref_hit)
        np.testing.assert_array_equal(bary, ref_bary)

    def test_samples_across_chunks_agree(self, ellipsoid_map):
        interp = SphereInterpolator(ellipsoid_map)
        samples = np.repeat(uniform_sphere(1, seed=13), 2 * _CHUNK + 1, axis=0)
        faces, bary = interp.locate(samples)
        assert np.all(faces == faces[0])
        assert np.all(bary == bary[0])

    def test_positions_do_not_depend_on_chunk_size(self, ellipsoid_map, monkeypatch):
        samples = np.vstack([uniform_sphere(500, seed=16), ellipsoid_map.images[:50]])
        results = []
        for size in (7, 10_000):
            monkeypatch.setattr(spheremesh.meshing, "_CHUNK", size)
            results.append(SphereInterpolator(ellipsoid_map)(samples))
        np.testing.assert_array_equal(*results)

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
        m = crowded_map()
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

    @pytest.mark.parametrize("row", [
        [0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0],
        [1e200, np.nan, 0.0], [1e-200, 0.0, -np.inf],
    ])
    def test_bad_sample_rejected_by_row(self, row):
        m = identity_map(uniform_sphere(200, seed=3))
        samples = uniform_sphere(10, seed=4)
        samples[6] = row
        with pytest.raises(MeshError, match="sample 6 .* zero-length or not finite"):
            SphereInterpolator(m).locate(samples)
        with pytest.raises(MeshError, match="sample 6"):
            interpolate_to_cloud(m, samples)

    @pytest.mark.parametrize("row, unit", [
        ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, -5e-324, 0.0], [0.0, -1.0, 0.0]),
        ([1e308, -1e308, 1e308], [1.0, -1.0, 1.0]),
    ])
    def test_rows_whose_squared_length_is_not_finite_locate_as_unit_rows(self, row, unit):
        # the squared length of these finite rows overflows or underflows
        m = identity_map(uniform_sphere(200, seed=3))
        samples = uniform_sphere(10, seed=4)
        expected = samples.copy()
        samples[6], expected[6] = row, unit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = SphereInterpolator(m)(samples)
        np.testing.assert_array_equal(out, SphereInterpolator(m)(expected))
        np.testing.assert_array_equal(SphereInterpolator(m)(samples[6:7]), out[6:7])

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 3)])
    def test_samples_must_be_m_by_3(self, shape):
        m = identity_map(uniform_sphere(200, seed=3))
        with pytest.raises(MeshError, match=r"\(m, 3\) array"):
            SphereInterpolator(m).locate(np.ones(shape))


class TestCubeSphere:
    def test_resolution_zero_rejected(self):
        with pytest.raises(MeshError, match="resolution must be at least 1"):
            cube_sphere(0)

    def test_quads_are_not_loop_subdivided(self):
        with pytest.raises(MeshError, match="needs a triangle mesh"):
            loop_subdivide(cube_sphere(1))

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

    @pytest.mark.parametrize(
        "k, digest",
        [(0, "25c2ce4291cc17ab"), (2, "4ba9fb9c407e7660"), (5, "281188552dcc2b46")],
    )
    def test_icosphere_vertices_pinned(self, k, digest):
        # each level is normalized in place in the mesh Loop subdivision
        # returns; the vertices must stay bit-exact
        vertices = icosphere(k).vertices
        got = hashlib.sha256(vertices.astype("<f8").tobytes()).hexdigest()
        assert got[:16] == digest

    def test_loop_subdivision_face_layout(self):
        # face 4i + c (c < 3) is (corner c, edge point of side c, edge
        # point of side c - 1), and 4i + 3 the three edge points: the
        # multilevel walk starts both edge points at corner c's face
        mesh = icosphere(2)
        edge_of, _ = mesh.edge_face_incidence()
        points = mesh.n_vertices + edge_of
        faces = loop_subdivide(mesh).faces.reshape(-1, 4, 3)
        np.testing.assert_array_equal(faces[:, :3, 0], mesh.faces)
        np.testing.assert_array_equal(faces[:, :3, 1], points)
        np.testing.assert_array_equal(faces[:, :3, 2], np.roll(points, 1, axis=1))
        np.testing.assert_array_equal(faces[:, 3], points)

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

    @pytest.mark.parametrize("which", ["icosphere(4)", "blob_cloud(400, 0) induced"])
    def test_loop_subdivision_ring_sums_ascending(self, which):
        # the smoothed vertices sum each one-ring in ascending neighbour
        # order, bit-equal to np.add.at over that order; the induced mesh
        # has valences 3 to 11
        if which == "icosphere(4)":
            mesh = icosphere(4)
        else:
            cloud = blob_cloud(400, 0)
            mesh = induce_mesh(cloud, parameterize(cloud))
        v = mesh.vertices
        rings = [set() for _ in v]
        for a, b in mesh.edges():
            rings[a].add(b)
            rings[b].add(a)
        n = np.array([len(r) for r in rings])
        ring_sum = np.zeros_like(v)
        np.add.at(ring_sum, np.repeat(np.arange(len(v)), n),
                  v[np.concatenate([sorted(r) for r in rings])])
        beta = (0.625 - (0.375 + 0.25 * np.cos(2.0 * np.pi / n)) ** 2) / n
        expected = (1.0 - n * beta)[:, None] * v + beta[:, None] * ring_sum
        np.testing.assert_array_equal(loop_subdivide(mesh).vertices[:len(v)], expected)

    def test_loop_subdivision_rejects_open_mesh(self):
        ico = icosphere(1)
        with pytest.raises(MeshError, match="closed mesh"):
            loop_subdivide(SurfaceMesh(ico.vertices, ico.faces[1:]))

    def test_loop_subdivision_rejects_unused_vertex(self):
        ico = icosphere(1)
        extra = np.vstack([ico.vertices, [[0.0, 0.0, 0.0]]])
        with pytest.raises(MeshError, match="every vertex"):
            loop_subdivide(SurfaceMesh(extra, ico.faces))

    @pytest.mark.parametrize("subdivisions", [-1, -2])
    def test_negative_subdivisions_rejected(self, subdivisions):
        with pytest.raises(MeshError, match="subdivisions must be nonnegative"):
            icosphere(subdivisions)
        m = identity_map(uniform_sphere(200, seed=3))
        with pytest.raises(MeshError, match="subdivisions must be nonnegative"):
            multilevel(m, 1, base_subdivisions=subdivisions)

    def test_negative_levels_rejected(self):
        m = identity_map(uniform_sphere(200, seed=3))
        with pytest.raises(MeshError, match="levels must be nonnegative"):
            multilevel(m, -1)

    def test_multilevel_vertex_counts(self):
        pts = uniform_sphere(3000, seed=12)
        m = identity_map(pts)
        meshes = multilevel(m, levels=2, base_subdivisions=3)
        assert [mm.n_vertices for mm in meshes] == [642, 2562, 10242]
        for mm in meshes:
            assert mm.euler_characteristic() == 2
            assert mm.is_closed() and mm.is_oriented()


@pytest.fixture(scope="module")
def remesh_map():
    """The map the remesh benchmark prepares for seed 0."""
    return parameterize(blob_cloud(5000, 0))


WALK_CLOUDS = {
    "holed noisy blob": lambda: add_noise(
        punch_holes(blob_cloud(1500, 4), 10, seed=0), 0.01, seed=0
    ),
    "8:1 ellipsoid": lambda: ellipsoid_cloud(1500, (8, 1, 1), seed=8),
    "50-hole sphere": lambda: punch_holes(
        sphere_cloud(5000, seed=61), 50, hole_radius=0.15, seed=62
    ),
    "sphere_cloud(100, 0)": lambda: sphere_cloud(100, 0),
}


@pytest.fixture(scope="module", params=["blob_cloud(5000, 0)", "crowded", *WALK_CLOUDS])
def walk_map(request):
    if request.param == "blob_cloud(5000, 0)":
        return request.getfixturevalue("remesh_map")
    if request.param == "crowded":
        return crowded_map()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # three of these maps do not settle
        return parameterize(WALK_CLOUDS[request.param]())


def walked_multilevel(m, levels):
    """multilevel(m, levels), (samples, faces, weights, snapped) of every
    walk it makes, and the number of samples the walks left to locate."""
    walks, located = [], []
    walk, locate = SphereInterpolator.walk, SphereInterpolator.locate

    def spy(self, samples, start):
        snapped = self.snapped
        faces, bary = walk(self, samples, start)
        walks.append((samples, faces, bary, self.snapped - snapped))
        return faces, bary

    def counted(self, samples):
        located.append(len(samples))
        return locate(self, samples)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SphereInterpolator, "walk", spy)
        patch.setattr(SphereInterpolator, "locate", counted)
        meshes = multilevel(m, levels)
    return meshes, walks, sum(located[1:])


def assert_walks_locate(m, levels):
    """Every walk of multilevel(m, levels) returns what locate returns;
    gives the share of walked samples that went to locate."""
    meshes, walks, left = walked_multilevel(m, levels)
    assert len(walks) == levels
    for mesh, (samples, faces, bary, snapped) in zip(meshes[1:], walks):
        located = SphereInterpolator(m)
        expected = located.locate(samples)
        np.testing.assert_array_equal(faces, expected[0])
        np.testing.assert_array_equal(bary, expected[1])
        assert snapped == located.snapped
        np.testing.assert_array_equal(mesh.vertices, located.positions(*expected))
    return left / sum(len(samples) for samples, *_ in walks)


class TestWalk:
    def test_walk_returns_what_locate_returns(self, walk_map):
        left = assert_walks_locate(walk_map, 3)
        if np.all(SphereInterpolator(walk_map)._table[:, 3] > 0):
            # around the origin nearly every walk ends within the cap
            assert left < 0.001
        else:
            # rays that hit a crowded hull end their walk at the exit
            # face; only the rays that miss it go to locate
            assert left < 1.0

    def test_walk_from_any_start_face(self, walk_map):
        # multilevel starts each walk at a parent face; a seeded random
        # face, far from the exit face, must end where locate does
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(2000, 3))
        walked, located = SphereInterpolator(walk_map), SphereInterpolator(walk_map)
        start = rng.integers(0, walked.mesh.n_faces, size=len(samples))
        faces, bary = walked.walk(samples, start)
        expected = located.locate(samples)
        np.testing.assert_array_equal(faces, expected[0])
        np.testing.assert_array_equal(bary, expected[1])
        assert walked.snapped == located.snapped

    @pytest.mark.parametrize("setting, value", [
        ("_WALK_ROUNDS", 1), ("_CHUNK", 7), ("_CHUNK", 10_000),
    ])
    def test_walk_does_not_depend_on_rounds_or_chunks(
        self, remesh_map, setting, value, monkeypatch
    ):
        # with one round most samples go to locate; chunks of 7 split
        # every round
        monkeypatch.setattr(spheremesh.meshing, setting, value)
        assert_walks_locate(remesh_map, 1)

    @pytest.mark.parametrize("remesh, bound_mb", [("multilevel", 9.5), ("quad_mesh", 2.5)])
    def test_remesh_working_set(self, remesh_map, remesh, bound_mb):
        # traced peaks of the benchmark's two remesh calls, measured at
        # 9.357 and 2.498 MB: the walk's arrays must not widen them
        call = {
            "multilevel": lambda: multilevel(remesh_map, 3),
            "quad_mesh": lambda: quad_mesh(remesh_map, 32),
        }[remesh]
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6
