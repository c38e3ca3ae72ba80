import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import spheremesh.param as param_module
from spheremesh import (
    ParamConfig,
    PipelineError,
    PointCloud,
    SphereMeshError,
    SurfaceMesh,
    balance,
    build_frames,
    build_index,
    convex_hull,
    delaunay_ratio,
    induce_mesh,
    initial_map,
    ns_iterate,
    parameterize,
    pole_distances,
    quality_report,
    sphere_triangulation,
    spherical_delaunay,
)
from spheremesh.laplacian import assemble_lb_from_frames
from spheremesh.param import _aligned_movement, _ball_map, _centred, _outermost
from spheremesh.synth import blob_cloud, ellipsoid_cloud, sphere_cloud
from spheremesh.projections import inv_north, proj_north

from conftest import uniform_sphere


def random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.fixture(scope="module")
def sphere_setup():
    pts = uniform_sphere(1200, seed=6)
    cloud = PointCloud(pts)
    index = build_index(cloud)
    idx, dist = index.knn_arrays(25)
    frames = build_frames(pts, idx, dist)
    op = assemble_lb_from_frames(frames)
    return cloud, index, frames, op


class TestPipelineStages:
    def test_initial_map_reproduces_pins(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        images = initial_map(op, index, 25)
        c = int(np.argmin(op.condition))
        frame = build_frames(cloud.points, *index.knn_arrays(50, [c]))
        xy = frame.coords[0, 1:] * np.sign(np.sum(frame.coords[0, 1:] ** 3, axis=0))
        w = xy[:, 0] + 1j * xy[:, 1]
        np.testing.assert_array_equal(
            images[frame.neighbor_ids[0, 1:]], inv_north(np.abs(w).max() / w)
        )
        np.testing.assert_array_equal(images[c], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(np.linalg.norm(images, axis=1), 1.0, atol=1e-12)

    def test_centred_images_keep_unit_norm_and_orientation(self):
        pts = uniform_sphere(500, seed=4)
        faces = convex_hull(pts)
        # a conformal map crowded into the south cap, and its mirror image
        crowded = inv_north(0.05 * proj_north(pts))
        for images in (crowded, crowded * [-1.0, 1.0, 1.0]):
            centred = _centred(images)
            np.testing.assert_allclose(np.linalg.norm(centred, axis=1), 1.0,
                                       atol=1e-15)
            assert np.linalg.norm(centred.mean(axis=0)) < 1e-12
            before = SurfaceMesh(images, faces).signed_volume()
            after = SurfaceMesh(centred, faces).signed_volume()
            assert np.sign(after) == np.sign(before) != 0

    @pytest.mark.parametrize("offset", [0.8, 0.95])
    def test_centring_from_far_off_centre(self, offset):
        # the Newton centre of these images lies outside the ball; the
        # plain step a = m must still bring the mean below the bound
        images = _ball_map(sphere_cloud(20000, 1).points, np.array([0.0, 0.0, offset]))
        assert np.linalg.norm(images.mean(axis=0)) > 0.9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centred = _centred(images)
        assert np.linalg.norm(centred.mean(axis=0)) < 1e-12

    def test_centring_that_misses_the_bound_warns(self, monkeypatch):
        monkeypatch.setattr(param_module, "_CENTRING_STEPS", 1)
        images = _ball_map(uniform_sphere(500, seed=4), np.array([0.0, 0.0, 0.8]))
        with pytest.warns(UserWarning, match="centring stopped after 1 steps"):
            _centred(images)

    def test_aligned_movement_ignores_rotation_only(self):
        images = uniform_sphere(300, seed=5)
        rotated = images @ random_rotation(6).T
        assert _aligned_movement(rotated, images) < 1e-28
        # a mirror image is no rotation of the images
        assert _aligned_movement(images * [-1.0, 1.0, 1.0], images) > 0.1

    def test_ns_iterate_fixed_point(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        # the identity on a sphere cloud is a perfect conformal map:
        # the first comparison already sits below epsilon
        images, history, converged = ns_iterate(op, cloud.points.copy())
        assert converged and len(history) == 1

    def test_outermost_selection(self):
        w = np.array([1.0, 5.0, 3.0, 5.0, 0.5, 4.0], dtype=complex)
        picked = _outermost(w, 40.0)
        np.testing.assert_array_equal(picked, [1, 3, 5])

    def test_outermost_skips_infinities(self):
        w = np.array([1.0, np.inf, 3.0, 2.0, 0.5], dtype=complex)
        picked = _outermost(w, 30.0)
        assert 1 not in picked
        assert len(picked) == 3

    def test_pinned_points_fixed_through_one_solve(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        images = cloud.points.copy()
        w = proj_north(images)
        pinned = _outermost(w, 10.0)
        from spheremesh import ConstrainedSystem, solve

        field_ = solve(ConstrainedSystem(op, pinned, w[pinned]))
        moved = inv_north(field_)[pinned] - images[pinned]
        assert np.abs(moved).max() <= 1e-12

    def test_non_convergence_warns_and_keeps_the_last(self, sphere_setup,
                                                      monkeypatch):
        cloud, index, frames, op = sphere_setup
        iterates = []
        half_step = param_module._half_step

        def recording(*args):
            iterates.append(half_step(*args))
            return iterates[-1]

        monkeypatch.setattr(param_module, "_half_step", recording)
        config = ParamConfig(epsilon=1e-30, max_ns_iters=3)
        with pytest.warns(UserWarning, match="did not converge"):
            images, history, converged = ns_iterate(
                op, cloud.points.copy(), config
            )
        assert not converged
        # three comparisons take five half-steps: the start is never compared
        assert len(history) == 3 and len(iterates) == 5
        assert images is iterates[-1]
        assert history[-1] == _aligned_movement(iterates[4], iterates[2])


class TestBalance:
    def test_lambda_formula(self):
        # d_p = 4, d_s = 1 must scale the north plane by 1/2
        rng = np.random.default_rng(7)
        pts = uniform_sphere(400, seed=8)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        m = parameterize(cloud)
        d_p, d_s = pole_distances(m.images, index, 25)
        lam = np.sqrt(d_p * d_s) / d_p
        scaled = inv_north(lam * proj_north(m.images))
        got = balance(m.images, index, 25)
        np.testing.assert_allclose(got, scaled, atol=1e-12)

    def test_pipeline_map_is_centred(self):
        # the map is the last centred N-S iterate; _centred stops below
        # 1e-12, the final renormalisation moved |mean| by 4e-18 here
        # (7.76e-13 in all), and the x-mirror keeps its norm
        m = parameterize(PointCloud(uniform_sphere(500, seed=9)))
        assert np.linalg.norm(m.images.mean(axis=0)) < 1e-12 + 1e-15

    @pytest.mark.parametrize("scaling", ["balance", "north-4"])
    def test_mobius_scaling_keeps_the_triangulation(self, scaling):
        # a Mobius map keeps circles, so the hull, the induced mesh and
        # its Delaunay ratio do not depend on the gauge; balancing can
        # therefore be left out of the pipeline
        cloud = blob_cloud(1500, 3)
        m = parameterize(cloud)
        if scaling == "balance":
            images = balance(m.images, build_index(cloud), 25)
        else:
            images = inv_north(4.0 * proj_north(m.images))
        moved = replace(m, images=images, delaunay_faces=spherical_delaunay(images).faces)

        def triangles(faces):
            return np.unique(np.sort(faces, axis=1), axis=0)

        np.testing.assert_array_equal(
            triangles(moved.delaunay_faces), triangles(m.delaunay_faces)
        )
        assert delaunay_ratio(induce_mesh(cloud, moved)) == delaunay_ratio(
            induce_mesh(cloud, m)
        )

    def test_pole_spreads_equalized_and_product_preserved(self):
        pts = uniform_sphere(600, seed=10)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        m = parameterize(cloud)
        # skew the map with a deliberate Mobius scaling
        skewed = inv_north(3.0 * proj_north(m.images))
        d_p0, d_s0 = pole_distances(skewed, index, 25)
        rebalanced = balance(skewed, index, 25)
        d_p1, d_s1 = pole_distances(rebalanced, index, 25)
        assert abs(d_p1 - d_s1) <= 1e-9 * max(d_p1, d_s1)
        assert abs(d_p1 * d_s1 - d_p0 * d_s0) <= 1e-9 * d_p0 * d_s0

    def test_degenerate_pole_neighborhood_rejected(self):
        # every image on one point: both pole spreads are 0
        index = build_index(PointCloud(uniform_sphere(50, seed=1)))
        images = np.tile([1.0, 0.0, 0.0], (50, 1))
        with pytest.raises(SphereMeshError,
                           match=r"degenerate pole neighborhood \(d_p=0.0, d_s=0.0\)"):
            balance(images, index, 25)

    def test_cross_ratio_preserved(self):
        pts = uniform_sphere(300, seed=11)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        m = parameterize(cloud)
        skewed = inv_north(0.25 * proj_north(m.images))
        rebalanced = balance(skewed, index, 25)
        w0 = proj_north(skewed)[:4]
        w1 = proj_north(rebalanced)[:4]

        def cross_ratio(w):
            return ((w[0] - w[2]) * (w[1] - w[3])) / ((w[0] - w[3]) * (w[1] - w[2]))

        assert cross_ratio(w1) == pytest.approx(cross_ratio(w0), rel=1e-9)


class TestParameterize:
    def test_planar_cloud_rejected(self):
        rng = np.random.default_rng(12)
        pts = np.column_stack([rng.normal(size=(100, 2)), np.zeros(100)])
        with pytest.raises(PipelineError, match="input validation"):
            parameterize(PointCloud(pts))

    def test_absorbed_images_fail_at_orientation_fix(self):
        # a 12:1 ellipsoid crowds images closer than float64 resolves, so
        # the hull leaves some out; the map must fail in its own stage,
        # not in induce_mesh
        with pytest.raises(PipelineError, match="absorbed") as info, \
                pytest.warns(UserWarning, match="centring stopped after 100 steps"):
            parameterize(ellipsoid_cloud(3000, (12, 1, 1), seed=1))
        assert info.value.stage == "orientation fix"

    def test_one_cap_map_is_not_reported_as_success(self):
        # a small mild ellipsoid whose map does not settle must say so
        pts = uniform_sphere(400, seed=7) * np.array([2.0, 1.0, 0.5])
        with pytest.warns(UserWarning, match="did not converge"):
            m = parameterize(PointCloud(pts))
        assert not m.converged

    @pytest.mark.parametrize("cloud, max_delta", [
        (ellipsoid_cloud(1500, (8, 1, 1), seed=8), 10.0),
        (blob_cloud(5000, 10), 2.0),
    ], ids=["ellipsoid-8-1-1", "blob-5000-10"])
    def test_hard_clouds_map_and_converge(self, cloud, max_delta):
        # the three-point start failed the first at orientation fix and
        # folded the second (57.7 degrees) while reporting convergence
        m = parameterize(cloud)
        assert m.converged and m.history[-1] < 1e-4
        report = quality_report(induce_mesh(cloud, m), sphere_triangulation(m))
        assert report.mean_abs_delta < max_delta

    def test_ellipsoid_converges_within_50(self):
        pts = uniform_sphere(5000, seed=13) * np.array([2.0, 1.0, 1.0])
        m = parameterize(PointCloud(pts))
        assert m.converged
        assert m.iterations <= 50
        assert m.history[-1] < 1e-4

    def test_images_unit_norm(self):
        pts = uniform_sphere(800, seed=14)
        m = parameterize(PointCloud(pts))
        np.testing.assert_allclose(np.linalg.norm(m.images, axis=1), 1.0,
                                   atol=1e-12)

    def test_deterministic(self):
        pts = uniform_sphere(500, seed=15)
        m1 = parameterize(PointCloud(pts))
        m2 = parameterize(PointCloud(pts))
        np.testing.assert_array_equal(m1.images, m2.images)
        assert m1.history == m2.history

    def test_config_fields(self):
        # the weight is the paper's proposed one; there is no setting
        assert [f.name for f in fields(ParamConfig)] == [
            "k", "r_percent", "epsilon", "max_ns_iters"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParamConfig(r_percent=60.0).validate()
        with pytest.raises(ValueError):
            ParamConfig(k=5).validate()
        with pytest.raises(ValueError):
            ParamConfig(epsilon=0.0).validate()

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            ParamConfig(epsilon=epsilon).validate()

    @pytest.mark.parametrize("field", ["k", "max_ns_iters"])
    def test_non_integer_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ParamConfig(**{field: 25.0}).validate()
        # numpy integers are integers
        ParamConfig(**{field: np.int64(25)}).validate()

    @pytest.mark.parametrize("field, value", [
        ("r_percent", "10"), ("r_percent", None), ("r_percent", True),
        ("r_percent", 10j), ("epsilon", None), ("epsilon", "1e-4"),
        ("epsilon", False), ("k", None), ("k", True), ("max_ns_iters", "16"),
    ])
    def test_non_numbers_rejected_by_field(self, field, value):
        config = ParamConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be "):
            config.validate()
        with pytest.raises(ValueError, match=f"^{field} must be "):
            parameterize(blob_cloud(50, 0), config)

    def test_numpy_reals_accepted(self):
        ParamConfig(r_percent=np.float32(10.0), epsilon=np.float64(1e-4)).validate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirrored_cloud_gives_mirrored_map(self, seed):
        # the orientation is decided once, by the induced volume, so a
        # mirror image of the cloud maps to the mirror image of its map
        cloud = blob_cloud(1500, seed)
        mirror = np.array([-1.0, 1.0, 1.0])
        m = parameterize(cloud)
        mirrored = parameterize(PointCloud(cloud.points * mirror))
        assert np.array_equal(mirrored.images, m.images * mirror)

    def test_stage_timings_recorded(self):
        pts = uniform_sphere(400, seed=16)
        m = parameterize(PointCloud(pts))
        assert list(m.stage_seconds) == [
            "input validation", "lb assembly", "initial map",
            "north-south reiteration", "orientation fix",
        ]


def warped_sphere(n, a):
    """``sphere_cloud(n, 1)`` moved by the ball automorphism centred at
    (0, 0, a): still on the unit sphere, so its own conformal map, but
    crowded toward the -z pole as a grows."""
    p = _ball_map(sphere_cloud(n, 1).points, np.array([0.0, 0.0, a]))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


class TestSphereOracle:
    """A cloud on the unit sphere is its own conformal map up to a Mobius
    map, so the centred map must equal the centred cloud up to a
    rotation; ``_aligned_movement`` between them is a true error."""

    # bounds are about twice the errors measured at each cell
    @pytest.mark.parametrize("n, a, bound", [
        (1500, 0.0, 6e-6), (1500, 0.3, 1e-5), (1500, 0.6, 2e-4),
        (5000, 0.0, 2e-5), (5000, 0.3, 7e-6), (5000, 0.6, 1.5e-4),
        (5000, 0.8, 6e-4),
    ])
    def test_map_recovers_the_sphere(self, n, a, bound):
        p = warped_sphere(n, a)
        m = parameterize(PointCloud(p))
        assert m.converged
        assert _aligned_movement(m.images, _centred(p)) < bound

    def test_strongest_warp_of_the_small_cloud_is_not_reported_as_success(self):
        # 5.4e-3 after 16 comparisons: a known defect, kept visible
        p = warped_sphere(1500, 0.8)
        with pytest.warns(UserWarning, match="did not converge"):
            m = parameterize(PointCloud(p))
        assert m.converged is False
        assert _aligned_movement(m.images, _centred(p)) > 1e-3
