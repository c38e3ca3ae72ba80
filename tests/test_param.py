import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from spheremesh import (
    ParamConfig,
    PipelineError,
    PointCloud,
    SphereMeshError,
    balance,
    build_frames,
    build_index,
    initial_map,
    most_regular_triple,
    ns_iterate,
    parameterize,
    pole_distances,
    regularity,
    south_correction,
    triangle_regularity,
)
from spheremesh.laplacian import assemble_lb_from_frames
from spheremesh.param import _outermost, _similarity_targets
from spheremesh.synth import blob_cloud
from spheremesh.projections import inv_north, proj_north

from conftest import uniform_sphere

PI = np.pi


class TestRegularity:
    def test_equilateral_is_zero(self):
        assert regularity([PI / 3, PI / 3, PI / 3]) == 0.0

    def test_right_isosceles(self):
        assert regularity([PI / 2, PI / 4, PI / 4]) == pytest.approx(PI / 3)

    def test_thirty_sixty_ninety(self):
        assert regularity([PI / 2, PI / 3, PI / 6]) == pytest.approx(PI / 3)

    def test_rejects_bad_triples(self):
        with pytest.raises(ValueError):
            regularity([PI / 2, PI / 2, PI / 2])
        with pytest.raises(ValueError):
            regularity([-0.1, PI / 2, PI / 2 + 0.1])

    def test_degenerate_triangle_is_inf(self):
        r = triangle_regularity(
            np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0])
        )
        assert np.isinf(r)

    def test_matches_angle_sum_formula(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.normal(size=(3, 3))
        got = float(triangle_regularity(a, b, c))

        def ang(u, v):
            return np.arccos(
                np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            )

        angles = [ang(b - a, c - a), ang(a - b, c - b), ang(a - c, b - c)]
        assert got == pytest.approx(sum(abs(t - PI / 3) for t in angles), abs=1e-12)


def brute_force_triple(points, neighbor_ids):
    """Oracle: python-loop scan over all stencil pairs with the
    documented lexicographic tie rule."""
    best = (np.inf, None)
    n, k = neighbor_ids.shape
    for s in range(n):
        for i, j in itertools.combinations(range(1, k), 2):
            r = float(
                triangle_regularity(
                    points[neighbor_ids[s, 0]],
                    points[neighbor_ids[s, i]],
                    points[neighbor_ids[s, j]],
                )
            )
            if r < best[0]:
                best = (r, (s, i, j))
    return best


def chunked_scan_triple(points, frames, chunk=512):
    """Reference: score every stencil pair of every chunk exactly, with
    the strict first-occurrence rule of the scan order."""
    nbr = frames.neighbor_ids
    n, k = nbr.shape
    pi_idx, pj_idx = np.triu_indices(k - 1, 1)
    pi_idx, pj_idx = pi_idx + 1, pj_idx + 1
    best_reg, best = np.inf, None
    for start in range(0, n, chunk):
        ids = nbr[start:start + chunk]
        reg = triangle_regularity(
            points[ids[:, 0]][:, None, :], points[ids[:, pi_idx]],
            points[ids[:, pj_idx]],
        )
        flat = np.argmin(reg)
        if reg.ravel()[flat] < best_reg:
            row, pair = np.unravel_index(flat, reg.shape)
            best_reg, best = float(reg.ravel()[flat]), (start + row, pair)
    row, pair = best
    ids = np.array([nbr[row, 0], nbr[row, pi_idx[pair]], nbr[row, pj_idx[pair]]])
    return ids, _similarity_targets(*points[ids])


class TestMostRegularTriple:
    def test_matches_brute_force(self):
        pts = uniform_sphere(60, seed=3)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(8)
        frames = build_frames(pts, idx, dist)
        ids, targets = most_regular_triple(pts, frames.neighbor_ids)
        _, (s, i, j) = brute_force_triple(pts, idx)
        want = [idx[s, 0], idx[s, i], idx[s, j]]
        np.testing.assert_array_equal(ids, want)

    def test_exact_equilateral_wins(self):
        # plant an exactly equilateral triple in a jittered grid
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(40, 3))
        pts[5] = [0.0, 0.0, 0.0]
        pts[6] = [0.1, 0.0, 0.0]
        pts[7] = [0.05, 0.05 * np.sqrt(3.0), 0.0]
        cloud = PointCloud(pts)
        idx, dist = build_index(cloud).knn_arrays(7)
        frames = build_frames(pts, idx, dist)
        ids, _ = most_regular_triple(pts, frames.neighbor_ids)
        assert set(ids) == {5, 6, 7}

    def test_targets_preserve_angles(self):
        pts = uniform_sphere(50, seed=5)
        cloud = PointCloud(pts)
        idx, dist = build_index(cloud).knn_arrays(9)
        frames = build_frames(pts, idx, dist)
        ids, targets = most_regular_triple(pts, frames.neighbor_ids)
        a = triangle_regularity(pts[ids[0]], pts[ids[1]], pts[ids[2]])
        t3 = np.column_stack([targets.real, targets.imag, np.zeros(3)])
        b = triangle_regularity(t3[0], t3[1], t3[2])
        assert abs(float(a) - float(b)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 2])
    def test_pruned_scan_matches_full_scan(self, seed, monkeypatch):
        cloud = blob_cloud(3000, seed=seed)
        idx, dist = build_index(cloud).knn_arrays(25)
        frames = build_frames(cloud.points, idx, dist)
        want_ids, want_targets = chunked_scan_triple(cloud.points, frames)

        import spheremesh.param as param_module

        scored = []

        def counting(a, b, c):
            scored.append(np.shape(a)[0])
            return triangle_regularity(a, b, c)

        monkeypatch.setattr(param_module, "triangle_regularity", counting)
        ids, targets = most_regular_triple(cloud.points, frames.neighbor_ids)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(targets, want_targets)
        # the bound must leave only a small share of the 3000 x 276 pairs
        assert sum(scored) < 0.01 * idx.shape[0] * 276

    @pytest.mark.parametrize("low, high", [(100, 1000), (100, 300), (1000, 100)])
    def test_congruent_tie_goes_to_lowest_row(self, low, high):
        # two exactly congruent equilateral triangles, translated by
        # exact binary offsets so their scores are bit-identical; the
        # stencil of the lower center id comes first in the scan
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, size=(1200, 3))
        tri = np.array(
            [[0.0, 0, 0], [0.125, 0, 0], [0.0625, 0.0625 * np.sqrt(3.0), 0]]
        )
        pts[low:low + 3] = tri + [4.0, 0.0, 0.0]
        pts[high:high + 3] = tri + [8.0, 0.0, 0.0]
        idx, dist = build_index(PointCloud(pts)).knn_arrays(7)
        frames = build_frames(pts, idx, dist)
        ids, _ = most_regular_triple(pts, frames.neighbor_ids)
        first = min(low, high)
        assert set(ids) == {first, first + 1, first + 2}
        np.testing.assert_array_equal(ids, chunked_scan_triple(pts, frames)[0])

    def test_all_degenerate_stencils_rejected(self):
        n, k = 30, 6
        pts = np.column_stack([0.1 * np.arange(n), np.zeros(n), np.zeros(n)])
        nbr = (np.arange(n)[:, None] + np.arange(k)) % n
        with pytest.raises(
            SphereMeshError, match="no non-degenerate stencil triangle found"
        ):
            most_regular_triple(pts, nbr)

    def test_targets_normalized(self):
        p = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.4, 2.0, 0]])
        b = _similarity_targets(p[0], p[1], p[2])
        assert abs(b.mean()) < 1e-15
        sides = [abs(b[0] - b[1]), abs(b[1] - b[2]), abs(b[2] - b[0])]
        assert max(sides) == pytest.approx(1.0)

    def test_targets_are_counterclockwise(self):
        # the targets carry no orientation: every order and mirror image
        # of a triangle gives positive signed area
        rng = np.random.default_rng(8)
        for p in rng.normal(size=(20, 3, 3)):
            for q in (p, p[::-1], p * [-1.0, 1.0, 1.0]):
                b = _similarity_targets(*q)
                u, v = b[1] - b[0], b[2] - b[0]
                assert u.real * v.imag - u.imag * v.real > 0


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
        ids, targets = most_regular_triple(cloud.points, frames.neighbor_ids)
        phi = initial_map(op, ids, targets)
        np.testing.assert_array_equal(phi[ids], targets)
        assert np.isfinite(phi).all()

    def test_south_correction_images_on_sphere(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        ids, targets = most_regular_triple(cloud.points, frames.neighbor_ids)
        phi = initial_map(op, ids, targets)
        images = south_correction(op, phi)
        np.testing.assert_allclose(
            np.linalg.norm(images, axis=1), 1.0, atol=1e-12
        )

    def test_ns_iterate_fixed_point(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        # the identity on a sphere cloud is a perfect conformal map:
        # one iteration's movement already sits below epsilon
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

    def test_south_correction_improves_distortion(self):
        # paired metric: mean angle distortion of the induced mesh after
        # the south-pole correction vs the bare initial lift
        from spheremesh import SurfaceMesh, convex_hull
        from spheremesh.metrics import angle_distortion
        from spheremesh.synth import sphere_cloud

        cloud = sphere_cloud(5000, seed=17)
        idx, dist = build_index(cloud).knn_arrays(25)
        frames = build_frames(cloud.points, idx, dist)
        op = assemble_lb_from_frames(frames)
        ids, targets = most_regular_triple(cloud.points, frames.neighbor_ids)
        phi = initial_map(op, ids, targets)

        def mean_delta(images):
            faces = convex_hull(images)
            _, mean, _ = angle_distortion(
                SurfaceMesh(cloud.points, faces), SurfaceMesh(images, faces)
            )
            return mean

        bare = mean_delta(inv_north(phi - phi.mean()))
        corrected = mean_delta(south_correction(op, phi))
        assert corrected < bare

    def test_non_convergence_warns_and_keeps_best(self, sphere_setup):
        cloud, index, frames, op = sphere_setup
        config = ParamConfig(epsilon=1e-30, max_ns_iters=3)
        with pytest.warns(UserWarning, match="did not converge"):
            images, history, converged = ns_iterate(
                op, cloud.points.copy(), config
            )
        assert not converged
        assert len(history) == 3
        np.testing.assert_allclose(np.linalg.norm(images, axis=1), 1.0,
                                   atol=1e-12)


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

    def test_balanced_map_is_fixed_point(self):
        pts = uniform_sphere(500, seed=9)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        m = parameterize(cloud)  # ends with balance
        again = balance(m.images, index, 25)
        np.testing.assert_allclose(again, m.images, atol=1e-12)

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
        # an 8:1 ellipsoid crowds images so closely that the hull leaves
        # some out; the map must fail in its own stage, not in induce_mesh
        from spheremesh.synth import ellipsoid_cloud

        with pytest.raises(PipelineError, match="absorbed") as info:
            parameterize(ellipsoid_cloud(1500, (8, 1, 1), seed=8))
        assert info.value.stage == "orientation fix"

    @pytest.mark.xfail(
        reason="a small mild ellipsoid maps into one cap and is reported "
        "as converged", strict=True,
    )
    def test_one_cap_map_is_not_reported_as_success(self):
        pts = uniform_sphere(400, seed=7) * np.array([2.0, 1.0, 0.5])
        try:
            m = parameterize(PointCloud(pts))
        except PipelineError:
            return
        # the origin lies inside the hull of the images exactly when every
        # outward hull facet has it on its inner side
        assert np.all(ConvexHull(m.images).equations[:, -1] < 0)

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
        assert "lb assembly" in m.stage_seconds
        assert "north-south reiteration" in m.stage_seconds
