from dataclasses import replace

import numpy as np
import pytest

from spheremesh import (
    CloudError,
    IllConditionedStencilError,
    LocalFrame,
    PointCloud,
    Weight,
    assemble_lb,
    build_frames,
    build_index,
    lb_coefficients,
    lb_row,
    mls_fit,
)
from spheremesh.laplacian import assemble_lb_from_frames

from conftest import uniform_sphere


def make_frame(coords, heights):
    """LocalFrame over explicit in-plane samples with the identity basis."""
    coords = np.asarray(coords, dtype=float)
    heights = np.asarray(heights, dtype=float)
    dists = np.sqrt(np.sum(coords**2, axis=1) + heights**2)
    order = np.lexsort((np.arange(len(dists)), dists))
    return LocalFrame(
        center=0,
        basis=np.eye(3),
        local_coords=coords[order],
        heights=heights[order],
        neighbor_ids=np.arange(len(dists))[order],
        neighbor_dists=dists[order],
    )


def stencil_coords(n=25, seed=0, radius=0.5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(n - 1, 2))
    return np.vstack([[0.0, 0.0], pts])


class TestMlsFit:
    def test_reproduces_basis_member(self):
        coords = stencil_coords()
        x, y = coords[:, 0], coords[:, 1]
        heights = 3.0 + 2.0 * x - y + x * x
        fit = mls_fit(make_frame(coords, heights))
        np.testing.assert_allclose(
            fit.coefficients, [3.0, 2.0, -1.0, 1.0, 0.0, 0.0], atol=1e-9
        )

    def test_zero_heights_zero_coefficients(self):
        coords = stencil_coords(seed=1)
        fit = mls_fit(make_frame(coords, np.zeros(len(coords))))
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-12)

    def test_polynomial_exactness_all_weights(self):
        rng = np.random.default_rng(2)
        coords = stencil_coords(seed=3)
        x, y = coords[:, 0], coords[:, 1]
        for kind in ("constant", "exponential", "inverse_square", "wendland",
                     "special", "proposed"):
            c = rng.uniform(-2, 2, size=6)
            heights = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
            fit = mls_fit(make_frame(coords, heights), Weight(kind))
            np.testing.assert_allclose(fit.coefficients, c, atol=1e-9)

    def test_derivative_rows_exact_on_quadratics(self):
        coords = stencil_coords(seed=4)
        x, y = coords[:, 0], coords[:, 1]
        frame = make_frame(coords, np.zeros(len(coords)))
        fit = mls_fit(frame)
        fx, fy = frame.local_coords[:, 0], frame.local_coords[:, 1]
        u = 1.5 - fx + 2.0 * fy + 0.5 * fx * fx - fx * fy + 3.0 * fy * fy
        got = fit.derivative_rows @ u
        np.testing.assert_allclose(got, [-1.0, 2.0, 1.0, -1.0, 6.0], atol=1e-9)

    def test_first_derivative_convergence_on_cubic(self):
        # independent oracle: analytic derivatives of a cubic graph; the
        # degree-2 fit error at the center should shrink ~O(h^2)
        def error_at(h):
            ax = np.linspace(-2 * h, 2 * h, 5)
            xx, yy = np.meshgrid(ax, ax)
            coords = np.column_stack([xx.ravel(), yy.ravel()])
            x, y = coords[:, 0], coords[:, 1]
            heights = x**3 - 2 * x * y**2 + 0.5 * y**3 + x - 0.3 * y
            fit = mls_fit(make_frame(coords, heights))
            return np.hypot(fit.coefficients[1] - 1.0, fit.coefficients[2] + 0.3)

        e1, e2 = error_at(0.1), error_at(0.05)
        assert e2 < e1 / 2.0

    def test_too_small_stencil(self):
        coords = stencil_coords(n=6, seed=5)
        with pytest.raises(IllConditionedStencilError):
            mls_fit(make_frame(coords, np.zeros(6)))

    def test_ill_conditioned_stencil(self):
        # all stencil points on a line: quadratic basis is rank-deficient
        t = np.linspace(0, 1, 9)
        coords = np.column_stack([t, 2 * t])
        with pytest.raises(IllConditionedStencilError, match="ill-conditioned"):
            mls_fit(make_frame(coords, np.zeros(9)))
        # the message names the stencil's center point
        frame = make_frame(coords, np.zeros(9))
        frame = replace(frame, center=7, neighbor_ids=frame.neighbor_ids + 7)
        with pytest.raises(IllConditionedStencilError, match="at point 7 "):
            mls_fit(frame)


class TestLbCoefficients:
    def test_flat_patch(self):
        a = lb_coefficients(0.0, 0.0, 0.3, -0.2, 0.9)
        # first-order terms vanish with p = q = 0; metric terms are the identity
        assert a[0] == 0.0 and a[1] == 0.0
        assert (a[2], a[3], a[4]) == (1.0, 0.0, 1.0)

    def test_matches_divergence_form_finite_differences(self):
        # independent oracle: central differences of the divergence form
        # (1/W) sum_ij d_i(g^ij W d_j u) for analytic f and u
        rng = np.random.default_rng(8)
        cf = rng.uniform(-1, 1, size=6)
        cu = rng.uniform(-1, 1, size=6)

        def poly(c, x, y):
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        def grads(c, x, y):
            return (
                c[1] + 2 * c[3] * x + c[4] * y,
                c[2] + c[4] * x + 2 * c[5] * y,
            )

        def flux(x, y):
            p, q = grads(cf, x, y)
            ux, uy = grads(cu, x, y)
            w = np.sqrt(1 + p * p + q * q)
            g11, g12, g22 = (1 + q * q) / w**2, -p * q / w**2, (1 + p * p) / w**2
            return (
                (g11 * ux + g12 * uy) * w,
                (g12 * ux + g22 * uy) * w,
            )

        x0, y0 = 0.37, -0.21
        eps = 1e-6
        div = (
            (flux(x0 + eps, y0)[0] - flux(x0 - eps, y0)[0]) / (2 * eps)
            + (flux(x0, y0 + eps)[1] - flux(x0, y0 - eps)[1]) / (2 * eps)
        )
        p, q = grads(cf, x0, y0)
        want = div / np.sqrt(1 + p * p + q * q)

        a = lb_coefficients(p, q, 2 * cf[3], cf[4], 2 * cf[5])
        ux, uy = grads(cu, x0, y0)
        got = a[0] * ux + a[1] * uy + a[2] * 2 * cu[3] + a[3] * cu[4] + a[4] * 2 * cu[5]
        assert got == pytest.approx(want, rel=1e-7)

    def test_sphere_eigenvalue_identity_closed_form(self):
        # on the graph f = sqrt(1 - x^2 - y^2), Delta z = -2 z exactly
        x0, y0 = 0.3, 0.2
        f0 = np.sqrt(1 - x0 * x0 - y0 * y0)
        p, q = -x0 / f0, -y0 / f0
        r = -1 / f0 - x0 * x0 / f0**3
        s = -x0 * y0 / f0**3
        t = -1 / f0 - y0 * y0 / f0**3
        a = lb_coefficients(p, q, r, s, t)
        lap = a[0] * p + a[1] * q + a[2] * r + a[3] * s + a[4] * t
        assert lap == pytest.approx(-2.0 * f0, rel=1e-12)


class TestLbRow:
    def test_flat_patch_realizes_planar_laplacian(self):
        coords = stencil_coords(seed=6)
        frame = make_frame(coords, np.zeros(len(coords)))
        fit = mls_fit(frame)
        stencil, values = lb_row(frame, fit)
        u = frame.local_coords[:, 0] ** 2 + frame.local_coords[:, 1] ** 2
        assert values @ u == pytest.approx(4.0, abs=1e-6)

    def test_flat_grid_laplacian_of_squared_radius(self):
        ax = np.linspace(0.0, 1.0, 12)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        cloud = PointCloud(pts)
        op = assemble_lb(cloud, k=25)
        u = pts[:, 0] ** 2 + pts[:, 1] ** 2
        np.testing.assert_allclose(op.matrix @ u, 4.0, atol=1e-4)

    def test_rows_of_the_assembled_operator(self):
        # the single-stencil fit and row are the batched assembly's row,
        # unscaled and in stencil order
        pts = uniform_sphere(400, seed=16)
        idx, dist = build_index(PointCloud(pts)).knn_arrays(15)
        frames = build_frames(pts, idx, dist)
        op = assemble_lb_from_frames(frames)
        for i in [0, 123, 399]:
            frame = frames.frame(i)
            stencil, values = lb_row(frame, mls_fit(frame))
            assert np.array_equal(stencil, idx[i])
            assert np.array_equal(values, op.matrix[i, stencil].toarray()[0])


@pytest.fixture(scope="module")
def sphere_operator():
    cloud = PointCloud(uniform_sphere(10000, seed=7))
    return cloud, assemble_lb(cloud, k=25)


class TestAssemble:
    def test_shape_and_stencil_size(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(300, 3)))
        op = assemble_lb(cloud, k=12)
        assert op.matrix.shape == (300, 300)
        row_sizes = np.diff(op.matrix.indptr)
        assert row_sizes.max() <= 12

    def test_annihilates_constants(self, sphere_operator):
        _, op = sphere_operator
        leak = np.abs(op.matrix @ np.ones(op.n)).max()
        row_scale = np.abs(op.matrix).sum(axis=1).max()
        assert leak <= 1e-8 * row_scale

    def test_sphere_rayleigh_quotients(self, sphere_operator):
        cloud, op = sphere_operator
        for axis in range(3):
            u = cloud.points[:, axis]
            rq = (u @ (op.matrix @ u)) / (u @ u)
            assert -2.4 < rq < -1.6

    def test_sphere_pointwise_eigenfunction(self, sphere_operator):
        cloud, op = sphere_operator
        u = cloud.points[:, 2]
        lap = op.matrix @ u
        for i in np.flatnonzero(np.abs(u) > 0.5)[:200]:
            assert abs(lap[i] + 2.0 * u[i]) <= 0.1 * abs(2.0 * u[i])

    def test_scale_and_translation_covariance(self):
        # Delta scales by 1/sigma^2 under uniform scaling, invariant to shifts
        rng = np.random.default_rng(10)
        pts = uniform_sphere(500, seed=11)
        op1 = assemble_lb(PointCloud(pts), k=20)
        op2 = assemble_lb(PointCloud(pts * 5.0 + np.array([3.0, -1.0, 2.0])), k=20)
        np.testing.assert_allclose(
            op2.matrix.toarray() * 25.0, op1.matrix.toarray(), atol=1e-9 * 1e3
        )

    def test_normal_flip_invariance(self):
        pts = uniform_sphere(400, seed=12)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(15)
        frames = build_frames(pts, idx, dist)
        op = assemble_lb_from_frames(frames)
        # mirror every frame: swap e1/e2, negate e3 (still right-handed)
        from spheremesh import FrameSet

        flipped = FrameSet(
            frames.e2, frames.e1, -frames.e3,
            frames.coords[:, :, ::-1].copy(), -frames.heights,
            idx, dist,
        )
        op2 = assemble_lb_from_frames(flipped)
        scale = np.abs(op.matrix.data).max()
        np.testing.assert_allclose(
            op2.matrix.toarray(), op.matrix.toarray(), atol=1e-9 * scale
        )

    def test_inplane_rotation_invariance(self):
        pts = uniform_sphere(400, seed=13)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(15)
        frames = build_frames(pts, idx, dist)
        op = assemble_lb_from_frames(frames)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        x, y = frames.coords[:, :, 0], frames.coords[:, :, 1]
        from spheremesh import FrameSet

        rot = FrameSet(
            c * frames.e1 + s * frames.e2, -s * frames.e1 + c * frames.e2,
            frames.e3,
            np.stack([c * x + s * y, -s * x + c * y], axis=2), frames.heights,
            idx, dist,
        )
        op2 = assemble_lb_from_frames(rot)
        scale = np.abs(op.matrix.data).max()
        np.testing.assert_allclose(
            op2.matrix.toarray(), op.matrix.toarray(), atol=1e-8 * scale
        )

    def test_k_exceeding_n(self):
        cloud = PointCloud(uniform_sphere(10, seed=14))
        with pytest.raises(CloudError, match="insufficient points"):
            assemble_lb(cloud, k=11)
