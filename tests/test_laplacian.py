import logging
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

import spheremesh.laplacian as laplacian
from spheremesh import (
    CloudError,
    DegenerateNeighborhoodError,
    IllConditionedStencilError,
    PipelineError,
    PointCloud,
    assemble_lb,
    build_frames,
    build_index,
    lb_coefficients,
    mean_curvature,
    mls_fit,
    parameterize,
)
from spheremesh.cloud import FrameSet, SpatialIndex
from spheremesh.laplacian import SparseOperator, assemble_lb_from_frames, lb_pass
from spheremesh.synth import blob_cloud
from spheremesh.weights import VARIANTS

from conftest import uniform_sphere


def make_frame(coords, heights):
    """One-row FrameSet over explicit in-plane samples with the identity
    basis, center 0."""
    coords = np.asarray(coords, dtype=float)
    heights = np.asarray(heights, dtype=float)
    dists = np.sqrt(np.sum(coords**2, axis=1) + heights**2)
    order = np.lexsort((np.arange(len(dists)), dists))
    e1, e2, e3 = np.eye(3)[:, None]
    return FrameSet(
        e1, e2, e3,
        coords=coords[order][None],
        heights=heights[order][None],
        neighbor_ids=np.arange(len(dists))[order][None],
        neighbor_dists=dists[order][None],
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
        (coefficients,), _, _ = mls_fit(make_frame(coords, heights))
        np.testing.assert_allclose(
            coefficients, [3.0, 2.0, -1.0, 1.0, 0.0, 0.0], atol=1e-9
        )

    def test_zero_heights_zero_coefficients(self):
        coords = stencil_coords(seed=1)
        coefficients, _, _ = mls_fit(make_frame(coords, np.zeros(len(coords))))
        np.testing.assert_allclose(coefficients, 0.0, atol=1e-12)

    def test_polynomial_exactness_all_weights(self):
        rng = np.random.default_rng(2)
        coords = stencil_coords(seed=3)
        x, y = coords[:, 0], coords[:, 1]
        for kind in VARIANTS:
            c = rng.uniform(-2, 2, size=6)
            heights = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
            (coefficients,), _, _ = mls_fit(make_frame(coords, heights), kind)
            np.testing.assert_allclose(coefficients, c, atol=1e-9)

    def test_derivative_rows_exact_on_quadratics(self):
        coords = stencil_coords(seed=4)
        x, y = coords[:, 0], coords[:, 1]
        frame = make_frame(coords, np.zeros(len(coords)))
        _, (derivative_rows,), _ = mls_fit(frame)
        fx, fy = frame.coords[0, :, 0], frame.coords[0, :, 1]
        u = 1.5 - fx + 2.0 * fy + 0.5 * fx * fx - fx * fy + 3.0 * fy * fy
        got = derivative_rows @ u
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
            (c,), _, _ = mls_fit(make_frame(coords, heights))
            return np.hypot(c[1] - 1.0, c[2] + 0.3)

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
        frame = replace(frame, neighbor_ids=frame.neighbor_ids + 7)
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
        op = assemble_lb_from_frames(frame, n_cols=len(coords))
        values = op.matrix.toarray()[0, frame.neighbor_ids[0]]
        u = frame.coords[0, :, 0] ** 2 + frame.coords[0, :, 1] ** 2
        assert values @ u == pytest.approx(4.0, abs=1e-6)

    def test_flat_grid_laplacian_of_squared_radius(self):
        ax = np.linspace(0.0, 1.0, 12)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        cloud = PointCloud(pts)
        op = assemble_lb(cloud, k=25)
        u = pts[:, 0] ** 2 + pts[:, 1] ** 2
        np.testing.assert_allclose(op.matrix @ u, 4.0, atol=1e-4)


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

    @pytest.mark.parametrize("run", [assemble_lb, mean_curvature, parameterize])
    def test_extent_that_overflows_is_named(self, run):
        # antipodal pairs keep the centroid finite, but the distance of a
        # corner from it exceeds the float range
        corners = np.array([[1.0, 1, 1], [1, -1, 1], [1, 1, -1], [-1, 1, 1]])
        cloud = PointCloud(np.stack([corners, -corners], axis=1).reshape(8, 3) * 1.5e308)
        with pytest.raises((CloudError, PipelineError),
                           match="cloud extent inf is not a positive finite number"):
            run(cloud)

    def test_operator_of_a_huge_cloud(self):
        # radius**2 overflows at this scale; two divisions by the radius
        # keep the values
        cloud = blob_cloud(300, seed=0)
        want = assemble_lb(cloud).matrix
        got = assemble_lb(PointCloud(cloud.points * 2e154)).matrix
        assert np.array_equal(got.indices, want.indices)
        scaled = want.data / 2e154 / 2e154
        assert np.abs(got.data - scaled).max() <= 1e-12 * np.abs(scaled).max()

    @pytest.mark.parametrize("factor", [1e160, 1e-165])
    def test_operator_values_out_of_float_range_are_named(self, factor):
        cloud = PointCloud(blob_cloud(300, seed=0).points * factor)
        with pytest.raises(CloudError,
                           match="puts the operator values outside the float range"):
            assemble_lb(cloud)

    def test_tiny_cloud_maps_and_has_curvature(self):
        # the squared offsets of this cloud underflow to 0
        cloud = blob_cloud(300, seed=0)
        tiny = PointCloud(cloud.points * 1e-165)
        assert parameterize(tiny).converged
        want = mean_curvature(cloud)
        np.testing.assert_allclose(mean_curvature(tiny) * 1e-165, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_curvature_of_a_tiny_cloud(self):
        # the raw stencils' covariances would underflow to 0
        pts = uniform_sphere(500, seed=11)
        want = mean_curvature(PointCloud(pts))
        got = mean_curvature(PointCloud(pts * 1e-160))
        np.testing.assert_allclose(got * 1e-160, want, rtol=1e-12)

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


def planted_cloud(stencil, at=40):
    """A 100-point sphere cloud with the rows of ``stencil`` inserted at
    ids ``at``.. and moved far off, so that they form each other's
    k-stencil for k = len(stencil)."""
    pts = uniform_sphere(100, seed=23)
    return PointCloud(np.vstack([pts[:at], stencil + [5.0, 0.0, 0.0], pts[at:]]))


class TestStencilPass:
    """The blocked pass gives the same answer whatever the block size."""

    def test_operator_and_curvature_do_not_depend_on_block_size(self, monkeypatch):
        cloud = blob_cloud(700, seed=3)
        results = []
        for size in (7, 700, 10_000):
            monkeypatch.setattr(laplacian, "_BLOCK", size)
            op = lb_pass(build_index(cloud), 25)
            results.append((assemble_lb(cloud).matrix, mean_curvature(cloud),
                            op.condition))
        (m0, h0, c0), *rest = results
        for m, h, c in rest:
            assert m.indices.dtype == m0.indices.dtype
            assert np.array_equal(m.indptr, m0.indptr)
            assert np.array_equal(m.indices, m0.indices)
            assert np.array_equal(m.data, m0.data)
            for got, want in ((h, h0), (c, c0)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", [7, 300])
    def test_blocked_rows_match_whole_cloud_frames(self, size, monkeypatch):
        monkeypatch.setattr(laplacian, "_BLOCK", size)
        cloud = PointCloud(uniform_sphere(300, seed=24))
        index = build_index(cloud)
        op = lb_pass(index, 15)
        frames = build_frames(cloud.points, *index.knn_arrays(15))
        whole = assemble_lb_from_frames(frames)
        assert np.array_equal(op.matrix.data, whole.matrix.data)
        assert np.array_equal(op.matrix.indices, whole.matrix.indices)
        assert np.array_equal(op.condition, whole.condition)

    def test_rows_of_uneven_length(self, monkeypatch):
        # a block may hand back rows of any length: here every third row
        # of each block loses its last off-diagonal entry
        monkeypatch.setattr(laplacian, "_BLOCK", 64)
        blocks = []

        def dropping(frames, weight, n_cols):
            m = assemble_lb_from_frames(frames, weight, n_cols).matrix
            rows = np.arange(0, m.shape[0], 3)
            last = m.indptr[rows + 1] - 1
            last -= m.indices[last] == frames.neighbor_ids[rows, 0]  # keep the diagonal
            keep = np.ones(m.nnz, dtype=bool)
            keep[last] = False
            lengths = np.diff(m.indptr)
            lengths[rows] -= 1
            block = sparse.csr_matrix(
                (m.data[keep], m.indices[keep], np.concatenate([[0], np.cumsum(lengths)])),
                shape=m.shape,
            )
            blocks.append(block)
            return SparseOperator(block, np.ones(m.shape[0]))

        op = lb_pass(build_index(blob_cloud(300, seed=0)), 15, assemble_fn=dropping)
        want = sparse.vstack(blocks, format="csr")
        assert len(blocks) == 5
        assert set(np.diff(op.matrix.indptr)) == {14, 15}
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op.matrix, name), getattr(want, name))

    def test_queries_stay_within_one_block(self, monkeypatch):
        # no whole-cloud k-NN (and so no whole-cloud frames) on the
        # assembly, curvature or parameterization paths
        monkeypatch.setattr(laplacian, "_BLOCK", 64)
        asked = []
        original = SpatialIndex.knn_arrays

        def recording(self, k, rows=slice(None)):
            ids, dists = original(self, k, rows)
            asked.append(len(ids))
            return ids, dists

        monkeypatch.setattr(SpatialIndex, "knn_arrays", recording)
        cloud = blob_cloud(300, seed=5)
        for run in (assemble_lb, mean_curvature, parameterize):
            asked.clear()
            run(cloud)
            assert max(asked) <= 64
            assert sum(asked) >= cloud.n

    @staticmethod
    def failures(cloud, error, monkeypatch):
        """Messages of assemble_lb and mean_curvature at block size 7,
        then at one block for the whole cloud."""
        messages = []
        for size in (7, cloud.n):
            monkeypatch.setattr(laplacian, "_BLOCK", size)
            for run in (assemble_lb, mean_curvature):
                with pytest.raises(error) as exc:
                    run(cloud, k=10)
                messages.append(str(exc.value))
        return messages

    def test_ill_conditioned_stencil_in_a_later_block(self, monkeypatch):
        # ten coplanar points on one circle: the circle is a conic, so
        # the degree-2 design matrix loses rank, but PCA sees a plane
        theta = 2.0 * np.pi * np.arange(10) / 10
        ring = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(10)])
        messages = self.failures(
            planted_cloud(0.1 * ring), IllConditionedStencilError, monkeypatch
        )
        for message in messages:
            assert re.match(r"ill-conditioned stencil at point 40 \(condition ",
                            message)
        # assemble_lb and mean_curvature both fit the normalized cloud;
        # each message is the same at both block sizes
        assert messages[:2] == messages[2:]

    def test_collinear_stencil_in_a_later_block(self, monkeypatch):
        line = np.column_stack([0.1 * np.arange(10), np.zeros(10), np.zeros(10)])
        messages = self.failures(
            planted_cloud(line), DegenerateNeighborhoodError, monkeypatch
        )
        assert messages[0].startswith("degenerate neighborhood at point 40 ")
        assert messages[:2] == messages[2:]

    def test_debug_line_per_assembly(self, caplog, monkeypatch):
        monkeypatch.setattr(laplacian, "_BLOCK", 128)
        cloud = PointCloud(uniform_sphere(300, seed=25))
        with caplog.at_level(logging.DEBUG, logger="spheremesh.laplacian"):
            op = assemble_lb(cloud, k=15)
        (record,) = caplog.records
        message = record.getMessage()
        for field_ in ("n=300 ", "k=15 ", "blocks=3 ", "nnz=4500 ",
                       f"condition_max={op.condition.max():.3g} ",
                       f"condition_median={np.median(op.condition):.3g}"):
            assert field_ in message
        assert 1.0 <= op.condition.min() <= op.condition.max() < 1e12

    @staticmethod
    def traced_peak(run, cloud):
        # numpy reports its buffers to tracemalloc, so the peak is
        # deterministic; SuperLU's own allocations are not traced
        tracemalloc.start()
        try:
            run(cloud)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_stays_per_block(self):
        # 13.2 MB at 512 stencils per block, 21.6 MB at 2048; whole-cloud
        # (n, 25, 6) fit arrays read ~147 MB
        assert self.traced_peak(assemble_lb, blob_cloud(20000, seed=0)) < 16e6

    def test_parameterize_peak_memory(self):
        # the remesh benchmark's set-up map: 5.5 MB at 512 stencils per
        # block, 16.6 MB at 2048, where one block's fit set the peak
        assert self.traced_peak(parameterize, blob_cloud(5000, seed=0)) < 8.5e6
