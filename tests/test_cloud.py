import numpy as np
import pytest

from spheremesh import (
    CloudError,
    DegenerateNeighborhoodError,
    PipelineError,
    PointCloud,
    assemble_lb,
    build_frames,
    build_index,
    parameterize,
)
from spheremesh.cloud import row_cross, row_dot

TETRA = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def brute_force_knn(points, center, k):
    """Independent oracle: O(n^2) scan ranked by (squared distance, id)."""
    d2 = np.sum((points - points[center]) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[:k], np.sqrt(d2[order[:k]])


def row_samples(layout):
    """(4000, 3) rows with magnitudes from 1e-300 to 1e150, some rows and
    entries zero, as a C-ordered array, an F-ordered one, or a
    (4000, 5, 3) view that repeats each row with stride 0."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-300, 150, size=(4000, 1))
    x[::97] = 0.0
    x[5::11, 1] = 0.0
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "broadcast":
        return np.broadcast_to(x[:, None], (4000, 5, 3))
    return x


class TestRowDot:
    """``row_dot`` and the ``np.minimum`` chain against the numpy
    reductions over a length-3 axis that they replace, bit for bit."""

    @pytest.mark.parametrize("layout", ["C", "F", "broadcast"])
    def test_equals_numpy_reductions(self, layout):
        x = row_samples(layout)
        y = row_samples("C")[::-1]
        if x.ndim == 3:
            # (m, 1, 3) against (m, k, 3), as a ray test pairs samples and faces
            y = y[:, None]
        np.testing.assert_array_equal(np.sqrt(row_dot(x, x)), np.linalg.norm(x, axis=-1))
        np.testing.assert_array_equal(row_dot(x, x), np.sum(x * x, axis=-1))
        np.testing.assert_array_equal(row_dot(x, y), np.sum(x * y, axis=-1))
        np.testing.assert_array_equal(
            np.minimum(np.minimum(x[..., 0], x[..., 1]), x[..., 2]), x.min(axis=-1)
        )


class TestRowCross:
    """``row_cross`` against ``np.cross``, bit for bit."""

    @pytest.mark.parametrize("layout", ["C", "F", "broadcast"])
    def test_equals_np_cross(self, layout):
        x = row_samples(layout)
        y = row_samples("C")[::-1]
        if x.ndim == 3:
            y = y[:, None]
        want = np.cross(x, y)
        got = row_cross(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert row_cross(y, x).tobytes() == np.cross(y, x).tobytes()

    def test_writes_a_strided_out_view(self):
        x, y = row_samples("F"), row_samples("C")[::-1]
        table = np.full((len(x), 7), 7.0)
        out = table[:, 2:5]
        assert row_cross(x, y, out=out) is out
        assert out.tobytes() == np.cross(x, y).tobytes()
        assert (table[:, [0, 1, 5, 6]] == 7.0).all()

    def test_zero_rows(self):
        x = row_samples("C")
        zero = np.zeros_like(x)
        assert row_cross(x, zero).tobytes() == np.cross(x, zero).tobytes()
        assert row_cross(x, x).tobytes() == np.cross(x, x).tobytes()


class TestPointCloud:
    def test_rejects_too_few_points(self):
        with pytest.raises(CloudError):
            PointCloud(TETRA[:3])

    def test_rejects_duplicates_naming_both(self):
        pts = np.vstack([TETRA, TETRA[1]])
        with pytest.raises(CloudError, match="1 and 4"):
            PointCloud(pts)

    def test_rejects_non_finite(self):
        pts = TETRA.copy()
        pts[2, 1] = np.nan
        with pytest.raises(CloudError):
            PointCloud(pts)

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_normalized_accepts_a_representable_extent(self, factor):
        # the squared offsets would overflow to inf or underflow to 0
        norm, _, radius = PointCloud(TETRA * factor).normalized()
        want, _, unit = PointCloud(TETRA).normalized()
        assert radius == pytest.approx(unit * factor, rel=1e-15)
        np.testing.assert_allclose(norm.points, want.points, rtol=0, atol=1e-15)

    def test_overflowing_cloud_raises_cloud_error(self):
        # the coordinates sum past the float range; the suite turns a
        # numpy overflow warning into an error, so none may be emitted
        cloud = PointCloud(np.column_stack([
            [1.7e308, 1.6e308, 1.5e308, 1.4e308, 1.3e308], [0, 1, 0, 1, 2], [0, 0, 1, 1, 0.5],
        ]))
        with pytest.raises(CloudError, match="cloud extent inf"):
            cloud.normalized()
        with pytest.raises(PipelineError, match="cloud extent inf") as info:
            parameterize(cloud)
        assert info.value.stage == "input validation"
        with pytest.raises(CloudError, match="cloud extent inf"):
            assemble_lb(cloud)

    def test_normalized_roundtrip(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(50, 3)) * 7.0 + 100.0)
        norm, center, radius = cloud.normalized()
        assert norm.bounding_radius() == pytest.approx(1.0)
        back = center + radius * norm.points
        np.testing.assert_allclose(back, cloud.points, atol=1e-12 * radius)


class TestKnn:
    def test_tetrahedron_all_points_self_first(self):
        cloud = PointCloud(TETRA)
        index = build_index(cloud)
        for i in range(4):
            (indices,), (distances,) = index.knn_arrays(4, [i])
            assert indices[0] == i
            assert distances[0] == 0.0
            assert set(indices) == {0, 1, 2, 3}

    def test_grid_interior_point_axis_neighbors(self):
        ax = np.arange(5, dtype=float)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(25)])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        center = 12  # (2, 2)
        (indices,), _ = index.knn_arrays(5, [center])
        assert indices[0] == center
        assert set(indices[1:]) == {7, 11, 13, 17}

    def test_k_equals_n_whole_cloud_sorted(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        index = build_index(cloud)
        (indices,), (distances,) = index.knn_arrays(40, [5])
        assert np.all(np.diff(distances) >= 0)
        assert sorted(indices) == list(range(40))

    def test_ties_broken_by_ascending_id(self):
        # grid symmetries create exact distance ties
        ax = np.arange(4, dtype=float)
        xx, yy, zz = np.meshgrid(ax, ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        for center in [0, 21, 37, 63]:
            for k in [3, 7, 10]:
                (got_idx,), (got_d,) = index.knn_arrays(k, [center])
                want_idx, want_d = brute_force_knn(pts, center, k)
                np.testing.assert_array_equal(got_idx, want_idx)
                np.testing.assert_allclose(got_d, want_d, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_tie_past_the_candidate_window_widens_the_query(self, k):
        # the query asks for k + 1 candidates; on a square grid the k-th and
        # (k + 1)-th neighbours of a point tie, so the window is widened
        ax = np.arange(5, dtype=float)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(25)])
        index = build_index(PointCloud(pts))
        tree, windows = index._tree, []

        class Counted:
            def query(self, q, k):
                windows.append(k)
                return tree.query(q, k=k)

        index._tree = Counted()
        idx, dist = index.knn_arrays(k)
        assert windows[0] == k + 1 and len(windows) > 1
        for center in range(25):
            want_idx, want_d = brute_force_knn(pts, center, k)
            np.testing.assert_array_equal(idx[center], want_idx)
            np.testing.assert_allclose(dist[center], want_d, atol=1e-12)

    def test_unranked_rows_match_a_full_lexsort(self):
        # a grid (exact distance ties) beside a random blob (none): only the
        # rows the tree leaves unordered are re-ranked, and every row must
        # equal a full (squared distance, id) lexsort of all candidates
        ax = np.arange(4, dtype=float)
        grid = np.column_stack([a.ravel() for a in np.meshgrid(ax, ax, ax)])
        blob = np.random.default_rng(5).normal(10.0, 1.0, size=(200, 3))
        pts = np.vstack([grid, blob])
        index, k = build_index(PointCloud(pts)), 10
        _, raw = index._tree.query(pts, k=k + 1)
        raw_d2 = np.sum((pts[raw] - pts[:, None, :]) ** 2, axis=2)
        ascending = np.all(raw_d2[:, 1:] > raw_d2[:, :-1], axis=1)
        assert ascending.any() and not ascending.all()
        cand = np.broadcast_to(np.arange(len(pts)), (len(pts), len(pts)))
        d2 = np.sum((pts[cand] - pts[:, None, :]) ** 2, axis=2)
        order = np.lexsort((cand, d2), axis=1)[:, :k]
        idx, dist = index.knn_arrays(k)
        np.testing.assert_array_equal(idx, np.take_along_axis(cand, order, axis=1))
        np.testing.assert_array_equal(dist, np.sqrt(np.take_along_axis(d2, order, axis=1)))

    def test_matches_brute_force_on_random_cloud(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(1000, 3))
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(25)
        for center in range(0, 1000, 31):
            want_idx, want_d = brute_force_knn(pts, center, 25)
            np.testing.assert_array_equal(idx[center], want_idx)
            np.testing.assert_allclose(dist[center], want_d, atol=1e-12)
            # a one-row query is the same row of the whole-cloud one
            one_idx, one_d = index.knn_arrays(25, [center])
            assert np.array_equal(one_idx[0], idx[center])
            assert np.array_equal(one_d[0], dist[center])

    def test_insufficient_points(self):
        cloud = PointCloud(TETRA)
        index = build_index(cloud)
        with pytest.raises(CloudError, match="insufficient points"):
            index.knn_arrays(5, [0])


def one_frame(cloud, center, k):
    """The PCA frame of one stencil: a one-row batch."""
    return build_frames(cloud.points, *build_index(cloud).knn_arrays(k, [center]))


class TestLocalFrame:
    def test_planar_neighbors_normal_is_z(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
        pts[0] = 0.0
        frame = one_frame(PointCloud(pts), 0, 12)
        assert abs(abs(frame.e3[0, 2]) - 1.0) < 1e-12
        np.testing.assert_allclose(frame.heights, 0.0, atol=1e-12)

    def test_parabolic_graph_heights(self):
        # symmetric grid on z = x^2: covariance block-decouples, so the
        # PCA normal is exactly +-z and heights reproduce the graph
        ax = np.linspace(-0.1, 0.1, 5)
        xx, yy = np.meshgrid(ax, ax)
        x, y = xx.ravel(), yy.ravel()
        pts = np.column_stack([x, y, x**2])
        order = np.argsort(np.hypot(x, y), kind="stable")
        pts = pts[order]  # center (0,0) first
        frame = one_frame(PointCloud(pts), 0, len(pts))
        sign = np.sign(frame.e3[0, 2])
        graph = pts[frame.neighbor_ids[0], 0] ** 2 - pts[0, 2]
        np.testing.assert_allclose(sign * frame.heights[0], graph, atol=1e-10)

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3)) * 3.0
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(15)
        frames = build_frames(pts, idx, dist)
        scale = cloud.bounding_radius()
        for i in [0, 57, 133]:
            rebuilt = (
                pts[i]
                + frames.coords[i, :, :1] * frames.e1[i]
                + frames.coords[i, :, 1:] * frames.e2[i]
                + frames.heights[i, :, None] * frames.e3[i]
            )
            np.testing.assert_allclose(rebuilt, pts[idx[i]], atol=1e-12 * scale)

    def test_basis_orthonormal_right_handed(self):
        rng = np.random.default_rng(6)
        frame = one_frame(PointCloud(rng.normal(size=(60, 3))), 3, 10)
        b = np.vstack([frame.e1, frame.e2, frame.e3])
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.cross(b[0], b[1]), b[2], atol=1e-12)

    def test_collinear_neighborhood_rejected(self):
        t = np.linspace(0.0, 1.0, 12)
        pts = np.column_stack([t, 2 * t, -t])
        cloud = PointCloud(pts)
        with pytest.raises(DegenerateNeighborhoodError, match="degenerate"):
            one_frame(cloud, 0, 8)
        # the message names the center point, not the row of the batch
        idx, dist = build_index(cloud).knn_arrays(8)
        with pytest.raises(DegenerateNeighborhoodError, match="at point 5 "):
            build_frames(pts, idx[5:6], dist[5:6])
