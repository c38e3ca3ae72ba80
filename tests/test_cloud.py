import numpy as np
import pytest

from spheremesh import (
    CloudError,
    DegenerateNeighborhoodError,
    PointCloud,
    build_frames,
    build_index,
    knn,
    local_frame,
)

TETRA = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def brute_force_knn(points, center, k):
    """Independent oracle: O(n^2) scan ranked by (squared distance, id)."""
    d2 = np.sum((points - points[center]) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[:k], np.sqrt(d2[order[:k]])


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
            nbrs = knn(index, i, 4)
            assert nbrs.indices[0] == i
            assert nbrs.distances[0] == 0.0
            assert set(nbrs.indices) == {0, 1, 2, 3}

    def test_grid_interior_point_axis_neighbors(self):
        ax = np.arange(5, dtype=float)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(25)])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        center = 12  # (2, 2)
        nbrs = knn(index, center, 5)
        assert nbrs.indices[0] == center
        assert set(nbrs.indices[1:]) == {7, 11, 13, 17}

    def test_k_equals_n_whole_cloud_sorted(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        index = build_index(cloud)
        nbrs = knn(index, 5, 40)
        assert np.all(np.diff(nbrs.distances) >= 0)
        assert sorted(nbrs.indices) == list(range(40))

    def test_ties_broken_by_ascending_id(self):
        # grid symmetries create exact distance ties
        ax = np.arange(4, dtype=float)
        xx, yy, zz = np.meshgrid(ax, ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        for center in [0, 21, 37, 63]:
            for k in [3, 7, 10]:
                got = knn(index, center, k)
                want_idx, want_d = brute_force_knn(pts, center, k)
                np.testing.assert_array_equal(got.indices, want_idx)
                np.testing.assert_allclose(got.distances, want_d, atol=1e-12)

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
            # the single-point query is one row of the batched one
            nbrs = knn(index, center, 25)
            assert np.array_equal(nbrs.indices, idx[center])
            assert np.array_equal(nbrs.distances, dist[center])

    def test_insufficient_points(self):
        cloud = PointCloud(TETRA)
        index = build_index(cloud)
        with pytest.raises(CloudError, match="insufficient points"):
            knn(index, 0, 5)


class TestLocalFrame:
    def test_planar_neighbors_normal_is_z(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
        pts[0] = 0.0
        cloud = PointCloud(pts)
        nbrs = knn(build_index(cloud), 0, 12)
        frame = local_frame(cloud, nbrs)
        assert abs(abs(frame.basis[2, 2]) - 1.0) < 1e-12
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
        cloud = PointCloud(pts)
        nbrs = knn(build_index(cloud), 0, len(pts))
        frame = local_frame(cloud, nbrs)
        sign = np.sign(frame.basis[2, 2])
        graph = pts[nbrs.indices, 0] ** 2 - pts[0, 2]
        np.testing.assert_allclose(sign * frame.heights, graph, atol=1e-10)

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 3)) * 3.0
        cloud = PointCloud(pts)
        index = build_index(cloud)
        idx, dist = index.knn_arrays(15)
        frames = build_frames(pts, idx, dist)
        scale = cloud.bounding_radius()
        for i in [0, 57, 133]:
            f = frames.frame(i)
            rebuilt = (
                pts[i]
                + f.local_coords[:, :1] * f.basis[0]
                + f.local_coords[:, 1:] * f.basis[1]
                + f.heights[:, None] * f.basis[2]
            )
            np.testing.assert_allclose(rebuilt, pts[idx[i]], atol=1e-12 * scale)
            # the single-point frame is one row of the batched frames
            single = local_frame(cloud, knn(index, i, 15))
            assert single.center == f.center == i
            for name in ("basis", "local_coords", "heights", "neighbor_ids",
                         "neighbor_dists"):
                assert np.array_equal(getattr(single, name), getattr(f, name))

    def test_basis_orthonormal_right_handed(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.normal(size=(60, 3)))
        nbrs = knn(build_index(cloud), 3, 10)
        frame = local_frame(cloud, nbrs)
        b = frame.basis
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.cross(b[0], b[1]), b[2], atol=1e-12)

    def test_collinear_neighborhood_rejected(self):
        t = np.linspace(0.0, 1.0, 12)
        pts = np.column_stack([t, 2 * t, -t])
        cloud = PointCloud(pts)
        nbrs = knn(build_index(cloud), 0, 8)
        with pytest.raises(DegenerateNeighborhoodError, match="degenerate"):
            local_frame(cloud, nbrs)
        # the message names the center point, not the row of the batch
        idx, dist = build_index(cloud).knn_arrays(8)
        with pytest.raises(DegenerateNeighborhoodError, match="at point 5 "):
            build_frames(pts, idx[5:6], dist[5:6])
