import numpy as np
import pytest

from spheremesh.synth import (
    add_noise,
    blob_cloud,
    disk_cloud,
    ellipsoid_cloud,
    punch_holes,
    sphere_cloud,
)


class TestGenerators:
    def test_sphere_on_unit_sphere(self):
        cloud = sphere_cloud(500, seed=0)
        np.testing.assert_allclose(
            np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12
        )

    def test_seed_determinism(self):
        a = sphere_cloud(300, seed=5).points
        b = sphere_cloud(300, seed=5).points
        np.testing.assert_array_equal(a, b)
        c = sphere_cloud(300, seed=6).points
        assert not np.array_equal(a, c)

    def test_ellipsoid_axes(self):
        cloud = ellipsoid_cloud(2000, axes=(2.0, 1.0, 0.5), seed=1)
        spans = cloud.points.max(axis=0) - cloud.points.min(axis=0)
        np.testing.assert_allclose(spans, [4.0, 2.0, 1.0], rtol=0.05)

    def test_blob_peak_displacement(self):
        cloud = blob_cloud(3000, seed=2, max_displacement=0.3)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.abs(radii - 1.0).max() == np.float64(0.3).item() or \
            abs(np.abs(radii - 1.0).max() - 0.3) < 1e-12
        assert radii.min() >= 0.7 - 1e-12

    @pytest.mark.parametrize("displacement", [1.0, 1.5, -0.1, float("nan")])
    def test_blob_displacement_outside_unit_interval_rejected(self, displacement):
        # at 1 a radius 1 + disp reaches 0; beyond it the blob folds
        # through the origin
        with pytest.raises(ValueError, match=r"max_displacement must be in \[0, 1\)"):
            blob_cloud(200, seed=0, max_displacement=displacement)

    @pytest.mark.parametrize("radius", [3.2, 4.0, -0.1, float("nan")])
    def test_hole_radius_outside_half_turn_rejected(self, radius):
        # a cap of pi or more about the centroid removes every point
        with pytest.raises(ValueError, match=r"hole_radius must be in \[0, pi\)"):
            punch_holes(sphere_cloud(200, seed=0), 3, hole_radius=radius)

    def test_noise_amplitude(self):
        base = sphere_cloud(500, seed=3)
        noisy = add_noise(base, 0.03, seed=4)
        offsets = np.abs(noisy.points - base.points)
        assert offsets.max() <= 0.03 * base.bounding_radius()
        assert offsets.max() > 0.02 * base.bounding_radius()

    def test_holes_remove_caps(self):
        base = sphere_cloud(4000, seed=5)
        holey = punch_holes(base, 10, hole_radius=0.2, seed=6)
        assert holey.n < base.n
        assert holey.n > base.n // 2

    def test_disk_exact_count_and_boundary(self):
        pts, boundary = disk_cloud(2000, seed=7)
        assert len(pts) == 2000
        r = np.hypot(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(r[boundary], 1.0, atol=1e-12)
        assert r[~boundary].max() < 1.0
        assert np.all(pts[:, 2] == 0.0)

    @pytest.mark.parametrize("n", [4, 10, 11, 12])
    def test_tiny_disk_keeps_the_count(self, n):
        # the ring alone would outnumber n: it is cut to n points
        pts, boundary = disk_cloud(n, seed=0)
        assert len(pts) == len(boundary) == n
