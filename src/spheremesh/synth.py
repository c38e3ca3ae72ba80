"""Seeded synthetic point-cloud generators for tests and benchmarks.

Every generator is deterministic in (n, seed) so regression fixtures
are reproducible byte-for-byte.
"""

import numpy as np

from .cloud import PointCloud, row_dot

_DISK_JITTER = 0.35  # interior grid jitter of disk_cloud, in grid spacings


def sphere_cloud(n, seed=0):
    """n points uniform on the unit sphere."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return PointCloud(v / np.sqrt(row_dot(v, v))[:, None])


def ellipsoid_cloud(n, axes=(2.0, 1.0, 1.0), seed=0):
    """Uniform sphere samples stretched to the given semi-axes."""
    base = sphere_cloud(n, seed)
    return PointCloud(base.points * np.asarray(axes, dtype=np.float64))


# real spherical harmonics up to degree 3 in Cartesian form (unnormalized
# polynomial shapes; the generator rescales the sum anyway)
_HARMONICS = [
    lambda x, y, z: x,
    lambda x, y, z: y,
    lambda x, y, z: z,
    lambda x, y, z: x * y,
    lambda x, y, z: y * z,
    lambda x, y, z: x * z,
    lambda x, y, z: x * x - y * y,
    lambda x, y, z: 3.0 * z * z - 1.0,
    lambda x, y, z: (5.0 * z * z - 3.0) * z,
    lambda x, y, z: (5.0 * z * z - 1.0) * x,
    lambda x, y, z: (5.0 * z * z - 1.0) * y,
    lambda x, y, z: (x * x - y * y) * z,
    lambda x, y, z: x * y * z,
    lambda x, y, z: (x * x - 3.0 * y * y) * x,
    lambda x, y, z: (3.0 * x * x - y * y) * y,
]


def blob_cloud(n, seed=0, max_displacement=0.3):
    """Sphere of radius 1 plus a random low-order harmonic displacement.

    Seeded coefficients over all real spherical harmonics of degree 1-3,
    rescaled so the largest radial displacement over the sampled
    directions is exactly ``max_displacement``, which must lie in [0, 1)
    so that every radius ``1 + disp`` stays positive.
    """
    if not 0.0 <= max_displacement < 1.0:
        raise ValueError(f"max_displacement must be in [0, 1), got {max_displacement}")
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=len(_HARMONICS))
    dirs = sphere_cloud(n, seed=rng.integers(2**31)).points
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    disp = sum(c * h(x, y, z) for c, h in zip(coeffs, _HARMONICS))
    peak = np.abs(disp).max()
    if peak > 0:
        disp = disp * (max_displacement / peak)
    return PointCloud(dirs * (1.0 + disp)[:, None])


def add_noise(cloud, amplitude, seed=0):
    """Uniform per-coordinate noise, amplitude relative to the bounding
    radius (0.03 reproduces a '3 % uniform noise' setup)."""
    rng = np.random.default_rng(seed)
    scale = amplitude * cloud.bounding_radius()
    return PointCloud(
        cloud.points + rng.uniform(-scale, scale, size=cloud.points.shape)
    )


def punch_holes(cloud, holes, hole_radius=0.15, seed=0):
    """Remove spherical caps around seeded random directions (topological
    noise: the samples get disk-shaped gaps but keep their genus).

    ``hole_radius`` is each cap's angle about the centroid, in radians;
    it must lie in [0, pi), since a cap of pi or more removes every
    point.
    """
    if not 0.0 <= hole_radius < np.pi:
        raise ValueError(f"hole_radius must be in [0, pi), got {hole_radius}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(holes, 3))
    centers /= np.sqrt(row_dot(centers, centers))[:, None]
    center = cloud.points.mean(axis=0)
    rel = cloud.points - center
    dirs = rel / np.sqrt(row_dot(rel, rel))[:, None]
    keep = np.ones(len(cloud.points), dtype=bool)
    cos_r = np.cos(hole_radius)
    for c in centers:
        keep &= dirs @ c < cos_r
    return PointCloud(cloud.points[keep])


def disk_cloud(n, seed=0):
    """Unit-disk cloud: jittered interior grid plus an exact boundary
    circle, trimmed/padded to exactly n points.

    Returns
    -------
    points : (n, 3) ndarray with z = 0
    boundary : (n,) bool mask of the circle points
    """
    rng = np.random.default_rng(seed)
    # choose the spacing so interior + ring comes out slightly above n
    g = np.sqrt((np.pi + 2 * np.pi * 0.05) / n) * 1.02
    while True:
        ax = np.arange(-1.0, 1.0 + g / 2, g)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        pts = pts + rng.uniform(-_DISK_JITTER * g, _DISK_JITTER * g, pts.shape)
        inside = np.hypot(pts[:, 0], pts[:, 1]) < 1.0 - 0.8 * g
        interior = pts[inside]
        m = min(int(np.ceil(2.0 * np.pi / g)), n)  # a tiny n is all ring
        if len(interior) + m >= n:
            break
        g *= 0.97
    theta = 2.0 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    excess = len(interior) + m - n
    if excess > 0:
        drop = rng.choice(len(interior), size=excess, replace=False)
        interior = np.delete(interior, drop, axis=0)
    plane = np.vstack([interior, ring])
    boundary = np.zeros(len(plane), dtype=bool)
    boundary[len(interior):] = True
    points = np.column_stack([plane, np.zeros(len(plane))])
    return points, boundary
