"""Point-cloud container, exact k-NN queries and per-point tangent frames.

A cloud is an ordered set of 3D samples; the row index of a point is its
stable id.  Neighborhoods are exact k-nearest-neighbor sets under the
Euclidean 2-norm (center included, distance ties broken by ascending point
id).  Each point gets a local orthonormal frame from PCA of its
neighborhood, in which the neighborhood is the graph of a height
function over the tangent plane.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudError, DegenerateNeighborhoodError

# second PCA eigenvalue below this fraction of the largest means the
# neighborhood is numerically collinear
_COLLINEAR_RTOL = 1e-12


class PointCloud:
    """Ordered 3D point set; the row index of a point is its id.

    Parameters
    ----------
    points : (n, 3) array_like
        Sample positions in model units.

    Raises
    ------
    CloudError
        Fewer than 4 points, non-finite coordinates, or two points that
        coincide exactly (bitwise equal coordinates).
    """

    def __init__(self, points):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise CloudError(f"expected an (n, 3) array, got shape {pts.shape}")
        if pts.shape[0] < 4:
            raise CloudError(f"need at least 4 points, got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
            raise CloudError(f"non-finite coordinates at point {bad[0]}")
        dup = find_duplicate(pts)
        if dup is not None:
            raise CloudError(
                f"points {dup[0]} and {dup[1]} coincide exactly; "
                "duplicate points are rejected"
            )
        self.points = pts
        self.points.setflags(write=False)

    @property
    def n(self):
        return self.points.shape[0]

    def __len__(self):
        return self.points.shape[0]

    def centroid(self):
        return self.points.mean(axis=0)

    def bounding_radius(self):
        """Largest distance from the centroid to any point."""
        return float(np.linalg.norm(self.points - self.centroid(), axis=1).max())

    def normalized(self):
        """Centroid-centered copy scaled to bounding radius 1.

        Returns
        -------
        cloud : PointCloud
        center : (3,) ndarray
        radius : float
            Original points are ``center + radius * cloud.points``.
        """
        center = self.centroid()
        radius = self.bounding_radius()
        if radius == 0.0:
            raise CloudError("cloud has zero extent")
        return PointCloud((self.points - center) / radius), center, radius


def find_duplicate(pts):
    """Return the ids of one exactly-coinciding pair, or None."""
    order = np.lexsort(pts.T)
    same = np.all(pts[order[1:]] == pts[order[:-1]], axis=1)
    hits = np.flatnonzero(same)
    if hits.size == 0:
        return None
    i, j = order[hits[0]], order[hits[0] + 1]
    return (min(i, j), max(i, j))


@dataclass
class NeighborSet:
    """Exact k-NN of one point, self first, sorted by (distance, id)."""

    center: int
    indices: np.ndarray  # (k,) point ids, indices[0] == center
    distances: np.ndarray  # (k,) ascending, distances[0] == 0

    @property
    def k(self):
        return self.indices.shape[0]

    @property
    def radius(self):
        """Distance to the farthest neighbor (the MLS weight scale h)."""
        return float(self.distances[-1])


class SpatialIndex:
    """KD-tree over a cloud answering exact k-NN queries.

    Immutable after construction; safe for concurrent queries.  Distance
    ties are broken by ascending point id, which the raw tree does not
    guarantee, so queries over-fetch and re-rank candidates by exact
    squared distance.
    """

    def __init__(self, cloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def knn_arrays(self, k):
        """k-NN of every point at once.

        Returns
        -------
        indices : (n, k) int ndarray, column 0 is the point itself
        distances : (n, k) float ndarray, ascending per row
        """
        return self._ranked(slice(None), k)

    def _ranked(self, centers, k):
        """k-NN of the cloud points ``centers`` (a slice or a list of
        ids), one row per center."""
        n = self.cloud.n
        if k > n:
            raise CloudError(f"insufficient points: k={k} > n={n}")
        pts = self.cloud.points
        q = pts[centers]
        extra = min(n, k + 8)
        while True:
            _, cand = self._tree.query(q, k=extra)
            d2 = np.sum((pts[cand] - q[:, None, :]) ** 2, axis=2)
            # rank by (squared distance, id) per row
            order = np.lexsort((cand, d2), axis=1)
            cand = np.take_along_axis(cand, order, axis=1)
            d2 = np.take_along_axis(d2, order, axis=1)
            if extra == n or np.all(d2[:, k - 1] < d2[:, -1]):
                break
            # a tie may extend past the candidate window: widen and requery
            extra = min(n, extra * 2)
        return cand[:, :k].astype(np.intp), np.sqrt(d2[:, :k])


def build_index(cloud):
    """Build the spatial index for exact k-NN queries over the cloud."""
    return SpatialIndex(cloud)


def knn(index, center, k):
    """k-nearest neighborhood of the cloud point ``center`` (inclusive)."""
    idx, dist = index._ranked([center], k)
    if idx[0, 0] != center:
        # the center ties with a distinct point at distance 0 is impossible
        # (duplicates are rejected), so this is always the self-match
        raise CloudError(f"point {center} did not match itself")
    return NeighborSet(center=int(center), indices=idx[0], distances=dist[0])


class FrameSet:
    """Per-point PCA tangent frames for a whole cloud, stored batched.

    Attributes
    ----------
    e1, e2, e3 : (n, 3) ndarray
        Orthonormal right-handed basis per point; ``e3`` is the
        least-variance (normal) direction.  Its sign is arbitrary.
    coords : (n, k, 2) ndarray
        In-plane coordinates of each neighbor relative to the center.
    heights : (n, k) ndarray
        Offsets along ``e3``; the neighborhood is the graph of these
        heights over the tangent plane.
    neighbor_ids, neighbor_dists : (n, k) ndarray
    """

    def __init__(self, e1, e2, e3, coords, heights, neighbor_ids, neighbor_dists):
        self.e1, self.e2, self.e3 = e1, e2, e3
        self.coords = coords
        self.heights = heights
        self.neighbor_ids = neighbor_ids
        self.neighbor_dists = neighbor_dists

    @property
    def n(self):
        return self.e1.shape[0]

    @property
    def k(self):
        return self.coords.shape[1]

    def frame(self, i):
        basis = np.vstack([self.e1[i], self.e2[i], self.e3[i]])
        return LocalFrame(
            center=int(self.neighbor_ids[i, 0]),
            basis=basis,
            local_coords=self.coords[i],
            heights=self.heights[i],
            neighbor_ids=self.neighbor_ids[i],
            neighbor_dists=self.neighbor_dists[i],
        )


@dataclass
class LocalFrame:
    """PCA frame of one neighborhood: basis rows (e1, e2, e3) plus the
    graph coordinates of each neighbor."""

    center: int
    basis: np.ndarray  # (3, 3), rows e1, e2, e3
    local_coords: np.ndarray  # (k, 2)
    heights: np.ndarray  # (k,)
    neighbor_ids: np.ndarray  # (k,)
    neighbor_dists: np.ndarray  # (k,)

    @property
    def k(self):
        return self.heights.shape[0]

    @property
    def radius(self):
        return float(self.neighbor_dists[-1])


def build_frames(points, neighbor_ids, neighbor_dists):
    """PCA tangent frames for all points, vectorized.

    The covariance is taken about the mean of the neighbor positions
    (more stable for one-sided neighborhoods than centering at the
    point itself); the graph projection is still anchored at the center
    point.

    Raises
    ------
    DegenerateNeighborhoodError
        If some neighborhood is numerically collinear or coincident.
    """
    nbr = points[neighbor_ids]  # (n, k, 3)
    centered = nbr - nbr.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    spread = evals[:, 2]
    bad = np.flatnonzero(evals[:, 1] <= _COLLINEAR_RTOL * np.maximum(spread, 1e-300))
    if bad.size:
        raise DegenerateNeighborhoodError(
            f"degenerate neighborhood at point {neighbor_ids[bad[0], 0]} "
            "(collinear or coincident neighbors)"
        )
    e3 = evecs[:, :, 0]
    e1 = evecs[:, :, 2]
    e2 = evecs[:, :, 1]
    # enforce right-handedness: e1 x e2 == e3
    det = np.einsum("ni,ni->n", e1, np.cross(e2, e3))
    e2 = np.where(det[:, None] < 0, -e2, e2)

    rel = nbr - points[neighbor_ids[:, 0], None, :]
    coords = np.stack(
        [np.einsum("nki,ni->nk", rel, e1), np.einsum("nki,ni->nk", rel, e2)],
        axis=2,
    )
    heights = np.einsum("nki,ni->nk", rel, e3)
    return FrameSet(e1, e2, e3, coords, heights, neighbor_ids, neighbor_dists)


def local_frame(cloud, nbrs):
    """PCA frame of a single neighborhood: one row of build_frames."""
    return build_frames(
        cloud.points, nbrs.indices[None], nbrs.distances[None]
    ).frame(0)
