"""Point-cloud container, exact k-NN queries and per-point tangent frames.

A cloud is an ordered set of 3D samples; the row index of a point is its
stable id.  Neighborhoods are exact k-nearest-neighbor sets under the
Euclidean 2-norm (center included, distance ties broken by ascending point
id).  Each point gets a local orthonormal frame from PCA of its
neighborhood, in which the neighborhood is the graph of a height
function over the tangent plane.

Both work on batches: :meth:`SpatialIndex.knn_arrays` answers a slice or
list of points with one row each, and :func:`build_frames` frames every
row it is given.  A single stencil is a one-row batch,
``build_frames(points, *index.knn_arrays(k, [i]))``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudError, DegenerateNeighborhoodError

# second PCA eigenvalue below this fraction of the largest means the
# neighborhood is numerically collinear
_COLLINEAR_RTOL = 1e-12


def row_dot(p, q):
    """Row dot products over a last axis of length 3, summed x + y + z.

    In every shape and memory order this is the sum that numpy's
    reductions form over a length-3 axis, ``np.sum(p * q, axis=-1)``
    and the one inside ``np.linalg.norm(p, axis=-1)``, bit for bit, at
    a fraction of their cost; a matmul or einsum picks its kernel, and
    rounding, by shape.  Row lengths are ``np.sqrt(row_dot(p, p))``.
    """
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]


def row_cross(p, q, out=None):
    """Row cross products p x q over a last axis of length 3, written
    into ``out`` (a new array by default) column by column.

    Each column is the product and difference that ``np.cross`` forms,
    p_j q_k - p_k q_j, so the rows are bit-equal to ``np.cross(p, q)``
    in every shape and memory order, without its copies of p and q.
    ``out`` must not overlap p or q.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(p[..., j], q[..., k], out=out[..., i])
        out[..., i] -= p[..., k] * q[..., j]
    return out


def xyz_array(points):
    """``points`` as a contiguous (n, 3) float64 array; any other shape
    raises CloudError."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise CloudError(f"expected an (n, 3) array, got shape {pts.shape}")
    return pts


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
        pts = xyz_array(points)
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

    def centroid(self):
        return self.points.mean(axis=0)

    def bounding_radius(self):
        """Largest distance from the centroid to any point.  The offsets
        are scaled by their largest absolute value before they are
        squared, so that no representable distance reads 0 or inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = self.points - self.centroid()
            scale = np.abs(offsets).max()
            if not 0.0 < scale < np.inf:
                return float(scale)
            offsets /= scale
            return float(scale * np.sqrt(row_dot(offsets, offsets)).max())

    def normalized(self):
        """Centroid-centered copy scaled to bounding radius 1.

        Returns
        -------
        cloud : PointCloud
        center : (3,) ndarray
        radius : float
            Original points are ``center + radius * cloud.points``.

        Raises
        ------
        CloudError
            If the extent is zero or overflows to infinity.
        """
        radius = self.bounding_radius()
        if not 0.0 < radius < np.inf:
            raise CloudError(
                f"cloud extent {radius} is not a positive finite number"
            )
        # a finite radius means the centroid's sum did not overflow
        center = self.centroid()
        return PointCloud((self.points - center) / radius), center, radius


def find_duplicate(pts):
    """Return the ids of one exactly-coinciding pair, or None."""
    order = np.lexsort(pts.T)
    equal = pts[order[1:]] == pts[order[:-1]]
    hits = np.flatnonzero(equal[:, 0] & equal[:, 1] & equal[:, 2])
    if hits.size == 0:
        return None
    i, j = order[hits[0]], order[hits[0] + 1]
    return (min(i, j), max(i, j))


class SpatialIndex:
    """KD-tree over a cloud answering exact k-NN queries.

    Immutable after construction; safe for concurrent queries.  Distance
    ties are broken by ascending point id, which the raw tree does not
    guarantee, so a query fetches one candidate more than asked, re-ranks
    by exact squared distance the candidate rows that are not strictly
    ascending in it, and fetches twice as many again while a row's k-th
    and last candidates tie.
    """

    def __init__(self, cloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def knn_arrays(self, k, rows=slice(None)):
        """k-NN of the points ``rows`` (a slice or a list of ids; every
        point by default), one row per point.

        Each row is ranked on its own, so a row's neighbors do not
        depend on which other rows are asked for.

        Returns
        -------
        indices : (m, k) int ndarray, column 0 is the point itself
        distances : (m, k) float ndarray, ascending per row
        """
        n = self.cloud.n
        if k > n:
            raise CloudError(f"insufficient points: k={k} > n={n}")
        pts = self.cloud.points
        q = pts[rows]
        extra = min(n, k + 1)
        while True:
            _, cand = self._tree.query(q, k=extra)
            diff = pts[cand] - q[:, None, :]
            d2 = row_dot(diff, diff)
            # rank by (squared distance, id) each row that the tree did not
            # leave strictly ascending in d2; any other row is ranked already
            loose = np.flatnonzero((d2[:, 1:] <= d2[:, :-1]).any(axis=1))
            c, d = cand[loose], d2[loose]
            order = np.lexsort((c, d), axis=1)
            cand[loose] = np.take_along_axis(c, order, axis=1)
            d2[loose] = np.take_along_axis(d, order, axis=1)
            if extra == n or np.all(d2[:, k - 1] < d2[:, -1]):
                break
            # a tie may extend past the candidate window: widen and requery
            extra = min(n, extra * 2)
        return cand[:, :k].astype(np.intp), np.sqrt(d2[:, :k])


def build_index(cloud):
    """Build the spatial index for exact k-NN queries over the cloud."""
    return SpatialIndex(cloud)


@dataclass(eq=False)
class FrameSet:
    """PCA tangent frames of a batch of stencils (one per center point).

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

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    coords: np.ndarray
    heights: np.ndarray
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray


def build_frames(points, neighbor_ids, neighbor_dists):
    """PCA tangent frames of the stencils ``neighbor_ids``, vectorized.

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
    det = np.einsum("ni,ni->n", e1, row_cross(e2, e3))
    e2 = np.where(det[:, None] < 0, -e2, e2)

    rel = nbr - points[neighbor_ids[:, 0], None, :]
    coords = np.stack(
        [np.einsum("nki,ni->nk", rel, e1), np.einsum("nki,ni->nk", rel, e2)],
        axis=2,
    )
    heights = np.einsum("nki,ni->nk", rel, e3)
    return FrameSet(e1, e2, e3, coords, heights, neighbor_ids, neighbor_dists)
