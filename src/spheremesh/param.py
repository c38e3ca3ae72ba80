"""Spherical conformal parameterization of genus-0 point clouds.

The pipeline solves a planar Laplace equation pinned at the most
regular stencil triple, lifts to the sphere by inverse stereographic
projection, corrects the south side with a second pinned solve, then
alternates north/south projected solves (pinning the outermost slice of
the plane each time) until the images stop moving.  A final Mobius
scaling balances the point distribution around the two poles.
"""

import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, build_frames, build_index, knn
from .errors import PipelineError, SphereMeshError
from .laplacian import DEFAULT_K, assemble_lb_from_frames, lb_pass
from .mesh import SurfaceMesh
from .meshing import spherical_delaunay
from .projections import inv_north, inv_south, is_infinite, proj_north, proj_south
from .solve import ConstrainedSystem, solve
from .weights import Weight

THIRD_PI = np.pi / 3.0
_TRIPLE_CHUNK = 512  # stencils scanned per step of most_regular_triple


@dataclass
class ParamConfig:
    """Knobs of the parameterization pipeline (defaults: k = 25,
    r = 10 %, epsilon = 1e-4, proposed weight)."""

    k: int = DEFAULT_K
    r_percent: float = 10.0
    epsilon: float = 1e-4
    max_ns_iters: int = 100
    weight: Weight = field(default_factory=lambda: Weight("proposed"))

    def validate(self):
        for name in ("k", "max_ns_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.r_percent < 50.0:
            raise ValueError(f"r_percent must be in (0, 50), got {self.r_percent}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.k < 7:
            raise ValueError("k must be at least 7")
        if self.max_ns_iters < 1:
            raise ValueError("max_ns_iters must be at least 1")


@dataclass
class SphericalMap:
    """Unit-sphere images of a cloud plus the iteration history."""

    cloud: PointCloud
    images: np.ndarray  # (n, 3) unit vectors
    history: list  # mean squared movement per N-S iteration
    iterations: int
    converged: bool
    stage_seconds: dict = None  # wall clock per pipeline stage
    delaunay_faces: np.ndarray = None  # hull connectivity cached by the pipeline

    @property
    def n(self):
        return self.images.shape[0]


def regularity(angles):
    """Deviation of three triangle angles from the equilateral ones.

    Angles must be positive and sum to pi (checked to 1e-9).
    """
    a = np.asarray(angles, dtype=np.float64)
    if a.shape != (3,) or np.any(a <= 0) or abs(a.sum() - np.pi) > 1e-9:
        raise ValueError(f"not a valid triangle angle triple: {angles}")
    return float(np.abs(a - THIRD_PI).sum())


def triangle_regularity(a, b, c):
    """Regularity of 3D triangles (leading dimensions broadcast);
    degenerate (zero-area) ones get +inf."""
    a, b, c = (np.asarray(x, dtype=np.float64) for x in (a, b, c))
    ab, ac, bc = b - a, c - a, c - b
    area2 = np.linalg.norm(np.cross(ab, ac), axis=-1)
    alpha = np.arctan2(area2, np.einsum("...i,...i", ab, ac))
    beta = np.arctan2(
        np.linalg.norm(np.cross(-ab, bc), axis=-1), np.einsum("...i,...i", -ab, bc)
    )
    gamma = np.pi - alpha - beta
    reg = (
        np.abs(alpha - THIRD_PI) + np.abs(beta - THIRD_PI) + np.abs(gamma - THIRD_PI)
    )
    longest2 = np.maximum(
        np.einsum("...i,...i", ab, ab),
        np.maximum(np.einsum("...i,...i", ac, ac), np.einsum("...i,...i", bc, bc)),
    )
    return np.where(area2 > 1e-14 * longest2, reg, np.inf)


def most_regular_triple(points, neighbor_ids):
    """Most regular triangle among all (center, neighbor i, neighbor j).

    ``neighbor_ids`` (n, k) holds each point's stencil, center first.

    Scans every point's stencil pairs; exact ties resolve to the
    lexicographically smallest (point id, pair) via first-occurrence
    argmin over the id-ordered scan.  Only pairs whose edge-length
    ratio is small enough to beat the best score so far are scored
    exactly, so the winner is the one a full scan would pick.

    Returns
    -------
    ids : (3,) int ndarray
        Point ids (a1, a2, a3) of the winning triple.
    targets : (3,) complex ndarray
        Similarity copy of the triple in the plane: same angles,
        centroid at the origin, longest edge scaled to 1,
        counterclockwise.  The map's orientation is fixed later, by
        ``_fix_orientation``.
    """
    nbr = neighbor_ids
    n, k = nbr.shape
    pi_idx, pj_idx = np.triu_indices(k - 1, 1)
    pi_idx, pj_idx = pi_idx + 1, pj_idx + 1

    def edge_ratios(ids):
        # longest^2 / shortest^2 edge of every (center, i, j) triangle:
        # center edges from the Gram matrix diagonal, the opposite edge
        # by the law of cosines
        rel = points[ids[:, 1:]] - points[ids[:, :1]]
        gram = rel @ rel.transpose(0, 2, 1)
        sq = np.einsum("cii->ci", gram)
        di, dj = sq[:, pi_idx - 1], sq[:, pj_idx - 1]
        dij = di + dj - 2.0 * gram[:, pi_idx - 1, pj_idx - 1]
        longest = np.maximum(np.maximum(di, dj), dij)
        shortest = np.minimum(np.minimum(di, dj), dij)
        with np.errstate(divide="ignore", invalid="ignore"):
            return longest / shortest

    def score(ids, rows, pairs):
        return triangle_regularity(
            points[ids[rows, 0]],
            points[ids[rows, pi_idx[pairs]]],
            points[ids[rows, pj_idx[pairs]]],
        )

    # seed the bound with the exact score of the first chunk's
    # lowest-ratio triangle: the winner and its ties score no worse
    first = nbr[:_TRIPLE_CHUNK]
    ratios = edge_ratios(first)
    seed = np.unravel_index(np.argmin(ratios), ratios.shape)
    bound = _ratio_bound(float(score(first, *seed)))
    best_reg = np.inf
    best = None
    for start in range(0, n, _TRIPLE_CHUNK):
        ids = nbr[start:start + _TRIPLE_CHUNK]
        ratios = edge_ratios(ids)
        # flatnonzero keeps the (row, pair) scan order of the survivors,
        # so the first-occurrence argmin keeps the documented tie rule
        survivors = np.flatnonzero(ratios <= bound)
        rows, pairs = np.unravel_index(survivors, ratios.shape)
        reg = score(ids, rows, pairs)
        if reg.size and reg.min() < best_reg:
            at = int(np.argmin(reg))
            best_reg = float(reg[at])
            best = (start + rows[at], pairs[at])
            bound = _ratio_bound(best_reg)
    if best is None or not np.isfinite(best_reg):
        raise SphereMeshError("no non-degenerate stencil triangle found")
    row, pair = best
    a1 = int(nbr[row, 0])
    a2 = int(nbr[row, pi_idx[pair]])
    a3 = int(nbr[row, pj_idx[pair]])
    return np.array([a1, a2, a3]), _similarity_targets(
        points[a1], points[a2], points[a3]
    )


def _ratio_bound(reg):
    """Largest longest^2 / shortest^2 edge ratio of a triangle whose
    regularity is at most reg, with a relative slack of 1e-6 for rounding.

    The signed angle deviations from pi/3 sum to zero, so regularity
    <= reg puts every angle within reg/2 of pi/3; by the law of sines
    the edge ratio is the ratio of the sines of the extreme angles.
    """
    low = THIRD_PI - reg / 2.0
    if not low > 0.0:
        return np.inf
    high = min(THIRD_PI + reg / 2.0, np.pi / 2.0)
    return (np.sin(high) / np.sin(low)) ** 2 * (1.0 + 1e-6)


def _similarity_targets(p1, p2, p3):
    """Place a similar copy of the 3D triangle in the complex plane,
    counterclockwise (positive signed area)."""
    l12 = np.linalg.norm(p2 - p1)
    l13 = np.linalg.norm(p3 - p1)
    l23 = np.linalg.norm(p3 - p2)
    x3 = (l12 * l12 + l13 * l13 - l23 * l23) / (2.0 * l12)
    y3 = np.sqrt(max(l13 * l13 - x3 * x3, 0.0))
    b = np.array([0.0, l12, x3 + 1j * y3], dtype=np.complex128)
    b -= b.mean()
    return b / max(l12, l13, l23)


def _outermost(w, r_percent):
    """Ids of the outermost r% finite plane points (at least 3),
    by descending modulus with id tie-break."""
    finite = np.flatnonzero(~is_infinite(w))
    count = max(3, int(np.ceil(r_percent / 100.0 * finite.size)))
    order = np.lexsort((finite, -np.abs(w[finite])))
    return finite[order[:count]]


def initial_map(operator, triple_ids, targets):
    """Planar harmonic field with the three regular-triple constraints."""
    return solve(ConstrainedSystem(operator, triple_ids, targets))


def _half_step(operator, images, project, unproject, r_percent):
    """Project the images, pin the outermost r% of the plane, solve the
    Laplace equation and lift back.  Pole hits carry the infinity
    marker; they stay free, so no infinite value reaches the system."""
    w = project(images)
    pinned = _outermost(w, r_percent)
    return unproject(solve(ConstrainedSystem(operator, pinned, w[pinned])))


def south_correction(operator, phi, r_percent=10.0):
    """South-pole correction of the initial planar field.

    Lifts phi to the sphere and runs the south half-step: the
    high-distortion north cap lands innermost, and the outermost
    low-distortion slice is pinned.

    The initial field concentrates everything far from the pinned
    triple in a tiny cluster (conformal crowding), so the plane is
    first translated to put that cluster at the origin: the composed
    inversion then unfolds it across the whole plane.  A translation is
    conformal, so the composition stays a valid correction step.
    """
    return _half_step(
        operator, inv_north(phi - phi.mean()), proj_south, inv_south, r_percent
    )


def ns_iterate(operator, images, config=None):
    """North-South reiteration until images stabilize.

    Each round runs the north half-step and then the south one.  Stops
    when the mean squared movement of the images drops below epsilon;
    non-convergence within the iteration cap is a warning, and the
    least-moved iterate is kept.

    Returns
    -------
    (images, history, converged)
    """
    config = config or ParamConfig()
    best = (np.inf, images)
    history = []
    converged = False
    for _ in range(config.max_ns_iters):
        previous = images
        images = _half_step(operator, images, proj_north, inv_north, config.r_percent)
        images = _half_step(operator, images, proj_south, inv_south, config.r_percent)
        movement = float(np.mean(np.sum((images - previous) ** 2, axis=1)))
        history.append(movement)
        if movement < best[0]:
            best = (movement, images)
        if movement < config.epsilon:
            converged = True
            break
    if not converged:
        images = best[1]
        warnings.warn(
            f"N-S reiteration did not converge in {config.max_ns_iters} "
            f"iterations (best movement {best[0]:.3g}); keeping best iterate",
            stacklevel=2,
        )
    return images, history, converged


def pole_distances(images, index, k=DEFAULT_K):
    """Mean planar spread of the pole neighborhoods (d_p, d_s).

    The northernmost/southernmost images are projected from their own
    pole; each distance averages the plane offsets of the k cloud-space
    neighbors of the pre-image point.
    """
    i_n = int(np.argmax(images[:, 2]))
    i_s = int(np.argmin(images[:, 2]))
    w_n = proj_north(images)
    w_s = proj_south(images)
    nbrs_n = knn(index, i_n, k).indices
    nbrs_s = knn(index, i_s, k).indices
    d_p = float(np.mean(np.abs(w_n[nbrs_n] - w_n[i_n])))
    d_s = float(np.mean(np.abs(w_s[nbrs_s] - w_s[i_s])))
    return d_p, d_s


def balance(images, index, k=DEFAULT_K):
    """Mobius rescaling equalizing the two pole spreads.

    Scaling the north-projected plane by lambda = sqrt(d_p d_s) / d_p
    makes the recomputed spreads equal while preserving their product.
    """
    d_p, d_s = pole_distances(images, index, k)
    if not (np.isfinite(d_p) and np.isfinite(d_s)) or d_p == 0.0 or d_s == 0.0:
        raise SphereMeshError(
            f"degenerate pole neighborhood (d_p={d_p}, d_s={d_s})"
        )
    lam = np.sqrt(d_p * d_s) / d_p
    return inv_north(lam * proj_north(images))


def _fix_orientation(images, points):
    """Mirror the sphere if the induced mesh came out inside-out.

    This is the one place the map's orientation is decided.  The hull
    of the images is outward-oriented by construction; if that
    connectivity encloses negative volume over the original points, the
    parameterization is a reflection and negating x fixes it (the same
    connectivity with reversed winding is the mirrored hull exactly).

    Returns the corrected images plus the hull faces, so the meshing
    layer can reuse the triangulation instead of rebuilding it.  Raises
    MeshError when the hull leaves out an image.
    """
    faces = spherical_delaunay(images).faces
    if SurfaceMesh(points - points.mean(axis=0), faces).signed_volume() < 0:
        images = images.copy()
        images[:, 0] = -images[:, 0]
        faces = faces[:, ::-1].copy()
    return images, faces


@contextmanager
def _stage(name, timings=None):
    start = time.perf_counter()
    try:
        yield
    except SphereMeshError as exc:
        raise PipelineError(name, exc) from exc
    finally:
        if timings is not None:
            timings[name] = time.perf_counter() - start


def parameterize(cloud, config=None):
    """Full spherical conformal parameterization of a genus-0 cloud.

    Stages: LB assembly (k-NN, PCA frames and the MLS fit in one pass
    over blocks of stencils), regular-triple search, initial planar
    solve, south correction, N-S reiteration, balancing, orientation
    fix.
    Errors carry the stage name.  Genus is the caller's responsibility,
    but globally planar inputs are rejected outright.
    """
    config = config or ParamConfig()
    config.validate()
    timings = {}

    with _stage("input validation", timings):
        normalized, _, _ = cloud.normalized()
        _reject_planar(normalized)
    with _stage("lb assembly", timings):
        index = build_index(normalized)
        # the per-block calls go through this module's names, where a
        # caller (the bench tracer) can wrap them
        operator, nbr_ids = lb_pass(
            normalized.points, index, config.k, config.weight,
            frames_fn=build_frames, assemble_fn=assemble_lb_from_frames,
        )
    with _stage("regular triple", timings):
        triple_ids, targets = most_regular_triple(normalized.points, nbr_ids)
        del nbr_ids
    with _stage("initial map", timings):
        phi = initial_map(operator, triple_ids, targets)
    with _stage("south correction", timings):
        images = south_correction(operator, phi, config.r_percent)
    with _stage("north-south reiteration", timings):
        images, history, converged = ns_iterate(operator, images, config)
    with _stage("balancing", timings):
        images = balance(images, index, config.k)
    with _stage("orientation fix", timings):
        # after balancing: the hull is much better conditioned, and the
        # Mobius scaling preserves orientation so detection is unaffected
        images, faces = _fix_orientation(images, normalized.points)
    return SphericalMap(
        cloud=cloud,
        images=images,
        history=history,
        iterations=len(history),
        converged=converged,
        stage_seconds=timings,
        delaunay_faces=faces,
    )


def _reject_planar(cloud):
    pts = cloud.points - cloud.points.mean(axis=0)
    evals = np.linalg.eigvalsh(pts.T @ pts)
    if evals[0] <= 1e-12 * evals[-1]:
        raise SphereMeshError(
            "input cloud is planar; a closed genus-0 sampling is required"
        )
