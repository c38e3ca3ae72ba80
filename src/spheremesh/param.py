"""Spherical conformal parameterization of genus-0 point clouds.

The pipeline punctures the cloud at one point, solves a planar Laplace
equation that sends that point to infinity, and lifts the field to the
sphere by inverse stereographic projection.  It then alternates
south/north projected solves, each pinning the outermost slice of the
plane and Mobius-centring the result, until the images stop moving up
to a rotation; the last centred iterate is the map, without the paper's
final balancing (a second Mobius gauge).  The paper's start, pinned at
three points, crowds nearly every point into one cap; the README says
why this module punctures and centres instead.
"""

import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, build_frames, build_index, row_dot
from .errors import PipelineError, SphereMeshError
from .laplacian import DEFAULT_K, assemble_lb_from_frames, lb_pass
from .mesh import SurfaceMesh
from .meshing import spherical_delaunay
from .projections import HALF_TURN, inv_north, is_infinite, proj_north
from .solve import ConstrainedSystem, solve

# the sphere turns of the two half-steps of a round, south first
_CHARTS = (HALF_TURN, 1.0)
_CENTRING_STEPS = 100  # 2-7 steps on maps that converge


@dataclass
class ParamConfig:
    """Knobs of the parameterization pipeline (defaults: k = 25,
    r = 10 %, epsilon = 1e-4, max_ns_iters = 16)."""

    k: int = DEFAULT_K
    r_percent: float = 10.0
    epsilon: float = 1e-4
    max_ns_iters: int = 16  # N-S comparisons; converging maps took <= 6

    def validate(self):
        # each message starts with the field name, which the CLI maps to its flag
        for name, kind, noun in (("k", numbers.Integral, "an integer"),
                                 ("r_percent", numbers.Real, "a real number"),
                                 ("epsilon", numbers.Real, "a real number"),
                                 ("max_ns_iters", numbers.Integral, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
        if not 0.0 < self.r_percent < 50.0:
            raise ValueError(f"r_percent must be in (0, 50), got {self.r_percent}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.k < 7:
            raise ValueError("k must be at least 7")
        if self.max_ns_iters < 1:
            raise ValueError("max_ns_iters must be at least 1")


@dataclass(kw_only=True)
class SphericalMap:
    """Unit-sphere images of a cloud plus the iteration history."""

    cloud: PointCloud
    images: np.ndarray  # (n, 3) unit vectors
    history: list  # aligned movement of each N-S comparison (see ns_iterate)
    converged: bool
    delaunay_faces: np.ndarray  # (F, 3) spherical Delaunay faces of the images
    stage_seconds: dict = None  # wall clock per pipeline stage

    @property
    def n(self):
        return self.images.shape[0]

    @property
    def iterations(self):
        """The number of N-S comparisons, one per history entry."""
        return len(self.history)


def _outermost(w, r_percent):
    """Ids of the outermost r% finite plane points (at least 3),
    by descending modulus with id tie-break."""
    finite = np.flatnonzero(~is_infinite(w))
    count = max(3, int(np.ceil(r_percent / 100.0 * finite.size)))
    order = np.lexsort((finite, -np.abs(w[finite])))
    return finite[order[:count]]


def initial_map(operator, index, k=DEFAULT_K):
    """Punctured start: a planar harmonic field with one point at infinity.

    The center c of the best-conditioned stencil is the puncture (Angenent,
    Haker, Tannenbaum & Kikinis, IEEE TMI 1999).  A conformal map sending
    c to infinity behaves like 1/w near c, so its 2k - 1 nearest points
    are pinned to h/w, w being their coordinate in the PCA frame of that
    neighbourhood and h = max |w|; pins of one stencil only leave 1/w
    varying on the scale of the point spacing outside them, which can
    fold the map.  c goes to the north pole.
    """
    c = int(np.argmin(operator.condition))
    frame = build_frames(index.cloud.points,
                         *index.knn_arrays(min(2 * k, index.cloud.n), [c]))
    # signing each PCA axis by its third moment gives a mirrored cloud
    # the same planar field, and so exactly the mirrored map
    xy = frame.coords[0, 1:]
    w = (xy * np.where(np.sum(xy**3, axis=0) < 0, -1.0, 1.0)) @ np.array([1.0, 1j])
    phi = solve(ConstrainedSystem(operator, frame.neighbor_ids[0, 1:], np.abs(w).max() / w))
    images = inv_north(phi)
    images[c] = (0.0, 0.0, 1.0)
    return images


def _centred(images):
    """Mobius-centre unit vectors: compose orientation-preserving ball
    automorphisms until the mean image is below 1e-12 (Baden, Crane &
    Kazhdan, "Mobius Registration", SGP 2018).  This fixes the Mobius
    gauge up to a rotation.  The automorphism centred at a moves the
    mean m to m - 2 (I - M) a to first order, M the second moment, so
    each step tries the Newton centre a = (2 (I - M))^-1 m, and takes
    a = m where that centre lies outside the ball or does not shrink
    the mean; a = m alone needs 20-30 steps, and stalls on elongated
    clouds.  A mean still above the bound after ``_CENTRING_STEPS``
    steps warns.
    """
    for _ in range(_CENTRING_STEPS):
        m = images.mean(axis=0)
        if m @ m < 1e-24:
            break
        a = np.linalg.solve(2.0 * (np.eye(3) - images.T @ images / len(images)), m)
        if a @ a < 1.0:
            moved = _ball_map(images, a)
            if np.sum(moved.mean(axis=0) ** 2) < m @ m:
                images = moved
                continue
        images = _ball_map(images, m)
    else:
        m = images.mean(axis=0)
        if not m @ m < 1e-24:
            warnings.warn(
                f"Mobius centring stopped after {_CENTRING_STEPS} steps with "
                f"the mean image at {np.sqrt(m @ m):.3g}, not below 1e-12"
            )
    return images / np.sqrt(row_dot(images, images))[:, None]


def _ball_map(images, a):
    """The ball automorphism x -> (1 - |a|^2)(x - a) / |x - a|^2 - a,
    which sends a to the origin, applied to unit vectors."""
    d = images - a
    return (1.0 - a @ a) / np.einsum("ij,ij->i", d, d)[:, None] * d - a


def _half_step(operator, images, turn, r_percent):
    """Pin the outermost r% of the north projection of the images
    turned by ``turn``, solve the Laplace equation, lift, turn back and
    centre.  Pole hits carry the infinity marker and stay free."""
    w = proj_north(images * turn)
    pinned = _outermost(w, r_percent)
    return _centred(inv_north(solve(ConstrainedSystem(operator, pinned, w[pinned]))) * turn)


def _aligned_movement(images, earlier):
    """Mean squared movement from ``earlier`` to ``images`` after the
    best aligning rotation (orthogonal Procrustes): centred maps are
    unique only up to a rotation."""
    u, _, vt = np.linalg.svd(earlier.T @ images)
    if np.linalg.det(u @ vt) < 0:
        u[:, -1] = -u[:, -1]
    moved = earlier @ (u @ vt) - images
    return float(np.mean(np.einsum("ij,ij->i", moved, moved)))


def ns_iterate(operator, images, config=None):
    """North-South reiteration until the images stop moving.

    Half-steps alternate between the south and the north projection,
    south first.  Each iterate from the third on is compared with the
    one two half-steps earlier, which used the same projection, and the
    loop stops when that aligned movement is below epsilon.  After
    ``max_ns_iters`` comparisons it warns and keeps the last iterate.

    Returns ``(images, history, converged)``, with ``history`` the
    aligned movement of every comparison.
    """
    config = config or ParamConfig()
    history = []
    older = previous = None
    for step in range(config.max_ns_iters + 2):
        images = _half_step(operator, images, _CHARTS[step % 2], config.r_percent)
        if older is not None:
            history.append(_aligned_movement(images, older))
            if history[-1] < config.epsilon:
                return images, history, True
        older, previous = previous, images
    warnings.warn(
        f"N-S reiteration did not converge in {config.max_ns_iters} "
        f"iterations (last movement {history[-1]:.3g}); keeping the last iterate",
        stacklevel=2,
    )
    return images, history, False


def pole_distances(images, index, k=DEFAULT_K):
    """Mean planar spread of the pole neighborhoods (d_p, d_s).

    The northernmost/southernmost images are projected from their own
    pole, the south one as the north one of the half-turned sphere; each
    distance averages the plane offsets of the k cloud-space neighbors.
    """
    spreads = []
    for turn in (1.0, HALF_TURN):
        turned = images * turn
        pole = int(np.argmax(turned[:, 2]))
        w = proj_north(turned)
        spreads.append(float(np.mean(np.abs(w[index.knn_arrays(k, [pole])[0][0]] - w[pole]))))
    return tuple(spreads)


def balance(images, index, k=DEFAULT_K):
    """Mobius rescaling equalizing the two pole spreads.

    Scaling the north-projected plane by lambda = sqrt(d_p d_s) / d_p
    makes the recomputed spreads equal while preserving their product.
    Not a stage of ``parameterize``; the hull of either map is the same.
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
    parameterization is a reflection and negating x fixes it.  The
    faces then keep their rows with every winding reversed, which is
    what ``spherical_delaunay`` gives for the mirrored images (see
    ``convex_hull``), up to cocircular images, which triangulate
    either way.

    Returns the corrected images plus the hull faces, so the meshing
    layer can reuse the triangulation instead of rebuilding it.  Raises
    MeshError when the hull leaves out an image.
    """
    faces = spherical_delaunay(images).faces
    if SurfaceMesh(points, faces).signed_volume() < 0:
        images = images.copy()
        images[:, 0] = -images[:, 0]
        faces = faces.take([0, 2, 1], axis=1)  # C-ordered, unlike faces[:, [0, 2, 1]]
    return images, faces


@contextmanager
def _stage(name, timings):
    start = time.perf_counter()
    try:
        yield
    except SphereMeshError as exc:
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = time.perf_counter() - start


def parameterize(cloud, config=None):
    """Full spherical conformal parameterization of a genus-0 cloud.

    Stages: LB assembly (k-NN, PCA frames and the MLS fit in one pass
    over blocks of stencils), punctured initial map, N-S reiteration,
    orientation fix.
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
        operator = lb_pass(index, config.k, frames_fn=build_frames,
                           assemble_fn=assemble_lb_from_frames)
    with _stage("initial map", timings):
        images = initial_map(operator, index, config.k)
    with _stage("north-south reiteration", timings):
        images, history, converged = ns_iterate(operator, images, config)
    with _stage("orientation fix", timings):
        images, faces = _fix_orientation(images, normalized.points)
    return SphericalMap(
        cloud=cloud,
        images=images,
        history=history,
        converged=converged,
        stage_seconds=timings,
        delaunay_faces=faces,
    )


def _reject_planar(cloud):
    # the points of cloud.normalized() are centred
    evals = np.linalg.eigvalsh(cloud.points.T @ cloud.points)
    if evals[0] <= 1e-12 * evals[-1]:
        raise SphereMeshError(
            "input cloud is planar; a closed genus-0 sampling is required"
        )
