"""Moving-least-squares derivative estimation and the discrete
Laplace-Beltrami operator on point clouds.

Each point's neighborhood is the graph of a height function f over its
tangent frame.  A weighted least-squares fit in the degree-2 basis
{1, x, y, x^2, xy, y^2} turns neighbor samples into derivative estimates
at the center, and the surface Laplacian follows from the graph metric.

Coefficient derivation
----------------------
For a graph (x, y, f(x, y)) the metric is

    g = [[1 + p^2, p q], [p q, 1 + q^2]],    W^2 = det g = 1 + p^2 + q^2,

with p = f_x, q = f_y, and the Laplace-Beltrami operator in divergence
form is  (1/W) sum_ij d_i (g^ij W d_j u).  Expanding the outer
derivatives (product and chain rule, with r = f_xx, s = f_xy, t = f_yy)
and collecting the coefficients of u_x, u_y, u_xx, u_xy, u_yy gives

    K  = (1 + q^2) r - 2 p q s + (1 + p^2) t        (curvature numerator)
    a1 = -p K / W^4          a2 = -q K / W^4
    a3 = (1 + q^2) / W^2     a4 = -2 p q / W^2      a5 = (1 + p^2) / W^2

so that  Delta u = a1 u_x + a2 u_y + a3 u_xx + a4 u_xy + a5 u_yy.
K / (2 W^3) is the mean curvature of the graph, which mean_curvature()
in the metrics module reuses.  A flat patch (p = q = 0, K = 0) reduces
to the planar Laplacian u_xx + u_yy; the expansion is cross-checked in
the tests by central differences of the divergence form and by the
sphere eigenvalue identity Delta x_i = -2 x_i.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cloud import build_frames, build_index
from .errors import IllConditionedStencilError
from .weights import Weight, stencil_weights

BASIS_DIM = 6  # {1, x, y, x^2, xy, y^2}
MIN_STENCIL = 7  # must exceed the basis dimension
MAX_CONDITION = 1e12
DEFAULT_K = 25


def design_matrix(coords):
    """Evaluate the degree-2 basis at in-plane coordinates (..., k, 2)."""
    x = coords[..., 0]
    y = coords[..., 1]
    return np.stack(
        [np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1
    )


def _height_fit(coords, dists, heights, centers, weight_spec):
    """Batched weighted LS fit of the height functions.

    G (n, 6, k) maps neighbor samples to basis coefficients over the
    unscaled coordinates; the fit returns G @ heights and the derivative
    functionals read off G.  The minimizer of sum_i w_i (A c - b)_i^2
    is computed through the SVD of sqrt(D) A over in-plane coordinates
    scaled to unit extent, which reproduces span members to machine
    precision where forming the normal equations A^T D A would lose
    half the digits.

    Parameters
    ----------
    coords : (n, k, 2), dists : (n, k), heights : (n, k)
    centers : (n,) point ids of the stencil centers, for error messages
    weight_spec : Weight

    Returns
    -------
    coeffs : (n, 6) ndarray
        Basis coefficients of the fitted heights.
    derivative_rows : (n, 5, k) ndarray
        d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2 at the center, acting on
        neighbor samples.
    """
    n, k = dists.shape
    if k < MIN_STENCIL:
        raise IllConditionedStencilError(
            f"stencil size {k} below minimum {MIN_STENCIL}"
        )
    extent = np.abs(coords).max(axis=(1, 2))
    if np.any(extent <= 0):
        raise IllConditionedStencilError("stencil has zero in-plane extent")
    a = design_matrix(coords / extent[:, None, None])
    sqrt_w = np.sqrt(stencil_weights(weight_spec, dists))
    u, s, vt = np.linalg.svd(sqrt_w[:, :, None] * a, full_matrices=False)
    smin = s[:, -1]
    cond = np.where(smin > 0, (s[:, 0] / np.where(smin > 0, smin, 1.0)) ** 2, np.inf)
    bad = np.flatnonzero(~(cond < MAX_CONDITION))
    if bad.size:
        raise IllConditionedStencilError(
            f"ill-conditioned stencil at point {centers[bad[0]]} "
            f"(condition {cond[bad[0]]:.3g}); retry with larger k"
        )
    pinv = (vt.transpose(0, 2, 1) / s[:, None, :]) @ u.transpose(0, 2, 1)
    g = pinv * sqrt_w[:, None, :]
    # undo the coordinate scaling: degree-1 terms by 1/e, degree-2 by 1/e^2
    unscale = np.concatenate(
        [np.ones((n, 1)), 1.0 / extent[:, None].repeat(2, 1),
         1.0 / (extent * extent)[:, None].repeat(3, 1)], axis=1
    )
    g = g * unscale[:, :, None]
    coeffs = np.einsum("npk,nk->np", g, heights)
    # the derivative rows are rows 1-5 of G (f_xx = 2 c3, f_yy = 2 c5),
    # scaled in place: a fresh (n, 5, k) copy stays resident on the heap
    # and raises the peak memory of the LU solves that follow
    g[:, 3::2] *= 2.0
    return coeffs, g[:, 1:]


@dataclass
class MlsFit:
    """Weighted LS fit of one stencil and its derivative functionals.

    ``derivative_rows`` has five rows (d/dx, d/dy, d2/dx2, d2/dxdy,
    d2/dy2 at the center) acting on neighbor sample vectors.
    """

    center: int
    coefficients: np.ndarray  # (6,)
    stencil: np.ndarray  # (k,) point ids
    derivative_rows: np.ndarray  # (5, k)


def _derivatives(c):
    """(f_x, f_y, f_xx, f_xy, f_yy) at the center from basis
    coefficients along the last axis of ``c``."""
    return c[..., 1], c[..., 2], 2.0 * c[..., 3], c[..., 4], 2.0 * c[..., 5]


def mls_fit(frame, weight_spec=Weight("proposed")):
    """Fit the frame's height function; return coefficients and the
    derivative rows for arbitrary samples on the same stencil."""
    coeffs, drows = _height_fit(
        frame.local_coords[None], frame.neighbor_dists[None],
        frame.heights[None], [frame.center], weight_spec,
    )
    return MlsFit(
        center=frame.center,
        coefficients=coeffs[0],
        stencil=frame.neighbor_ids,
        derivative_rows=drows[0],
    )


def _graph_metric(p, q, r, s, t):
    """W^2 = 1 + p^2 + q^2 and the curvature numerator K of a graph."""
    w2 = 1.0 + p * p + q * q
    k = (1.0 + q * q) * r - 2.0 * p * q * s + (1.0 + p * p) * t
    return w2, k


def lb_coefficients(p, q, r, s, t):
    """Closed-form Laplace-Beltrami coefficients for a graph metric.

    See the module docstring for the derivation.  Inputs are the first
    and second derivatives of the height function at the center;
    broadcasting over arrays is supported.

    Returns
    -------
    (a1, a2, a3, a4, a5) multiplying u_x, u_y, u_xx, u_xy, u_yy.
    """
    w2, k = _graph_metric(p, q, r, s, t)
    return (
        -p * k / (w2 * w2),
        -q * k / (w2 * w2),
        (1.0 + q * q) / w2,
        -2.0 * p * q / w2,
        (1.0 + p * p) / w2,
    )


def _lb_rows(coeffs, drows):
    """LB rows (..., k) from fit coefficients (..., 6) and derivative
    rows (..., 5, k): the metric of the fitted height function weights
    the derivative functionals."""
    alphas = lb_coefficients(*_derivatives(coeffs))
    a1, a2, a3, a4, a5 = (a[..., None] for a in alphas)
    return (
        a1 * drows[..., 0, :]
        + a2 * drows[..., 1, :]
        + a3 * drows[..., 2, :]
        + a4 * drows[..., 3, :]
        + a5 * drows[..., 4, :]
    )


def lb_row(frame, fit):
    """One row of the discrete LB operator as (stencil ids, values).

    The metric terms come from the height-function fit; the same
    derivative rows then act on arbitrary function samples.
    """
    return fit.stencil, _lb_rows(fit.coefficients, fit.derivative_rows)


class SparseOperator:
    """Row-compressed n-by-n operator holding the discrete LB matrix.

    Row s has nonzeros only on the k-stencil of point s.  The matrix
    annihilates constants up to the LS ridge (tested, not enforced).
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()

    @property
    def n(self):
        return self.matrix.shape[0]


def assemble_lb(cloud, k=DEFAULT_K, weight_spec=Weight("proposed")):
    """Assemble the discrete Laplace-Beltrami operator of a cloud.

    The cloud is centered and scaled to bounding radius 1 internally so
    all fit tolerances are scale-free; rows are mapped back to the
    original scale (uniform scaling by 1/sigma multiplies the surface
    Laplacian by sigma^2).

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Stencil size (neighbors including the center).
    weight_spec : Weight

    Returns
    -------
    SparseOperator
    """
    normalized, _, radius = cloud.normalized()
    # neighbor sets and their (distance, id) order are invariant under the
    # uniform rescaling, so the raw cloud can be indexed directly
    nbr_idx, nbr_dist = build_index(cloud).knn_arrays(k)
    frames = build_frames(normalized.points, nbr_idx, nbr_dist / radius)
    return assemble_lb_from_frames(frames, weight_spec, scale=radius)


def assemble_lb_from_frames(frames, weight_spec=Weight("proposed"), scale=1.0):
    """Assemble the LB operator from prebuilt frames (coordinates already
    in whatever scale the frames carry; ``scale`` maps rows back)."""
    n, k = frames.heights.shape
    coeffs, drows = _height_fit(
        frames.coords, frames.neighbor_dists, frames.heights,
        frames.neighbor_ids[:, 0], weight_spec,
    )
    rows = _lb_rows(coeffs, drows) / (scale * scale)
    indptr = np.arange(0, n * k + 1, k)
    matrix = sparse.csr_matrix(
        (rows.ravel(), frames.neighbor_ids.ravel(), indptr), shape=(n, n)
    )
    matrix.sum_duplicates()
    return SparseOperator(matrix)
