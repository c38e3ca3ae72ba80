"""Moving-least-squares derivative estimation and the discrete
Laplace-Beltrami operator on point clouds.

Each point's neighborhood is the graph of a height function f over its
tangent frame.  A weighted least-squares fit in the degree-2 basis
{1, x, y, x^2, xy, y^2} turns neighbor samples into derivative estimates
at the center, and the surface Laplacian follows from the graph metric.
Both steps take a batch of stencils, a :class:`~spheremesh.cloud.FrameSet`:
:func:`mls_fit` fits it and :func:`assemble_lb_from_frames` turns the fit
into LB rows.  A single stencil is a one-row batch.

Least-squares route
-------------------
The weighted fit minimizes ||sqrt(D) (A c - b)|| for the design matrix A
of a stencil's in-plane coordinates, scaled to unit extent, and its
weights D.  It is solved through the Householder QR factorization
sqrt(D) A = Q R (Golub & Van Loan, "Matrix Computations", 5.3), batched
over the stencils, and G = R^-1 Q^T sqrt(D) follows by a 6-step back
substitution.  The route is backward stable like an SVD and never forms
the normal equations A^T D A for the fit: their condition number is the
square of that of sqrt(D) A, so solving them would round as if the
stencil were that much worse conditioned.  R^T R = A^T D A is formed for
the condition check alone.  The eigenvalues of that 6x6 matrix are the
squared singular values of sqrt(D) A, the smallest accurate to about
eps times their ratio, about 1e-4 relative at MAX_CONDITION.

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
reuses.  A flat patch (p = q = 0, K = 0) reduces to the planar
Laplacian u_xx + u_yy; the expansion is cross-checked in the tests by
central differences of the divergence form and by the sphere eigenvalue
identity Delta x_i = -2 x_i.
"""

import logging

import numpy as np
from scipy import sparse

from .cloud import build_frames, build_index
from .errors import CloudError, IllConditionedStencilError
from .weights import stencil_weights

MIN_STENCIL = 7  # must exceed the basis dimension, 6: {1, x, y, x^2, xy, y^2}
MAX_CONDITION = 1e12
DEFAULT_K = 25
# stencils per block of the stencil pass.  One block's k-NN, frame and
# fit temporaries take about 8 KB per stencil at k = 25, whatever the
# cloud size: 4.1 MB at 512, 16.4 MB at 2048 (tracemalloc).  Below 512
# the whole-cloud arrays set the peak: the blocks' rows and their stack
# (assemble_lb of 20k points: 13.2 MB at 512, 13.3 MB at 256, 21.6 MB
# at 2048); pass times showed no trend across 256-2048.
_BLOCK = 512

logger = logging.getLogger(__name__)


def design_matrix(coords):
    """Evaluate the degree-2 basis at in-plane coordinates (..., k, 2)."""
    x = coords[..., 0]
    y = coords[..., 1]
    return np.stack(
        [np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1
    )


def mls_fit(frames, weight="proposed"):
    """Weighted LS fit of the height function of every stencil of
    ``frames``, a :class:`~spheremesh.cloud.FrameSet`; a single stencil
    is a one-row batch.

    G (n, 6, k) maps neighbor samples to basis coefficients over the
    unscaled coordinates; the fit returns G @ heights and the derivative
    functionals read off G.  The minimizer of sum_i w_i (A c - b)_i^2
    is computed through the Householder QR factorization sqrt(D) A = Q R
    over in-plane coordinates scaled to unit extent, G = R^-1 Q^T sqrt(D)
    by back substitution (see the module docstring).  This reproduces
    span members to machine precision where solving the normal
    equations A^T D A would lose half the digits.  The condition number
    is read from the eigenvalues of R^T R, which serve that check only.

    Parameters
    ----------
    frames : FrameSet
        n stencils of k points; ``neighbor_ids[:, 0]`` names the centers
        in error messages.
    weight : str
        One of :data:`~spheremesh.weights.VARIANTS`.

    Returns
    -------
    coeffs : (n, 6) ndarray
        Basis coefficients of the fitted heights.
    derivative_rows : (n, 5, k) ndarray
        d/dx, d/dy, d2/dx2, d2/dxdy, d2/dy2 at the center, acting on
        neighbor samples.
    condition : (n,) ndarray
        Condition number of each weighted normal-equation matrix
        R^T R = A^T D A, the squared singular-value ratio of sqrt(D) A
        (inf where the smallest eigenvalue is not positive), the
        quantity checked against MAX_CONDITION.

    Raises
    ------
    IllConditionedStencilError
        For a stencil below MIN_STENCIL points, with zero in-plane
        extent, or with condition number at or above MAX_CONDITION.
    """
    coords = frames.coords
    n, k = frames.heights.shape
    if k < MIN_STENCIL:
        raise IllConditionedStencilError(
            f"stencil size {k} below minimum {MIN_STENCIL}"
        )
    extent = np.abs(coords).max(axis=(1, 2))
    if np.any(extent <= 0):
        raise IllConditionedStencilError("stencil has zero in-plane extent")
    a = design_matrix(coords / extent[:, None, None])
    sqrt_w = np.sqrt(stencil_weights(weight, frames.neighbor_dists))
    q, r = np.linalg.qr(sqrt_w[:, :, None] * a)
    lam = np.linalg.eigvalsh(r.transpose(0, 2, 1) @ r)  # ascending
    lmin = lam[:, 0]
    cond = np.where(lmin > 0, lam[:, -1] / np.where(lmin > 0, lmin, 1.0), np.inf)
    bad = np.flatnonzero(~(cond < MAX_CONDITION))
    if bad.size:
        raise IllConditionedStencilError(
            f"ill-conditioned stencil at point {frames.neighbor_ids[bad[0], 0]} "
            f"(condition {cond[bad[0]]:.3g}); retry with larger k"
        )
    # G = R^-1 Q^T sqrt(D) by back substitution
    g = q.transpose(0, 2, 1) * sqrt_w[:, None, :]
    for i in range(5, -1, -1):
        g[:, i] -= np.einsum("nj,njk->nk", r[:, i, i + 1:], g[:, i + 1:])
        g[:, i] /= r[:, i, i, None]
    # undo the coordinate scaling: degree-1 terms by 1/e, degree-2 by 1/e^2
    unscale = np.concatenate(
        [np.ones((n, 1)), 1.0 / extent[:, None].repeat(2, 1),
         1.0 / (extent * extent)[:, None].repeat(3, 1)], axis=1
    )
    g = g * unscale[:, :, None]
    coeffs = np.einsum("npk,nk->np", g, frames.heights)
    # the derivative rows are rows 1-5 of G (f_xx = 2 c3, f_yy = 2 c5),
    # scaled in place rather than copied
    g[:, 3::2] *= 2.0
    return coeffs, g[:, 1:], cond


def _derivatives(c):
    """(f_x, f_y, f_xx, f_xy, f_yy) at the center from basis
    coefficients along the last axis of ``c``."""
    return c[..., 1], c[..., 2], 2.0 * c[..., 3], c[..., 4], 2.0 * c[..., 5]


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


def mean_curvature_from_coefficients(coefficients):
    """Graph mean curvature from degree-2 fit coefficients (n, 6).

    H = ((1+q^2) r - 2 p q s + (1+p^2) t) / (2 W^3) with p, q the fitted
    first and r, s, t the fitted second derivatives.  The sign follows
    the arbitrary PCA normal, so callers usually take |H|.
    """
    w2, k = _graph_metric(*_derivatives(np.asarray(coefficients)))
    return k / (2.0 * w2 * np.sqrt(w2))


def mean_curvature(cloud, k=DEFAULT_K):
    """Approximated mean curvature at every cloud point (model units).

    The stencils are found and fitted on ``cloud.normalized()``, as
    for the LB operator, and the curvature is mapped back once
    (uniform scaling by 1/sigma multiplies it by sigma).
    """
    normalized, _, radius = cloud.normalized()
    curvature = []
    for frames in stencil_blocks(build_index(normalized), k):
        coeffs, _, _ = mls_fit(frames)
        curvature.append(mean_curvature_from_coefficients(coeffs))
    return np.concatenate(curvature) / radius


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


class SparseOperator:
    """Row-compressed operator holding rows of the discrete LB matrix.

    Row s has nonzeros only on the k-stencil of point s.  The matrix
    annihilates constants up to the LS ridge (tested, not enforced).
    ``condition`` holds the stencil condition number of each row.
    """

    def __init__(self, matrix, condition=None):
        self.matrix = matrix.tocsr()
        self.condition = condition

    @property
    def n(self):
        return self.matrix.shape[0]


def assemble_lb_from_frames(frames, weight="proposed", n_cols=None):
    """LB rows of the frames' stencils, in the units of their coordinates.

    Returns an (n, n_cols) operator for n frames, square by default;
    the column ids are sorted within each row.
    """
    n, k = frames.heights.shape
    coeffs, drows, condition = mls_fit(frames, weight)
    rows = _lb_rows(coeffs, drows)
    indptr = np.arange(0, n * k + 1, k)
    matrix = sparse.csr_matrix(
        (rows.ravel(), frames.neighbor_ids.ravel(), indptr),
        shape=(n, n if n_cols is None else n_cols),
    )
    matrix.sum_duplicates()
    return SparseOperator(matrix, condition)


def assemble_lb(cloud, k=DEFAULT_K, weight="proposed"):
    """Assemble the discrete Laplace-Beltrami operator of a cloud.

    The stencils are found and fitted on ``cloud.normalized()``
    (centered, bounding radius 1), so all fit tolerances are
    scale-free; the values are then mapped back once (uniform scaling
    by 1/sigma multiplies the surface Laplacian by sigma^2).

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Stencil size (neighbors including the center).
    weight : str
        One of :data:`~spheremesh.weights.VARIANTS`.

    Returns
    -------
    SparseOperator
    """
    normalized, _, radius = cloud.normalized()
    operator = lb_pass(build_index(normalized), k, weight)
    data = operator.matrix.data
    with np.errstate(over="ignore", under="ignore"):  # radius**2 overflows above 1e154
        data /= radius
        data /= radius
    # a normal largest value keeps every value's digits relative to it
    if not np.finfo(np.float64).tiny <= np.abs(data).max() < np.inf:
        raise CloudError(f"cloud extent {radius:g} puts the operator values "
                         "outside the float range")
    return operator


def stencil_blocks(index, k, frames_fn=build_frames):
    """PCA frames of every point's k-stencil in the cloud of the spatial
    index ``index``, in blocks of ``_BLOCK`` consecutive point ids, in
    id order.  The frames are in the units of ``index.cloud``."""
    points = index.cloud.points
    for start in range(0, len(points), _BLOCK):
        yield frames_fn(points, *index.knn_arrays(k, slice(start, start + _BLOCK)))


def lb_pass(index, k, weight="proposed",
            frames_fn=build_frames, assemble_fn=assemble_lb_from_frames):
    """Assemble the LB operator of the cloud of the spatial index
    ``index`` in one pass over blocks of stencils, in the units of
    ``index.cloud``.

    Each block of ``stencil_blocks`` is fitted on its own; only its LB
    rows and condition numbers outlive it, and ``sparse.vstack`` stacks
    the rows, of any lengths, into the operator.  The blocks' rows and
    their stack are both live for a moment, 24 B per nonzero: the
    traced peak of ``assemble_lb`` on 20k points is 13.2 MB.
    Every per-stencil kernel works row by row, so the operator does not
    depend on the block size, and the first bad stencil in id order
    raises.  ``frames_fn`` and ``assemble_fn`` let a caller route the
    per-block calls through its own names.

    Returns
    -------
    SparseOperator
    """
    n = index.cloud.n
    blocks = [assemble_fn(frames, weight, n_cols=n)
              for frames in stencil_blocks(index, k, frames_fn)]
    matrix = sparse.vstack([block.matrix for block in blocks], format="csr")
    condition = np.concatenate([block.condition for block in blocks])
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "lb assembly: n=%d k=%d blocks=%d nnz=%d condition_max=%.3g "
            "condition_median=%.3g",
            n, k, len(blocks), matrix.nnz, condition.max(),
            np.median(condition),
        )
    return SparseOperator(matrix, condition)
