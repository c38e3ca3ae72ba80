"""Constrained Laplace solves: Delta_PC u = 0 with Dirichlet-pinned points.

The reduced system (free rows and columns, pinned values moved to the
right-hand side) is non-symmetric and is solved with a direct sparse LU.
A complex field is solved as one two-column real system: the real and
imaginary right-hand sides go through a single triangular solve of one
factorization.

The LU is mixed-precision (Buttari et al., ACM TOMS 2008; the LAPACK
``dsgesv`` design).  The reduced matrix is factored once in float32, and
the float64 answer is recovered by iterative refinement: every residual
is computed in float64 from the operator's own rows, and each column is
scaled by its largest absolute value before it is cast to float32, so
tiny, huge and all-zero pinned values survive the cast.  Refinement runs
until the largest residual stops halving (at most ``_MAX_REFINE`` steps)
and keeps the best iterate.  If the float32 factor fails, gives
non-finite values, or its refined residual misses the tolerance, the
matrix is factored again in float64 with partial pivoting.

Refinement needs only float64 products A x, not a stored float64 matrix.
The factor's input is sliced from the operator's CSR rows, a bounded
step of free rows at a time cast to float32 (8 B per nonzero);
``sparse.vstack`` joins the steps, one ``tocsc`` orders them by column
and the free columns are cut from that.  Only one step's rows are ever
float64, and the right-hand side and the refinement buffer are
allocated only after the factor.  While the float32 factor is built,
only its input and SuperLU's workspace are live beside the operator.
Refinement holds the factor and a few (n, 2) float64 arrays: b - A x is
taken as (M y)[free] of the full operator M, with y equal to x on the
free points and zero on the pinned ones, and the final residual comes
from the real (n, 2) view of the field, so M is never upcast to complex.
Only the float64 fallback builds a float64 reduced matrix.  The first
solve sets the process peak (``ru_maxrss``) of ``parameterize``:
126 MB on ``blob_cloud(20000, 0)`` and 405-408 MB on
``blob_cloud(100000, 0)``.

Both factors use SuperLU's symmetric mode with a minimum-degree ordering
of A^T + A.  The stencil graph of the LB matrix is nearly symmetric, so
this ordering gives about half the fill of the default COLAMD ordering
of A^T A (6.6 M against 11.6 M nonzeros in L + U on a 20k-point cloud).
The float32 factor relaxes the diagonal pivot threshold to 0.1, which
keeps more pivots on the diagonal of that ordering; refinement makes up
for the weaker pivoting, and the float64 fallback keeps the threshold at
1.0.  On a 20k-point cloud the four solves of ``parameterize`` take
2.19 s instead of 3.74 s with a float64 factor.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import SolveError

DEFAULT_TOL = 1e-10
_MAX_REFINE = 10
_GATHER_ROWS = 2048  # free rows per slicing step of _reduced; bounds its float64 temporaries

logger = logging.getLogger(__name__)


@dataclass
class ConstrainedSystem:
    """A Laplace system with a nonempty set of pinned points."""

    operator: object  # SparseOperator
    pinned_ids: np.ndarray
    pinned_values: np.ndarray
    free_ids: np.ndarray = field(init=False)  # sorted ids of the unpinned points

    def __post_init__(self):
        ids = np.asarray(self.pinned_ids)
        if ids.size == 0:
            raise SolveError("pinned set is empty")
        if ids.dtype.kind not in "iu":
            # a cast would truncate: 1.7 would pin point 1
            raise SolveError(f"pinned ids must be integers, got dtype {ids.dtype}")
        self.pinned_ids = ids.astype(np.intp, copy=False)
        self.pinned_values = np.asarray(self.pinned_values, dtype=np.complex128)
        n = self.operator.n
        if self.pinned_values.shape != self.pinned_ids.shape:
            raise SolveError(
                f"pinned values (shape {self.pinned_values.shape}) do not "
                f"match pinned ids (shape {self.pinned_ids.shape})"
            )
        out_of_range = (self.pinned_ids < 0) | (self.pinned_ids >= n)
        if out_of_range.any():
            raise SolveError(
                f"pinned id {self.pinned_ids[out_of_range][0]} is outside "
                f"[0, {n})"
            )
        finite = np.isfinite(self.pinned_values)
        if not finite.all():
            bad = self.pinned_ids[~finite][0]
            raise SolveError(f"pinned value of point {bad} is not finite")
        if np.unique(self.pinned_ids).size != self.pinned_ids.size:
            raise SolveError("pinned ids repeat")
        mask = np.ones(n, dtype=bool)
        mask[self.pinned_ids] = False
        self.free_ids = np.flatnonzero(mask)


def solve(system):
    """Solve the constrained system; returns the full complex field.

    Pinned entries are reproduced exactly.  The free-row residual of the
    returned field is checked against ``DEFAULT_TOL`` times the
    right-hand-side scale.

    Raises
    ------
    SolveError
        Singular reduced system, or a residual beyond tolerance.
    """
    op = system.operator
    n = op.n
    out = np.zeros(n, dtype=np.complex128)
    out[system.pinned_ids] = system.pinned_values
    free = system.free_ids
    if free.size == 0:
        return out

    # (n, 2) real view of out: column 0 the real parts, column 1 the
    # imaginary parts; writing to it writes the complex field
    parts = out.view(np.float64).reshape(n, 2)
    matrix = op.matrix
    factor = "float32"
    try:
        # the float32 input is a temporary: only the factor outlives the call
        with np.errstate(over="ignore"):  # entries beyond float32 fall back
            lu = _factor(_reduced(matrix, free, np.float32), diag_pivot_thresh=0.1)
    except RuntimeError:  # SuperLU signals exact singularity this way
        lu = None

    # built after the factor, so that they are not live beside its input;
    # out is zero on the free points here, so this is -(B @ pinned values)
    rhs = -(matrix @ parts)[free]
    scale = float(np.hypot(rhs[:, 0], rhs[:, 1]).max())
    bound = max(DEFAULT_TOL * scale, 1e-300)
    y = np.zeros((n, 2))

    def product(x):
        """A @ x from the operator's own rows; y stays zero on the pinned
        points, so their columns add only zeros."""
        y[free] = x
        return (matrix @ y)[free]

    single_ok = False
    if lu is not None:
        x, steps, worst = _refined(_scaled(lu.solve), product, rhs)
        single_ok = np.isfinite(x).all() and worst <= bound
    if not single_ok:
        factor = "float64"
        lu = None  # free the float32 factor before the float64 one
        try:
            lu = _factor(_reduced(matrix, free, np.float64))
        except RuntimeError as exc:
            raise SolveError(f"underdetermined: {exc}") from exc
        x, steps, _ = _refined(lu.solve, product, rhs)

    if not np.isfinite(x).all():
        raise SolveError("underdetermined: factorization produced non-finite values")
    parts[free] = x
    # |A out| per free row, from the real view: no complex copy of A
    r = (matrix @ parts)[free]
    residual = float(np.hypot(r[:, 0], r[:, 1]).max())
    if logger.isEnabledFor(logging.DEBUG):
        # L and U are copies of the factor: only build them when logged
        logger.debug(
            "solve: free=%d pinned=%d factor=%s nnz_lu=%d refine_steps=%d "
            "residual=%.3g bound=%.3g",
            free.size, system.pinned_ids.size, factor, lu.L.nnz + lu.U.nnz,
            steps, residual, bound,
        )
    if residual > bound:
        raise SolveError(
            f"residual {residual:.3g} exceeds tolerance {DEFAULT_TOL:g} * {scale:.3g}",
            residual=residual,
        )
    return out


def _reduced(matrix, free, dtype):
    """The free rows and columns of the CSR ``matrix`` as a CSC matrix of
    ``dtype``: ``matrix[free].astype(dtype).tocsc()[:, free]``, with the
    free rows sliced and cast ``_GATHER_ROWS`` at a time, so that only
    one step of them is ever a float64 copy."""
    step = _GATHER_ROWS
    # one expression, so that the stacked rows die before the column cut
    return sparse.vstack([
        matrix[free[lo:lo + step]].astype(dtype)
        for lo in range(0, free.size, step)
    ]).tocsc()[:, free]


def _factor(a, **options):
    return spla.splu(
        a, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True), **options
    )


def _scaled(solve32):
    """Wrap a float32 LU solve: each column is divided by its largest
    absolute value before the cast and multiplied back after it."""

    def apply(r):
        s = np.abs(r).max(axis=0)
        s[s == 0.0] = 1.0
        return solve32((r / s).astype(np.float32)) * s

    return apply


def _refined(apply, product, b):
    """LU solve plus float64 iterative refinement until the largest
    residual ``b - product(x)`` stops halving; returns the best iterate,
    the refinement steps taken and its largest residual."""
    x = apply(b)
    r = b - product(x)
    worst = np.abs(r).max()
    best = (x, worst)
    for steps in range(1, _MAX_REFINE + 1):
        x = x + apply(r)
        r = b - product(x)
        previous, worst = worst, np.abs(r).max()
        if worst < best[1]:
            best = (x, worst)
        if not worst < 0.5 * previous:  # also stops on NaN
            break
    return best[0], steps, float(best[1])
