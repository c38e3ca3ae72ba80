"""Weighting functions for the moving-least-squares fit.

The four kinds are the weights of the paper's disk conformal-recovery
experiment, in the order of its table.  A weight is named by its kind
string.  All take the ambient Euclidean distance of a neighbor to the
stencil center and are evaluated over whole stencil rows at once by
:func:`stencil_weights`: ``h``, the stencil radius, is each row's last
(largest) distance and ``k``, the stencil size, is the row length.
"""

import numpy as np

VARIANTS = ("wendland", "exponential", "special", "proposed")

# Wendland support slightly beyond the stencil radius so every stencil
# point keeps a positive weight
WENDLAND_SUPPORT_FACTOR = 1.05


def stencil_weights(kind, dists):
    """Evaluate the weight ``kind`` over whole stencil rows at once.

    ``kind`` is one of :data:`VARIANTS`: ``wendland``, ``exponential``
    (the Gaussian comparison weight), ``special`` (uniform 1/k
    off-center), or ``proposed`` (Gaussian-type,
    ``exp(-sqrt(k) d^2 / h^2) / k`` off-center, 1 at the center).
    ``dists`` is (n, k) with ascending rows; ``h`` is each row's last
    distance and ``k`` the row length.  Returns an (n, k) array.

    Raises
    ------
    ValueError
        If ``kind`` is not one of :data:`VARIANTS`.
    """
    if kind not in VARIANTS:
        raise ValueError(f"unknown weight kind {kind!r}")
    d = np.asarray(dists, dtype=np.float64)
    h = d[:, -1:]
    k = d.shape[1]
    if kind == "exponential":
        return np.exp(-(d / h) ** 2)
    if kind == "wendland":
        big_d = WENDLAND_SUPPORT_FACTOR * h
        r = np.clip(1.0 - d / big_d, 0.0, None)
        return r**4 * (4.0 * d / big_d + 1.0)
    if kind == "special":
        return np.where(d == 0.0, 1.0, 1.0 / k)
    # proposed Gaussian-type weight: 1 at the center, concentrated
    # off-center with the specific factor sqrt(k)/h^2 in the exponent
    return np.where(d == 0.0, 1.0, np.exp(-np.sqrt(k) * d * d / (h * h)) / k)
