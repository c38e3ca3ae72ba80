"""Weighting functions for the moving-least-squares fit.

All weights take the ambient Euclidean distance of a neighbor to the
stencil center and are evaluated over whole stencil rows at once by
:func:`stencil_weights`: ``h``, the stencil radius, is each row's last
(largest) distance and ``k``, the stencil size, is the row length.
"""

from dataclasses import dataclass

import numpy as np

VARIANTS = (
    "constant",
    "exponential",
    "inverse_square",
    "wendland",
    "special",
    "proposed",
)

_ALIASES = {"gaussian": "exponential", "inverse-square": "inverse_square"}

# Wendland support slightly beyond the stencil radius so every stencil
# point keeps a positive weight
WENDLAND_SUPPORT_FACTOR = 1.05
# guard radius of the inverse-square weight, relative to h
INVERSE_SQUARE_GUARD_FACTOR = 1e-3


@dataclass(frozen=True)
class Weight:
    """A weighting function, named by its kind.

    Parameters
    ----------
    kind : str
        One of ``constant``, ``exponential`` (the Gaussian comparison
        weight), ``inverse_square``, ``wendland``, ``special`` (uniform
        1/k off-center), or ``proposed`` (Gaussian-type,
        ``exp(-sqrt(k) d^2 / h^2) / k`` off-center, 1 at the center).
    """

    kind: str

    def __post_init__(self):
        kind = _ALIASES.get(self.kind, self.kind)
        if kind not in VARIANTS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)


def stencil_weights(spec, dists):
    """Evaluate a weight over whole stencil rows at once.

    ``dists`` is (n, k) with ascending rows; ``h`` is each row's last
    distance and ``k`` the row length.  Returns an (n, k) array.
    """
    d = np.asarray(dists, dtype=np.float64)
    h = d[:, -1:]
    k = d.shape[1]
    kind = spec.kind
    if kind == "constant":
        return np.ones_like(d)
    if kind == "exponential":
        return np.exp(-(d / h) ** 2)
    if kind == "inverse_square":
        eps = INVERSE_SQUARE_GUARD_FACTOR * h
        return 1.0 / (d * d + eps * eps)
    if kind == "wendland":
        big_d = WENDLAND_SUPPORT_FACTOR * h
        r = np.clip(1.0 - d / big_d, 0.0, None)
        return r**4 * (4.0 * d / big_d + 1.0)
    if kind == "special":
        return np.where(d == 0.0, 1.0, 1.0 / k)
    # proposed Gaussian-type weight: 1 at the center, concentrated
    # off-center with the specific factor sqrt(k)/h^2 in the exponent
    return np.where(d == 0.0, 1.0, np.exp(-np.sqrt(k) * d * d / (h * h)) / k)
