"""Weighting functions for the moving-least-squares fit.

All weights take the ambient Euclidean distance of a neighbor to the
stencil center.  ``h`` is the distance to the farthest stencil point and
``k`` the stencil size; both are filled in from the neighborhood when a
weight is bound to a stencil via :meth:`Weight.for_stencil`.
"""

from dataclasses import dataclass, replace

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
    """A weighting function with its parameters.

    Parameters
    ----------
    kind : str
        One of ``constant``, ``exponential`` (the Gaussian comparison
        weight), ``inverse_square``, ``wendland``, ``special`` (uniform
        1/k off-center), or ``proposed`` (Gaussian-type,
        ``exp(-sqrt(k) d^2 / h^2) / k`` off-center, 1 at the center).
    h : float, optional
        Stencil radius (distance to the farthest neighbor).
    support : float, optional
        Wendland support radius D; defaults to ``1.05 h``.
    guard : float, optional
        Inverse-square guard epsilon; defaults to ``1e-3 h``.
    k : int, optional
        Stencil size.
    """

    kind: str
    h: float = None
    support: float = None
    guard: float = None
    k: int = None

    def __post_init__(self):
        kind = _ALIASES.get(self.kind, self.kind)
        if kind not in VARIANTS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)

    def for_stencil(self, h, k):
        """Copy with stencil-derived parameters filled in."""
        return replace(
            self,
            h=float(h) if self.h is None else self.h,
            k=int(k) if self.k is None else self.k,
            support=self.support,
            guard=self.guard,
        )

    def __call__(self, d):
        """Evaluate at distance(s) ``d >= 0``."""
        return _formula(self, np.asarray(d, dtype=np.float64), self._h, self._k)

    def _h(self):
        if self.h is None:
            raise ValueError(f"weight {self.kind!r} needs the stencil radius h")
        return self.h

    def _k(self):
        if self.k is None:
            raise ValueError(f"weight {self.kind!r} needs the stencil size k")
        return self.k


def weight(kind, d):
    """Evaluate a bound weight at one distance (convenience wrapper)."""
    return float(kind(d))


def stencil_weights(spec, dists):
    """Evaluate a weight over whole stencil rows at once.

    ``dists`` is (n, k) with ascending rows; ``h`` is the per-row maximum
    unless the spec pins it explicitly.  Returns an (n, k) array.
    """
    dists = np.asarray(dists, dtype=np.float64)
    h = np.full((dists.shape[0], 1), spec.h) if spec.h is not None \
        else dists[:, -1:]
    k = spec.k if spec.k is not None else dists.shape[1]
    return _formula(spec, dists, lambda: h, lambda: k)


def _formula(spec, d, h, k):
    """The six weight formulas at distances ``d``.  ``h()`` and ``k()``
    return the stencil radius and size; only kinds that need them call
    them."""
    kind = spec.kind
    if kind == "constant":
        return np.ones_like(d)
    if kind == "exponential":
        return np.exp(-(d / h()) ** 2)
    if kind == "inverse_square":
        eps = spec.guard if spec.guard is not None \
            else INVERSE_SQUARE_GUARD_FACTOR * h()
        return 1.0 / (d * d + eps * eps)
    if kind == "wendland":
        big_d = spec.support if spec.support is not None \
            else WENDLAND_SUPPORT_FACTOR * h()
        r = np.clip(1.0 - d / big_d, 0.0, None)
        return r**4 * (4.0 * d / big_d + 1.0)
    if kind == "special":
        return np.where(d == 0.0, 1.0, 1.0 / k())
    # proposed Gaussian-type weight: 1 at the center, concentrated
    # off-center with the specific factor sqrt(k)/h^2 in the exponent
    h, k = h(), k()
    return np.where(d == 0.0, 1.0, np.exp(-np.sqrt(k) * d * d / (h * h)) / k)
