"""Disk conformal-recovery benchmark for the MLS weight functions.

A seeded unit-disk cloud is pushed through a Mobius disk automorphism,
the surface Laplacian is approximated on the image cloud with each
candidate weight, and the Laplace equation is solved back with the
boundary circle pinned to its known preimage.  The inverse map is
conformal hence harmonic, so per-point position errors measure the
quality of the operator approximation alone.
"""

import numpy as np

from .cloud import PointCloud
from .laplacian import DEFAULT_K, assemble_lb
from .solve import ConstrainedSystem, solve
from .synth import disk_cloud
from .weights import VARIANTS


def mobius_disk_map(a):
    """The disk automorphism z -> (z - a)/(1 - conj(a) z) and its inverse."""
    if not abs(a) < 1.0:  # NaN fails this test too
        raise ValueError("|a| must be < 1 for a disk automorphism")

    def forward(z):
        return (z - a) / (1.0 - np.conj(a) * z)

    def inverse(w):
        return (w + a) / (1.0 + np.conj(a) * w)

    return forward, inverse


def run_disk_experiment(n=2000, a=0.3, seed=0, k=DEFAULT_K):
    """Position-recovery errors of each weight on a seeded disk.

    Returns the table ``bench-weights`` writes: ``n``, ``seed``,
    ``mobius_a`` as ``[re, im]``, ``k``, and ``errors``, which maps each
    kind of :data:`~spheremesh.weights.VARIANTS`, in that order, to its
    ``mean`` and ``max`` error.
    """
    a = complex(a)
    points, boundary = disk_cloud(n, seed=seed)
    z = points[:, 0] + 1j * points[:, 1]
    forward, _ = mobius_disk_map(a)
    w = forward(z)
    image = PointCloud(np.column_stack([w.real, w.imag, np.zeros(len(w))]))
    pinned = np.flatnonzero(boundary)
    errors = {}
    for kind in VARIANTS:
        operator = assemble_lb(image, k=k, weight=kind)
        recovered = solve(ConstrainedSystem(operator, pinned, z[pinned]))
        err = np.abs(recovered - z)
        errors[kind] = {"mean": float(err.mean()), "max": float(err.max())}
    return {"n": n, "seed": seed, "mobius_a": [a.real, a.imag], "k": k,
            "errors": errors}
