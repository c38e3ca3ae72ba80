"""Disk conformal-recovery benchmark for the MLS weight functions.

A seeded unit-disk cloud is pushed through a Mobius disk automorphism,
the surface Laplacian is approximated on the image cloud with each
candidate weight, and the Laplace equation is solved back with the
boundary circle pinned to its known preimage.  The inverse map is
conformal hence harmonic, so per-point position errors measure the
quality of the operator approximation alone.
"""

import time
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .laplacian import DEFAULT_K, assemble_lb
from .solve import ConstrainedSystem, solve
from .synth import disk_cloud
from .weights import Weight

BENCH_WEIGHTS = ("wendland", "exponential", "special", "proposed")


def mobius_disk_map(a):
    """The disk automorphism z -> (z - a)/(1 - conj(a) z) and its inverse."""
    if abs(a) >= 1.0:
        raise ValueError("|a| must be < 1 for a disk automorphism")

    def forward(z):
        return (z - a) / (1.0 - np.conj(a) * z)

    def inverse(w):
        return (w + a) / (1.0 + np.conj(a) * w)

    return forward, inverse


@dataclass
class WeightErrors:
    weight: str
    mean_error: float
    max_error: float


@dataclass
class DiskExperimentResult:
    n: int
    seed: int
    mobius_a: complex
    k: int
    errors: list  # WeightErrors, in bench order
    seconds: float

    def by_weight(self):
        return {e.weight: e for e in self.errors}

    def as_dict(self):
        return {
            "n": self.n,
            "seed": self.seed,
            "mobius_a": [self.mobius_a.real, self.mobius_a.imag],
            "k": self.k,
            "seconds": self.seconds,
            "errors": {
                e.weight: {"mean": e.mean_error, "max": e.max_error}
                for e in self.errors
            },
        }


def run_disk_experiment(n=2000, a=0.3, seed=0, k=DEFAULT_K):
    """Position-recovery errors of each BENCH_WEIGHTS weight on a seeded disk."""
    start = time.time()
    points, boundary = disk_cloud(n, seed=seed)
    z = points[:, 0] + 1j * points[:, 1]
    forward, _ = mobius_disk_map(complex(a))
    w = forward(z)
    image = PointCloud(
        np.column_stack([w.real, w.imag, np.zeros(len(w))])
    )
    pinned = np.flatnonzero(boundary)
    results = []
    for kind in BENCH_WEIGHTS:
        operator = assemble_lb(image, k=k, weight_spec=Weight(kind))
        recovered = solve(ConstrainedSystem(operator, pinned, z[pinned]))
        err = np.abs(recovered - z)
        results.append(
            WeightErrors(kind, float(err.mean()), float(err.max()))
        )
    return DiskExperimentResult(
        n=n, seed=seed, mobius_a=complex(a), k=k, errors=results,
        seconds=time.time() - start,
    )
