"""Host speed, sampled while the benchmark times the library.

The benchmark runs on a share of a virtual machine whose speed drifts by
up to 2x for minutes at a time (see BASELINE.md).  The guest sees no
steal time, so CPU time drifts with wall time, and it has no hardware
counters.  ``HostClock`` measures the drift inside each timed block:
every ``interval`` seconds a timer signal runs one of two fixed
reference kernels, in turn, and records how long it took.  A block's own
time is its wall time less the time spent in the kernels; its slowdown
is the geometric mean, over the kernels, of the kernel's mean time in
the block over its nominal time; and its corrected time is

    own / slowdown,

the time the block would have taken on a host where each kernel takes
its ``NOMINAL`` time.  The kernels are the benchmark's own code, so a
change to the library moves the corrected time and not the yardstick.
One kernel tracks the pure-Python layers best and the other the
per-sample numpy calls of ``locate``; the geometric mean tracks both
workloads better than either alone.  Only the main thread samples,
between Python bytecodes: a long call into C code delays the next sample
until it returns.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL = 0.1  # seconds between samples
MIN_SAMPLES = 3  # samples of each kernel a block takes, at its end if it is short

_rng = np.random.default_rng(0)
_VECTORS = _rng.random((64, 3))
# the locate kernel's faces: triangles of random points on the unit sphere
_FACES = 2000
_CORNERS = _rng.normal(size=(_FACES, 3, 3))
_CORNERS /= np.linalg.norm(_CORNERS, axis=2, keepdims=True)
_A, _B, _C = _CORNERS[:, 0], _CORNERS[:, 1], _CORNERS[:, 2]
_NORMALS = np.cross(_B - _A, _C - _A)
_OFFSETS = np.einsum("ij,ij->i", _NORMALS, _A)
_NN = np.einsum("ij,ij->i", _NORMALS, _NORMALS)
_RAYS = _rng.normal(size=(4096, 3))
_RAYS /= np.linalg.norm(_RAYS, axis=1, keepdims=True)
_CANDIDATES = _rng.integers(0, _FACES, size=(4096, 12))
_next = [0]  # each call of the locate kernel moves on to other samples


def compute_kernel():
    """A Python loop over small numpy calls on 3-vectors, dict updates and
    sorting, all in cache."""
    v = _VECTORS
    table = {}
    acc = 0.0
    for i in range(64):
        acc += float(np.dot(v[i], v[(i * 7) % 64]))
        w = np.cross(v[i], v[(i * 5) % 64])
        table[i % 17] = table.get(i % 17, 0.0) + w.sum()
        acc += sorted((i * 31 + j) % 97 for j in range(40))[3]
    return acc


def locate_kernel():
    """Ray-triangle tests of sphere samples against candidate faces, one
    sample at a time: small numpy calls with fancy indexing."""
    step = _next[0] = (_next[0] + 1) % 256
    hits = 0
    for i in range(step * 16, (step + 1) * 16):
        ids, s = _CANDIDATES[i], _RAYS[i]
        denom = _NORMALS[ids] @ s
        ok = denom > 0
        ids = ids[ok]
        t = _OFFSETS[ids] / denom[ok]
        x = t[:, None] * s
        a, n = _A[ids], _NORMALS[ids]
        beta = np.einsum("ij,ij->i", np.cross(x - a, _C[ids] - a), n) / _NN[ids]
        gamma = np.einsum("ij,ij->i", np.cross(_B[ids] - a, x - a), n) / _NN[ids]
        hits += np.flatnonzero((beta >= 0) & (gamma >= 0) & (beta + gamma <= 1)).size
    return hits


KERNELS = (compute_kernel, locate_kernel)
# each kernel's seconds on the baseline machine (BASELINE.md)
NOMINAL = (0.0025, 0.0017)


@dataclass
class Timing:
    """One timed block."""

    wall: float = 0.0  # seconds, kernel samples included
    own: float = 0.0  # seconds, kernel samples excluded
    refs: tuple = NOMINAL  # mean seconds of each kernel over the block
    samples: int = 0

    @property
    def slowdown(self):
        """Host slowdown against the baseline machine: the geometric mean
        of the kernels' times over their nominal times."""
        ratios = [ref / nominal for ref, nominal in zip(self.refs, NOMINAL)]
        return float(np.prod(ratios) ** (1.0 / len(ratios)))

    @property
    def corrected(self):
        return self.own / self.slowdown


class HostClock:
    """Samples the reference kernels on a timer while a block runs.  One
    per process: it owns SIGALRM from construction on."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.samples = []  # (kernel, seconds), in the order taken
        self.spent = 0.0  # seconds spent in the kernels so far
        self._active = False
        self._busy = False
        # stays installed: a tick still pending when a block ends finds
        # the clock inactive and does nothing
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self, k):
        self._busy = True
        try:
            start = time.perf_counter()
            KERNELS[k]()
            took = time.perf_counter() - start
        finally:
            self._busy = False
        self.samples.append((k, took))
        self.spent += took

    def _tick(self, signum, frame):
        if self._active and not self._busy:
            self._sample(len(self.samples) % len(KERNELS))

    @contextmanager
    def measure(self):
        """Time the block; the yielded ``Timing`` is filled in on exit."""
        timing = Timing()
        first, spent = len(self.samples), self.spent
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
            timing.wall = time.perf_counter() - start
            timing.own = timing.wall - (self.spent - spent)
            per_kernel = [[] for _ in KERNELS]
            for k, took in self.samples[first:]:
                per_kernel[k].append(took)
            for k, taken in enumerate(per_kernel):
                while len(taken) < MIN_SAMPLES:
                    self._sample(k)
                    taken.append(self.samples[-1][1])
            timing.refs = tuple(statistics.fmean(taken) for taken in per_kernel)
            timing.samples = len(self.samples) - first
