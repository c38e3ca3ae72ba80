"""Stereographic projection between the unit sphere and the extended
complex plane: one chart, (x, y, z) -> (x + iy)/(1 - z), from the north
pole.  The south-pole map is that chart on the sphere half-turned about
the y axis, (x, y, z) -> (-x, y, -z), so it sends (x, y, z) to
(-x + iy)/(1 + z).  The half-turn is a rotation, so the chart
transition is holomorphic, and the composed identity

    proj_south(inv_north(w)) = -Re(w)/|w|^2 + i Im(w)/|w|^2

holds exactly.  Points within 1e-14 of the projection pole map to a
point-at-infinity marker instead of producing huge floats; callers
treat such points as frozen through planar solves.
"""

import numpy as np

POLE_EPS = 1e-14
# squared-chord threshold: |p - pole|^2 = 2 (1 - z) for unit p
_POLE_GAP = 0.5 * POLE_EPS * POLE_EPS
# moduli beyond this are folded onto the pole by the inverse map
_HUGE = 1e150

AT_INFINITY = complex(np.inf, np.inf)
# the half-turn about the y axis, which swaps the poles
HALF_TURN = np.array([-1.0, 1.0, -1.0])
HALF_TURN.setflags(write=False)


def is_infinite(w):
    """True where a plane value is the point-at-infinity marker."""
    w = np.asarray(w)
    return ~(np.isfinite(w.real) & np.isfinite(w.imag))


def proj_north(p):
    """North-pole stereographic projection of unit vectors (..., 3)."""
    p = np.asarray(p, dtype=np.float64)
    denom = 1.0 - p[..., 2]
    at_pole = denom <= _POLE_GAP
    denom = np.where(at_pole, 1.0, denom)
    w = (p[..., 0] + 1j * p[..., 1]) / denom
    return np.where(at_pole, AT_INFINITY, w)


def inv_north(w):
    """Inverse north-pole projection; infinity maps to (0, 0, 1)."""
    w = np.asarray(w, dtype=np.complex128)
    x, y = w.real, w.imag
    to_pole = is_infinite(w) | (np.abs(x) > _HUGE) | (np.abs(y) > _HUGE)
    x = np.where(to_pole, 0.0, x)
    y = np.where(to_pole, 0.0, y)
    m = x * x + y * y
    denom = 1.0 + m
    out = np.empty(w.shape + (3,), dtype=np.float64)
    out[..., 0] = 2.0 * x / denom
    out[..., 1] = 2.0 * y / denom
    out[..., 2] = (m - 1.0) / denom
    out[to_pole, :] = (0.0, 0.0, 1.0)
    return out


def proj_south(p):
    """South-pole stereographic projection of unit vectors (..., 3)."""
    return proj_north(p * HALF_TURN)


def inv_south(w):
    """Inverse south-pole projection; infinity maps to (0, 0, -1)."""
    return inv_north(w) * HALF_TURN
