import numpy as np
import pytest
from hypothesis import given, strategies as st

from spheremesh import (
    AT_INFINITY,
    inv_north,
    inv_south,
    is_infinite,
    proj_north,
    proj_south,
)

from conftest import uniform_sphere


class TestPointValues:
    def test_south_pole_projects_to_zero(self):
        assert proj_north([0.0, 0.0, -1.0]) == 0.0

    def test_north_pole_projects_to_zero_south(self):
        assert proj_south([0.0, 0.0, 1.0]) == 0.0

    def test_inv_north_of_one(self):
        np.testing.assert_allclose(inv_north(1.0 + 0j), [1.0, 0.0, 0.0], atol=1e-15)

    def test_poles_map_to_infinity(self):
        assert is_infinite(proj_north([0.0, 0.0, 1.0]))
        assert is_infinite(proj_south([0.0, 0.0, -1.0]))

    def test_inverse_of_infinity(self):
        np.testing.assert_array_equal(inv_north(AT_INFINITY), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(inv_south(AT_INFINITY), [0.0, 0.0, -1.0])

    def test_composed_identity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=200) + 1j * rng.normal(size=200)
        got = proj_south(inv_north(z))
        want = -z.real / np.abs(z) ** 2 + 1j * z.imag / np.abs(z) ** 2
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_composed_at_one(self):
        assert proj_south(inv_north(1.0 + 0j)) == pytest.approx(-1.0)


class TestRoundTrips:
    def test_proj_inv_north_on_random_plane(self):
        rng = np.random.default_rng(1)
        w = rng.normal(scale=3.0, size=10000) + 1j * rng.normal(scale=3.0, size=10000)
        np.testing.assert_allclose(proj_north(inv_north(w)), w, atol=1e-12)

    def test_proj_inv_south_on_random_plane(self):
        rng = np.random.default_rng(2)
        w = rng.normal(scale=3.0, size=10000) + 1j * rng.normal(scale=3.0, size=10000)
        np.testing.assert_allclose(proj_south(inv_south(w)), w, atol=1e-12)

    def test_inv_proj_on_sphere(self):
        p = uniform_sphere(10000, seed=3)
        np.testing.assert_allclose(inv_north(proj_north(p)), p, atol=1e-12)
        np.testing.assert_allclose(inv_south(proj_south(p)), p, atol=1e-12)

    def test_antipodal_modulus_identity(self):
        p = uniform_sphere(2000, seed=4)
        prod = np.abs(proj_north(p)) * np.abs(proj_south(p))
        np.testing.assert_allclose(prod, 1.0, atol=1e-10)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(5)
        w = rng.normal(scale=10.0, size=500) + 1j * rng.normal(scale=10.0, size=500)
        for inv in (inv_north, inv_south):
            np.testing.assert_allclose(
                np.linalg.norm(inv(w), axis=-1), 1.0, atol=1e-12
            )


@given(
    x=st.floats(-50.0, 50.0),
    y=st.floats(-50.0, 50.0),
)
def test_round_trip_property(x, y):
    # round-trip error through sphere coordinates grows like |w|^3 eps,
    # so 1e-12 relative holds for moduli up to ~1e2
    w = complex(x, y)
    back = proj_north(inv_north(w))
    assert abs(back - w) <= 1e-12 * max(1.0, abs(w))


def test_huge_modulus_folds_to_pole():
    np.testing.assert_array_equal(inv_north(1e200 + 0j), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(inv_south(1e200 + 0j), [0.0, 0.0, -1.0])


class TestSouthChartIsTurnedNorthChart:
    """The south chart, written as the north chart of the half-turned
    sphere, gives bit for bit the closed forms (-x + iy)/(1 + z) and
    their inverse."""

    @staticmethod
    def closed_form_south(p):
        p = np.asarray(p, dtype=np.float64)
        denom = 1.0 + p[..., 2]
        at_pole = denom <= 0.5e-28
        w = (-p[..., 0] + 1j * p[..., 1]) / np.where(at_pole, 1.0, denom)
        return np.where(at_pole, AT_INFINITY, w)

    @staticmethod
    def closed_form_inv_south(w):
        w = np.asarray(w, dtype=np.complex128)
        to_pole = is_infinite(w) | (np.abs(w.real) > 1e150) | (np.abs(w.imag) > 1e150)
        x = np.where(to_pole, 0.0, w.real)
        y = np.where(to_pole, 0.0, w.imag)
        m = x * x + y * y
        out = np.stack([-2.0 * x / (1.0 + m), 2.0 * y / (1.0 + m), -(m - 1.0) / (1.0 + m)], -1)
        out[to_pole, :] = (0.0, 0.0, -1.0)
        return out

    def test_projection_on_random_points_and_poles(self):
        p = np.vstack([uniform_sphere(10000, seed=6), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        assert np.array_equal(proj_south(p), self.closed_form_south(p))

    def test_inverse_on_random_values_poles_and_infinity(self):
        rng = np.random.default_rng(7)
        w = rng.normal(scale=3.0, size=10000) + 1j * rng.normal(scale=3.0, size=10000)
        w = np.concatenate([w, [0.0, AT_INFINITY, 1e200 + 0j]])
        assert np.array_equal(inv_south(w), self.closed_form_inv_south(w))
