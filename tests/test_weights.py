import numpy as np
import pytest
from hypothesis import given, strategies as st

from spheremesh import Weight
from spheremesh.weights import stencil_weights


def row(h, k, *inner):
    """An ascending stencil row of length k: the center (0), the given
    inner distances, then h repeated to the end, so h is the last
    distance."""
    d = [0.0, *inner]
    return np.array([d + [h] * (k - len(d))])


def weights_of(kind, dists):
    return stencil_weights(Weight(kind), dists)[0]


class TestFormulas:
    def test_proposed_center_is_one(self):
        assert weights_of("proposed", row(0.5, 25))[0] == 1.0

    def test_proposed_at_h(self):
        w = weights_of("proposed", row(0.3, 25))
        assert w[-1] == pytest.approx(0.04 * np.exp(-5.0), rel=1e-15)

    def test_special_off_center(self):
        w = weights_of("special", row(0.4, 25, 0.17))
        assert w[1] == pytest.approx(1.0 / 25.0)
        assert w[0] == 1.0

    def test_constant(self):
        np.testing.assert_array_equal(weights_of("constant", row(3.0, 8)), 1.0)

    def test_exponential(self):
        w = weights_of("exponential", row(2.0, 8, 1.0))
        assert w[1] == pytest.approx(np.exp(-0.25))

    def test_gaussian_alias(self):
        assert Weight("gaussian").kind == "exponential"
        assert Weight("inverse-square").kind == "inverse_square"

    def test_inverse_square_guard(self):
        # guard 1e-3 h = 0.1
        w = weights_of("inverse_square", row(100.0, 8, 1.0))
        assert w[0] == pytest.approx(100.0)
        assert w[1] == pytest.approx(1.0 / 1.01)

    def test_wendland(self):
        # support 1.05 h = 1
        h = 1.0 / 1.05
        w = weights_of("wendland", row(h, 8, 0.5))
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.5**4 * 3.0)
        # the support lies beyond h, so the farthest point keeps a weight
        assert w[-1] == pytest.approx((1.0 - h) ** 4 * (4.0 * h + 1.0))
        assert w[-1] > 0.0

    def test_h_is_each_rows_last_distance(self):
        dists = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]])
        w = stencil_weights(Weight("exponential"), dists)
        np.testing.assert_allclose(w[:, 1], np.exp([-0.25, -1.0 / 16.0]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Weight("bogus")

    @pytest.mark.parametrize("param", ["h", "k", "support", "guard"])
    def test_parameters_are_not_settable(self, param):
        with pytest.raises(TypeError):
            Weight("proposed", **{param: 1})


@given(
    d=st.floats(min_value=1e-6, max_value=0.3),
    step=st.floats(min_value=1e-6, max_value=0.3),
)
def test_proposed_strictly_decreasing(d, step):
    w = weights_of("proposed", row(0.7, 25, d, d + step))
    assert w[1] > w[2]


@given(d=st.floats(min_value=0.0, max_value=5.0))
def test_all_weights_nonnegative(d):
    for kind in ("constant", "exponential", "inverse_square", "wendland",
                 "special", "proposed"):
        assert np.all(weights_of(kind, row(5.0, 9, d)) >= 0.0)
