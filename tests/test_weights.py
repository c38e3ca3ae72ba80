import numpy as np
import pytest
from hypothesis import given, strategies as st

from spheremesh import Weight, weight


class TestFormulas:
    def test_proposed_center_is_one(self):
        w = Weight("proposed", h=0.5, k=25)
        assert weight(w, 0.0) == 1.0

    def test_proposed_at_h(self):
        w = Weight("proposed", h=0.3, k=25)
        assert weight(w, 0.3) == pytest.approx(0.04 * np.exp(-5.0), rel=1e-15)

    def test_special_off_center(self):
        w = Weight("special", k=25)
        assert weight(w, 0.17) == pytest.approx(1.0 / 25.0)
        assert weight(w, 0.0) == 1.0

    def test_constant(self):
        assert weight(Weight("constant"), 3.0) == 1.0

    def test_exponential(self):
        w = Weight("exponential", h=2.0)
        assert weight(w, 1.0) == pytest.approx(np.exp(-0.25))

    def test_gaussian_alias(self):
        assert Weight("gaussian", h=1.0).kind == "exponential"

    def test_inverse_square_guard(self):
        w = Weight("inverse_square", guard=0.1)
        assert weight(w, 0.0) == pytest.approx(100.0)
        assert weight(w, 1.0) == pytest.approx(1.0 / 1.01)

    def test_wendland(self):
        w = Weight("wendland", support=1.0)
        assert weight(w, 0.0) == 1.0
        assert weight(w, 1.0) == 0.0
        assert weight(w, 0.5) == pytest.approx(0.5**4 * 3.0)
        assert weight(w, 2.0) == 0.0  # truncated outside the support

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Weight("bogus")

    def test_for_stencil_fills_params(self):
        with pytest.raises(ValueError, match="stencil radius h"):
            weight(Weight("proposed", k=12), 0.1)
        with pytest.raises(ValueError, match="stencil size k"):
            weight(Weight("special"), 0.1)
        w = Weight("proposed").for_stencil(h=0.4, k=12)
        assert (w.h, w.k) == (0.4, 12)


@given(
    d=st.floats(min_value=1e-6, max_value=2.0),
    step=st.floats(min_value=1e-6, max_value=1.0),
)
def test_proposed_strictly_decreasing(d, step):
    w = Weight("proposed", h=0.7, k=25)
    assert weight(w, d) > weight(w, d + step)


@given(d=st.floats(min_value=0.0, max_value=5.0))
def test_all_weights_nonnegative(d):
    for kind in ("constant", "exponential", "inverse_square", "wendland",
                 "special", "proposed"):
        w = Weight(kind, h=1.0, k=9)
        assert weight(w, d) >= 0.0


def test_scalar_and_stencil_paths_agree():
    from spheremesh.weights import stencil_weights

    dists = np.array([[0.0, 0.1, 0.25, 0.4, 0.7]])
    for kind in ("constant", "exponential", "inverse_square", "wendland",
                 "special", "proposed"):
        w = Weight(kind, h=0.7, k=5)
        batch = stencil_weights(w, dists)[0]
        scalar = np.array([weight(w, d) for d in dists[0]])
        np.testing.assert_allclose(batch, scalar, rtol=1e-15)
