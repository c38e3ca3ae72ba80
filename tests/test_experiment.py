import numpy as np
import pytest

from spheremesh.experiment import mobius_disk_map, run_disk_experiment
from spheremesh.weights import VARIANTS


class TestMobius:
    def test_identity_at_zero(self):
        fwd, inv = mobius_disk_map(0.0)
        z = np.array([0.3 + 0.4j, -0.1j])
        np.testing.assert_array_equal(fwd(z), z)

    def test_disk_automorphism(self):
        fwd, inv = mobius_disk_map(0.3 + 0.1j)
        rng = np.random.default_rng(0)
        z = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
        np.testing.assert_allclose(inv(fwd(z)), z, atol=1e-14)
        theta = np.linspace(0, 2 * np.pi, 100)
        circle = np.exp(1j * theta)
        np.testing.assert_allclose(np.abs(fwd(circle)), 1.0, atol=1e-14)

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            mobius_disk_map(1.0)
        with pytest.raises(ValueError, match=r"\|a\| must be < 1"):
            mobius_disk_map(complex("nan"))
        with pytest.raises(ValueError, match=r"\|a\| must be < 1"):
            run_disk_experiment(n=300, a=float("nan"))


class TestDiskExperiment:
    def test_identity_map_errors_at_solver_tolerance(self):
        result = run_disk_experiment(n=600, a=0.0, seed=0)
        for e in result["errors"].values():
            assert e["max"] <= 1e-9

    def test_proposed_weight_beats_comparisons(self):
        errors = run_disk_experiment(n=1200, a=0.3, seed=0)["errors"]
        assert errors["proposed"]["mean"] <= errors["wendland"]["mean"]
        assert errors["proposed"]["mean"] <= errors["exponential"]["mean"]

    def test_result_dict_shape(self):
        d = run_disk_experiment(n=600, a=0.2, seed=1)
        assert list(d) == ["n", "seed", "mobius_a", "k", "errors"]
        assert list(d["errors"]) == list(VARIANTS)
        assert all(list(e) == ["mean", "max"] for e in d["errors"].values())
        assert (d["n"], d["seed"], d["mobius_a"], d["k"]) == (600, 1, [0.2, 0.0], 25)
