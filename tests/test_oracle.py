"""The ground-truth oracles themselves (plus their independence audit)."""

import math

import numpy as np
import pytest

from meanfield import expfam, models, oracle
from conftest import make_two_level


def test_exact_simple_posterior_values():
    assert oracle.exact_simple_posterior(models.SimpleMixtureData(0.5, 1.0, 1.0)) == 0.5
    got = oracle.exact_simple_posterior(models.SimpleMixtureData(0.3, 0.8, 0.2))
    assert got == pytest.approx(0.24 / 0.38, rel=1e-15)


def test_enumeration_single_observation_closed_form():
    # uninformative likelihood: marginal mean is the prior mean a0/(a0+b0)
    data = models.TwoLevelMixtureData([0.0], [0.0], 3.0, 1.0)
    result = oracle.enumerate_two_level(data)
    assert result.marginal_means[0] == pytest.approx(0.75, rel=1e-13)


def test_enumeration_uninformative_data_gives_prior_mean():
    data = models.TwoLevelMixtureData([0.2] * 5, [0.2] * 5, 2.0, 3.0)
    result = oracle.enumerate_two_level(data)
    assert result.marginal_means == pytest.approx(np.full(5, 0.4), rel=1e-12)


def test_enumeration_log_evidence_permutation_invariant():
    data = make_two_level(seed=5, n=8)
    perm = np.random.default_rng(0).permutation(8)
    shuffled = models.TwoLevelMixtureData(
        data.log_pa[perm], data.log_pb[perm], data.alpha0, data.beta0
    )
    r1 = oracle.enumerate_two_level(data)
    r2 = oracle.enumerate_two_level(shuffled)
    assert r1.log_evidence == pytest.approx(r2.log_evidence, rel=1e-13)
    assert r1.marginal_means[perm] == pytest.approx(r2.marginal_means, rel=1e-10)


def test_enumeration_cost_guard():
    data = models.TwoLevelMixtureData(np.zeros(21), np.zeros(21), 1.0, 1.0)
    with pytest.raises(ValueError):
        oracle.enumerate_two_level(data)


def test_quadrature_known_values():
    assert oracle.quadrature_expect("beta", (1.0, 1.0), math.log) == pytest.approx(-1.0, abs=1e-10)
    assert oracle.quadrature_expect("beta", (2.0, 2.0), lambda z: 1.0) == pytest.approx(1.0)
    assert oracle.quadrature_expect("gaussian", (0.0, 1.0), lambda z: z * z) == pytest.approx(
        1.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        oracle.quadrature_expect("poisson", (1.0,), lambda z: z)


def test_ridge_solve_values():
    assert oracle.ridge_solve(np.array([[1.0]]), np.array([2.0]), 1.0) == pytest.approx([1.0])
    out = oracle.ridge_solve(np.eye(3), np.zeros(3), 0.5)
    assert out == pytest.approx(np.zeros(3))
    with pytest.raises(ValueError):
        oracle.ridge_solve(np.eye(2), np.zeros(2), 0.0)


def test_ridge_solve_matches_normal_equations():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 3))
    t = rng.standard_normal(7)
    want = np.linalg.solve(a.T @ a + 0.3 * np.eye(3), a.T @ t)
    assert oracle.ridge_solve(a, t, 0.3) == pytest.approx(want, rel=1e-12)


def test_mc_gw_moments_zero_mean_symmetry():
    est, se = oracle.mc_gw_expectations(4.0, 2.0, np.zeros(2), np.eye(2), n_samples=10**5, seed=1)
    # E[Z2 z1] block (positions 1+4 .. 1+4+2) is zero by symmetry
    block = est[5:7]
    assert np.all(np.abs(block) <= 3.0 * se[5:7])


def test_mc_gw_moments_sample_floor():
    with pytest.raises(ValueError):
        oracle.mc_gw_expectations(3.0, 1.0, np.zeros(1), np.eye(1), n_samples=10)


def test_gw_one_dimensional_reduces_to_gamma_normal():
    """D=1 Gaussian-Wishart is Normal-Gamma: check E[log tau] by quadrature."""
    from scipy.stats import gamma as gamma_dist

    nu, w = 5.0, 0.8
    lam = expfam.gw_natural(nu, 1.3, np.zeros(1), np.array([[w]]))
    mu = expfam.nat_to_mean(lam).values
    # Wishart(nu, w) in 1-D is Gamma(shape=nu/2, scale=2w)
    shape, scale = nu / 2.0, 2.0 * w
    grid = gamma_dist.ppf(np.linspace(1e-9, 1 - 1e-9, 200001), shape, scale=scale)
    dens_weights = np.gradient(np.linspace(1e-9, 1 - 1e-9, 200001))
    e_log = float(np.sum(np.log(grid) * dens_weights))
    assert mu[0] == pytest.approx(e_log, abs=1e-3)
    assert mu[1] == pytest.approx(shape * scale, rel=1e-12)


def test_oracle_module_is_independent_of_coefficient_code():
    import meanfield.oracle as om

    source = open(om.__file__).read()
    for banned in ("from . import", "from meanfield", "import meanfield"):
        assert banned not in source
