"""Exponential-family coordinate maps, normalizers, entropies and KL."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield import expfam, oracle
from meanfield.checks import _random_natural

FAMILIES = [
    (expfam.BERNOULLI, 1),
    (expfam.BETA, 1),
    (expfam.GAUSSIAN, 2),
    (expfam.GAUSSIAN_WISHART, 2),
]


# ---------------------------------------------------------------------------
# nat_to_mean / mean_to_nat
# ---------------------------------------------------------------------------


def test_bernoulli_zero_log_odds_gives_half():
    mu = expfam.nat_to_mean(expfam.bernoulli_natural(0.0))
    assert mu.values[0] == pytest.approx(0.5, abs=1e-15)


def test_beta_uniform_moments_match_quadrature():
    mu = expfam.nat_to_mean(expfam.beta_natural(1.0, 1.0))
    ref = oracle.quadrature_expect("beta", (1.0, 1.0), math.log)
    assert mu.values[0] == pytest.approx(ref, abs=1e-10)
    assert mu.values == pytest.approx([-1.0, -1.0], abs=1e-12)


def test_standard_gaussian_moments():
    lam = expfam.gaussian_natural(np.zeros(1), np.eye(1))
    mu = expfam.nat_to_mean(lam)
    assert mu.values == pytest.approx([0.0, 1.0], abs=1e-14)


def test_bernoulli_mean_to_nat_hand_value():
    mu = expfam.ExpectationParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.array([0.24 / 0.38]))
    lam = expfam.mean_to_nat(mu)
    assert lam.values[0] == pytest.approx(math.log(0.24 / 0.14), rel=1e-12)


def test_beta_mean_to_nat_uniform():
    fam = expfam.FamilyDescriptor(expfam.BETA)
    lam = expfam.mean_to_nat(expfam.ExpectationParam(fam, np.array([-1.0, -1.0])))
    assert lam.values == pytest.approx([0.0, 0.0], abs=1e-10)


@pytest.mark.parametrize("kind,dim", FAMILIES)
def test_roundtrip_randomized(kind, dim):
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam = _random_natural(rng, kind, dim)
        back = expfam.mean_to_nat(expfam.nat_to_mean(lam))
        scale = np.maximum(np.abs(lam.values), 1.0)
        assert float(np.max(np.abs(back.values - lam.values) / scale)) < 1e-8


@given(st.floats(min_value=-14.0, max_value=14.0))
def test_bernoulli_roundtrip_hypothesis(log_odds):
    # beyond |log-odds| ~ 15 the sigmoid's float rounding dominates the map
    lam = expfam.bernoulli_natural(log_odds)
    back = expfam.mean_to_nat(expfam.nat_to_mean(lam))
    assert back.values[0] == pytest.approx(log_odds, rel=1e-9, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_beta_roundtrip_hypothesis(a, b):
    lam = expfam.beta_natural(a, b)
    back = expfam.mean_to_nat(expfam.nat_to_mean(lam))
    assert np.max(np.abs(back.values - lam.values)) <= 1e-8 * max(a, b, 1.0)


def test_unrealizable_beta_moments_rejected():
    fam = expfam.FamilyDescriptor(expfam.BETA)
    with pytest.raises((expfam.DomainError, ValueError)):
        # exp(mu1) + exp(mu2) > 1 cannot arise from any Beta distribution
        expfam.mean_to_nat(expfam.ExpectationParam(fam, np.array([-0.1, -0.1])))


# ---------------------------------------------------------------------------
# construction-time domain validation
# ---------------------------------------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.beta_natural(-0.5, 1.0)
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.gaussian_natural(np.zeros(2), -np.eye(2))
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.gw_natural(0.5, 1.0, np.zeros(2), np.eye(2))  # nu <= D-1
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.gw_natural(3.0, -1.0, np.zeros(2), np.eye(2))
    fam = expfam.FamilyDescriptor(expfam.BERNOULLI)
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.ExpectationParam(fam, np.array([1.5]))


def test_matrix_blocks_symmetrized_on_ingestion():
    prec = np.array([[2.0, 0.3], [0.3, 1.5]])
    skew = prec + np.array([[0.0, 1e-3], [-1e-3, 0.0]])
    lam = expfam.gaussian_natural(np.zeros(2), skew)
    block = lam.values[2:].reshape(2, 2)
    assert np.allclose(block, block.T)


# ---------------------------------------------------------------------------
# log_partition / entropy / KL
# ---------------------------------------------------------------------------


def test_log_partition_known_values():
    assert expfam.log_partition(expfam.bernoulli_natural(0.0)) == pytest.approx(math.log(2.0))
    lam = expfam.bernoulli_natural(math.log(12.0 / 7.0))
    assert expfam.log_partition(lam) == pytest.approx(math.log(19.0 / 7.0), rel=1e-14)
    gauss = expfam.gaussian_natural(np.zeros(1), np.eye(1))
    assert expfam.log_partition(gauss) == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("kind,dim", FAMILIES)
def test_log_partition_gradient_is_mu(kind, dim):
    """Central finite differences of A recover the expectation parameters."""
    rng = np.random.default_rng(7)
    step = 1e-5
    for _ in range(5):
        lam = _random_natural(rng, kind, dim)
        mu = expfam.nat_to_mean(lam).values
        for k in range(lam.values.size):
            e = np.zeros_like(lam.values)
            e[k] = step
            up = expfam.log_partition(expfam.NaturalParam(lam.family, lam.values + e))
            dn = expfam.log_partition(expfam.NaturalParam(lam.family, lam.values - e))
            fd = (up - dn) / (2.0 * step)
            assert fd == pytest.approx(mu[k], rel=1e-5, abs=1e-5)


def test_entropy_known_values():
    assert expfam.entropy(expfam.bernoulli_natural(0.0)) == pytest.approx(math.log(2.0))
    assert expfam.entropy(expfam.beta_natural(1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    std = expfam.gaussian_natural(np.zeros(1), np.eye(1))
    assert expfam.entropy(std) == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), rel=1e-13)


def test_entropy_matches_quadrature_for_beta():
    a, b = 2.5, 4.0
    lam = expfam.beta_natural(a, b)
    from scipy.stats import beta as beta_dist

    ref = oracle.quadrature_expect("beta", (a, b), lambda z: -beta_dist.logpdf(z, a, b))
    assert expfam.entropy(lam) == pytest.approx(ref, rel=1e-9)


def test_kl_known_values():
    lam1 = expfam.bernoulli_natural(0.0)
    lam2 = expfam.bernoulli_natural(math.log(3.0))
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert expfam.kl_divergence(lam1, lam2) == pytest.approx(expected, rel=1e-12)
    assert expfam.kl_divergence(lam1, lam1) == 0.0


def test_kl_beta_matches_quadrature():
    from scipy.stats import beta as beta_dist

    lam1 = expfam.beta_natural(1.0, 1.0)
    lam2 = expfam.beta_natural(2.0, 2.0)
    ref = oracle.quadrature_expect(
        "beta", (1.0, 1.0), lambda z: beta_dist.logpdf(z, 1, 1) - beta_dist.logpdf(z, 2, 2)
    )
    assert expfam.kl_divergence(lam1, lam2) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("kind,dim", FAMILIES)
def test_kl_nonnegative_and_zero_only_at_identity(kind, dim):
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam1 = _random_natural(rng, kind, dim)
        lam2 = _random_natural(rng, kind, dim)
        kl = expfam.kl_divergence(lam1, lam2)
        assert kl >= 0.0
        if np.max(np.abs(lam1.values - lam2.values)) > 1e-6:
            assert kl > 0.0
        assert expfam.kl_divergence(lam1, lam1) == pytest.approx(0.0, abs=1e-12)


def test_kl_family_mismatch_rejected():
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.kl_divergence(expfam.bernoulli_natural(0.0), expfam.beta_natural(1.0, 1.0))


# ---------------------------------------------------------------------------
# Gaussian-Wishart moments against the Monte-Carlo oracle
# ---------------------------------------------------------------------------


def test_gw_moments_closed_forms():
    lam = expfam.gw_natural(3.0, 1.0, np.zeros(1), np.eye(1))
    mu = expfam.nat_to_mean(lam).values
    d = 1
    assert mu[1] == pytest.approx(3.0, rel=1e-13)  # E[Z2] = nu W
    assert mu[2] == pytest.approx(0.0, abs=1e-13)  # m = 0
    assert mu[3] == pytest.approx(1.0, rel=1e-13)  # D / gamma

    lam2 = expfam.gw_natural(4.0, 2.0, np.zeros(2), np.eye(2))
    mu2 = expfam.nat_to_mean(lam2).values
    assert mu2[-1] == pytest.approx(1.0, rel=1e-13)  # D / gamma = 2/2


def test_gw_moments_match_monte_carlo():
    nu, gamma, m, w = 5.0, 1.5, np.array([0.4, -0.7]), np.array([[1.2, 0.3], [0.3, 0.9]])
    lam = expfam.gw_natural(nu, gamma, m, w)
    mu = expfam.nat_to_mean(lam).values
    est, se = oracle.mc_gw_expectations(nu, gamma, m, w, n_samples=2 * 10**5, seed=3)
    assert np.all(np.abs(mu - est) <= 4.0 * se + 1e-12)


def test_gw_natural_parameter_extraction_roundtrip():
    nu, gamma = 4.5, 2.0
    m = np.array([1.0, -0.5])
    w = np.array([[2.0, 0.4], [0.4, 1.0]])
    lam = expfam.gw_natural(nu, gamma, m, w)
    nu2, gamma2, m2, w2 = expfam.gw_params(lam)
    assert nu2 == pytest.approx(nu, rel=1e-12)
    assert gamma2 == pytest.approx(gamma, rel=1e-12)
    assert m2 == pytest.approx(m, rel=1e-12)
    assert np.allclose(w2, w, rtol=1e-10)


# ---------------------------------------------------------------------------
# reparameterized Beta (reciprocal base measure)
# ---------------------------------------------------------------------------


def test_reciprocal_beta_represents_same_distribution():
    a, b = 3.0, 2.0
    std = expfam.beta_natural(a, b)
    rep = expfam.beta_natural(a, b, base_measure="reciprocal")
    assert np.allclose(rep.values - std.values, [1.0, 1.0])
    # identical moments under both representations
    assert expfam.nat_to_mean(rep).values == pytest.approx(
        expfam.nat_to_mean(std).values, rel=1e-12
    )
    # identical entropy once the base-measure expectation is folded in
    assert expfam.entropy(rep) == pytest.approx(expfam.entropy(std), rel=1e-12)
