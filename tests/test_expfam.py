"""Exponential-family coordinate maps, normalizers, entropies and KL."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield import engine, expfam, specfun
from meanfield.checks import _random_natural
from conftest import large_mean_gaussians
import oracle

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


def test_a_beta_mean_that_rounds_to_zero_is_derived_not_rejected():
    """psi(a) - psi(a+b) ~ -b/a rounds to 0 for a >> b; nat_to_mean still returns it, as for the other families."""
    mu = expfam.nat_to_mean(expfam.beta_natural(1e15, 0.5))
    assert mu.values[0] == 0.0
    assert mu.values[1] == pytest.approx(specfun.digamma(0.5) - specfun.digamma(1e15 + 0.5), rel=1e-15)


_WIDE = np.logspace(-4.0, 6.0, 51)


@pytest.mark.parametrize("base_measure", ["constant", "reciprocal"])
def test_beta_mean_to_nat_inverts_a_wide_grid(base_measure):
    """Every (a, b) of a log grid over [1e-4, 1e6]^2 inverts to within 1e-5 relative."""
    worst = 0.0
    for a in _WIDE:
        for b in _WIDE:
            lam = expfam.beta_natural(a, b, base_measure)
            back = expfam.beta_ab(expfam.mean_to_nat(expfam.nat_to_mean(lam)))
            worst = max(worst, abs(back[0] - a) / a, abs(back[1] - b) / b)
    assert worst <= 1e-5


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_gaussian_wishart_mean_to_nat_inverts_a_wide_grid(d):
    """Every nu - (D-1) of a log grid over [1e-3, 1e5], at gamma 1e-3, 1 and 1e3, inverts to within 1e-7 relative.

    With m = 0 the expectations hold D / gamma exactly.  Otherwise gamma is
    D over E[Z2Z1-quadratic] minus nu m^T W m, a cancellation that loses
    about nu gamma m^T W m / D ulps whatever the solver, so there only nu,
    which the Newton solve finds, is held to 1e-7.
    """
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    w = a @ a.T + np.eye(d)
    for m in (np.zeros(d), rng.standard_normal(d)):
        for t in np.logspace(-3.0, 5.0, 33):
            for gamma in (1e-3, 1.0, 1e3):
                nu = t + d - 1
                back = expfam.gw_params(expfam.mean_to_nat(expfam.nat_to_mean(expfam.gw_natural(nu, gamma, m, w))))
                assert back[0] == pytest.approx(nu, rel=1e-7), (t, gamma)
                assert m.any() or back[1] == pytest.approx(gamma, rel=1e-7), (t, gamma)


def _gw_mean(e_logdet, ez2, mu3, mu4):
    """Gaussian-Wishart expectations as ``nat_to_mean`` derives them: finiteness checked only."""
    return expfam._derived_mean(
        expfam.FamilyDescriptor(expfam.GAUSSIAN_WISHART, dim=2),
        np.concatenate([[e_logdet], np.reshape(ez2, -1), mu3, [mu4]]),
    )


@pytest.mark.parametrize(
    "mu, message",
    [
        (
            expfam.ExpectationParam(expfam.FamilyDescriptor(expfam.BETA), np.array([-0.1, -0.1])),
            "unrealizable: exp\\(mu1\\) \\+ exp\\(mu2\\) = 1.80967 >= 1$",
        ),
        (
            expfam.ExpectationParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2), np.array([0, 0, 1, 0, 0, 0])),
            "SPD covariance to invert, got smallest eigenvalue 0$",
        ),
        (_gw_mean(0.0, np.eye(2), [0.0, 0.0], 0.0), "slack must be positive to invert, got 0$"),
        (_gw_mean(0.0, [[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], 1.0), "det E\\[Z2\\] of sign -1$"),
        (
            _gw_mean(0.5, np.eye(2), [0.0, 0.0], 1.0),
            "c = log det E\\[Z2\\] - E\\[log det Lambda\\] must be > 0, got 0 - 0.5 = -0.5$",
        ),
    ],
    ids=["beta", "gaussian", "gw_slack", "gw_det_sign", "gw_c"],
)
def test_an_unrealizable_mean_names_its_values(mu, message):
    with pytest.raises(expfam.DomainError, match=message):
        expfam.mean_to_nat(mu)


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


_EMPTY_STACKS = [(expfam.BERNOULLI, 1, 1), (expfam.BETA, 1, 2), (expfam.GAUSSIAN, 2, 6), (expfam.GAUSSIAN_WISHART, 2, 8)]


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: expfam.FamilyDescriptor("poisson"), ValueError, "unknown family kind 'poisson'"),
        (lambda: expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=0), ValueError, "dim must be a positive integer"),
        (lambda: expfam.FamilyDescriptor(expfam.BERNOULLI, dim=2), ValueError, "bernoulli requires dim=1, got 2"),
        (lambda: expfam.FamilyDescriptor(expfam.BETA, dim=3), ValueError, "beta requires dim=1, got 3"),
        (lambda: expfam.FamilyDescriptor(expfam.BETA, base_measure="log"), ValueError, "unknown base_measure 'log'"),
        (
            lambda: expfam.FamilyDescriptor(expfam.GAUSSIAN, base_measure="reciprocal"),
            ValueError,
            "base_measure='reciprocal' applies to the Beta family only",
        ),
        (
            lambda: expfam.beta_ab(expfam.gaussian_natural(np.zeros(1), np.eye(1))),
            expfam.DomainError,
            "expected a beta parameter, got gaussian",
        ),
        (
            lambda: expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.ones(3)),
            expfam.DomainError,
            "beta dim=1 expects 2 values, got 3",
        ),
        (lambda: expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2.5), ValueError, "dim must be a positive integer, got 2.5"),
        (lambda: expfam.FamilyDescriptor(expfam.GAUSSIAN, dim="2"), ValueError, "dim must be a positive integer, got '2'"),
        (lambda: expfam.FamilyDescriptor(expfam.BERNOULLI, dim=True), ValueError, "dim must be a positive integer, got True"),
        (lambda: expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=-1), ValueError, "dim must be a positive integer, got -1"),
        *[
            (
                lambda kind=kind, dim=dim, flat=flat: expfam.NaturalParam(
                    expfam.FamilyDescriptor(kind, dim=dim), np.zeros((0, flat))
                ),
                expfam.DomainError,
                f"{kind} dim={dim} expects at least one row, got shape {(0, flat)}",
            )
            for kind, dim, flat in _EMPTY_STACKS
        ],
        (
            lambda: expfam.ExpectationParam(expfam.FamilyDescriptor(expfam.BETA), np.zeros((0, 2))),
            expfam.DomainError,
            "beta dim=1 expects at least one row, got shape (0, 2)",
        ),
        (
            lambda: expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.ones((1, 1, 2))),
            expfam.DomainError,
            "beta dim=1 expects a vector or rows, got shape (1, 1, 2)",
        ),
        (
            lambda: expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.zeros((3, 1, 1))),
            expfam.DomainError,
            "bernoulli dim=1 expects a vector or rows, got shape (3, 1, 1)",
        ),
    ],
    ids=[
        "kind",
        "dim",
        "bernoulli-dim",
        "beta-dim",
        "base-measure",
        "reciprocal",
        "expect-kind",
        "flat-length",
        "float-dim",
        "str-dim",
        "bool-dim",
        "negative-dim",
        *[f"empty-{kind}" for kind, _, _ in _EMPTY_STACKS],
        "empty-beta-mean",
        "three-axis-beta",
        "three-axis-bernoulli",
    ],
)
def test_malformed_families_and_parameters_are_rejected(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


@pytest.mark.parametrize("param", [expfam.NaturalParam, expfam.ExpectationParam])
@pytest.mark.parametrize("kind, dim", FAMILIES)
@pytest.mark.parametrize("stacked", [False, True], ids=["vector", "rows"])
def test_a_parameter_keeps_its_own_copy_of_the_values_it_is_given(param, kind, dim, stacked):
    """Writing to the caller's array afterwards changes neither the parameter nor what it derives."""
    lam = _random_natural(np.random.default_rng(5), kind, dim)
    given = (lam.values if param is expfam.NaturalParam else expfam.nat_to_mean(lam).values).copy()
    if stacked:
        given = np.stack([given, given])
    kept = given.copy()
    p = param(lam.family, given)
    assert not np.shares_memory(p.values, given) and not p.values.flags.writeable
    given[...] = -5.0
    assert _bits(p.values) == _bits(kept)
    if param is expfam.NaturalParam:
        assert _bits(expfam.nat_to_mean(p).values) == _bits(expfam.nat_to_mean(expfam.NaturalParam(lam.family, kept)).values)


def test_nat_to_mean_accepts_every_valid_gaussian():
    for i, (mean, precision) in enumerate(large_mean_gaussians()):
        lam = expfam.gaussian_natural(mean, precision)
        mu = expfam.nat_to_mean(lam).values
        assert np.array_equal(mu[:3], expfam.gaussian_mean_precision(lam)[0]), i


def test_the_mu_of_every_valid_gaussian_is_accepted_back():
    """The slack E[zz^T] - E[z]E[z]^T is judged on the scale of E[zz^T], where its subtraction rounds."""
    for i, (mean, precision) in enumerate(large_mean_gaussians()):
        mu = expfam.nat_to_mean(expfam.gaussian_natural(mean, precision))
        assert np.array_equal(expfam.ExpectationParam(mu.family, mu.values).values, mu.values), i


def test_an_indefinite_gaussian_slack_is_rejected():
    fam = expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2)
    for m in (np.zeros(2), np.array([1e3, -2e3])):
        second = np.outer(m, m) + np.diag([1.0, -1.0])
        with pytest.raises(expfam.DomainError, match="semidefinite"):
            expfam.ExpectationParam(fam, np.concatenate([m, second.reshape(-1)]))


def test_nat_to_mean_accepts_every_valid_gaussian_wishart():
    rng = np.random.default_rng(1)
    for i in range(500):
        d = int(rng.integers(1, 4))
        a = rng.standard_normal((d, d))
        w = (a @ a.T + 0.1 * np.eye(d)) * 10.0 ** rng.uniform(-6.0, 0.0)
        m = 10.0 ** rng.uniform(0.0, 5.0) * rng.standard_normal(d)
        lam = expfam.gw_natural(d - 1 + 10.0 ** rng.uniform(-1.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0), m, w)
        assert np.all(np.isfinite(expfam.nat_to_mean(lam).values)), i


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


def test_gaussian_entropy_of_a_large_mean_matches_mpmath():
    """The closed form off the factor of S is exact where A(lam) - lam . mu cancelled m^T S m / 2 (0.245 off)."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for mean, precision in large_mean_gaussians(500):
        lam = expfam.gaussian_natural(mean, precision)
        s_mat = -2.0 * lam.values[3:].reshape(3, 3)  # the stored precision, exactly
        with mpmath.workdps(50):
            logdet = mpmath.log(mpmath.det(mpmath.matrix(s_mat.tolist())))
            want = float(mpmath.mpf(3) / 2 * (1 + mpmath.log(2 * mpmath.pi)) - logdet / 2)
        worst = max(worst, abs(expfam.entropy(lam) - want) / abs(want))
    assert worst <= 1e-13


def test_a_one_dimensional_gaussian_entropy_is_a_float():
    lam = expfam.gaussian_natural([3.0e4], [[4.0]])
    ent = expfam.entropy(lam)
    assert type(ent) is float
    assert ent == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e / 4.0), rel=1e-15)


@pytest.mark.parametrize("s", [1e3, 1e4, 1e5, 1e6])
def test_gaussian_wishart_entropy_of_a_far_mean_holds_no_cancellation(s):
    """The entropy does not depend on m: A + D (nu + 1) / 2 - lam_0 E[log det Lambda] holds no m^T W m term.

    What is left grows as s^2 eps: lambda's own rounding of W^-1 + gamma m m^T.
    A - lam . mu was 2.0e-10, 8.3e-9, 1.3e-6 and 2.1e-5 off at these s.
    """
    exact = 9.039411019369828  # nu = 5, gamma = 1, W = [[2, .3], [.3, 1]], in 40-digit mpmath
    lam = expfam.gw_natural(5.0, 1.0, (s, -s), np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert abs(expfam.entropy(lam) - exact) / exact < 2e-17 * s**2


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


def _exact_gaussian_kl(lam1: expfam.NaturalParam, lam2: expfam.NaturalParam, mpmath) -> float:
    """KL of the two Gaussians the lambdas hold, exactly, in 50-digit arithmetic."""
    d = lam1.family.dim
    with mpmath.workdps(50):

        def mean_precision(lam):
            s_mat = mpmath.matrix((-2.0 * lam.values[d:].reshape(d, d)).tolist())  # exact: a power-of-2 scaling
            return s_mat**-1 * mpmath.matrix(lam.values[:d].tolist()), s_mat

        (m1, s1), (m2, s2) = mean_precision(lam1), mean_precision(lam2)
        dm = m2 - m1
        trace = sum((s2 * s1**-1)[i, i] for i in range(d))
        return float((trace - d + (dm.T * s2 * dm)[0] + mpmath.log(mpmath.det(s1) / mpmath.det(s2))) / 2)


@pytest.mark.parametrize("s", [0.0, 1e2, 1e4, 1e6])
def test_gaussian_kl_of_a_far_mean_is_its_closed_form(s):
    """The Bregman form cancelled m^T S m / 2: -0.57 % at s = 1e4 and -6.1e-5, negative, at 1e6 (exact 3.6e-6)."""
    mpmath = pytest.importorskip("mpmath")
    precision = np.array([[2.0, 0.3], [0.3, 1.0]])
    mean = np.array([s, -s])
    lam1 = expfam.gaussian_natural(mean, precision)
    lam2 = expfam.gaussian_natural(mean + np.array([1e-3, 2e-3]), precision)
    want = _exact_gaussian_kl(lam1, lam2, mpmath)
    assert want == pytest.approx(3.6e-6, rel=1e-7)
    assert abs(expfam.kl_divergence(lam1, lam2) - want) <= 1e-9 * want
    assert expfam.kl_divergence(lam1, lam1) == 0.0


def test_gaussian_kl_matches_the_exact_kl_of_distinct_precisions():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    for scale in (0.0, 1e3, 1e6):
        a, b = rng.standard_normal((2, 3, 3))
        mean = scale * rng.standard_normal(3)
        lam1 = expfam.gaussian_natural(mean, a @ a.T + np.eye(3))
        lam2 = expfam.gaussian_natural(mean + 1e-2 * rng.standard_normal(3), b @ b.T + np.eye(3))
        want = _exact_gaussian_kl(lam1, lam2, mpmath)
        assert abs(expfam.kl_divergence(lam1, lam2) - want) <= 1e-10 * want


def _exact_gw_kl(lam1: expfam.NaturalParam, lam2: expfam.NaturalParam, mpmath) -> float:
    """KL of two Gaussian-Wisharts as the library holds them, in the Bregman form at 60 digits.

    Each is (nu, gamma, m) off lambda and W^-1 = C C^T off the factor C its
    validation found, so this and ``kl_divergence`` describe one pair.
    """
    d = lam1.family.dim
    with mpmath.workdps(60):

        def held(lam):
            v = [mpmath.mpf(float(x)) for x in lam.values]
            nu, gamma = 2 * v[0] + d, -2 * v[-1]
            m = mpmath.matrix(v[1 + d * d : 1 + d * d + d]) / gamma
            c = mpmath.matrix(lam.factor.tolist())
            return nu, gamma, m, c * c.T

        def log_partition(nu, gamma, w_inv):
            return (
                -d * mpmath.log(gamma) / 2
                + d * mpmath.log(2 * mpmath.pi) / 2
                - nu * mpmath.log(mpmath.det(w_inv)) / 2
                + nu * d * mpmath.log(2) / 2
                + d * (d - 1) * mpmath.log(mpmath.pi) / 4
                + sum(mpmath.loggamma((nu - j) / 2) for j in range(d))
            )

        def natural(nu, gamma, m, w_inv):
            eta2 = -(w_inv + gamma * m * m.T) / 2
            block = [eta2[i, j] for i in range(d) for j in range(d)]
            return [(nu - d) / 2] + block + [gamma * m[i] for i in range(d)] + [-gamma / 2]

        (nu1, g1, m1, w_inv1), (nu2, g2, m2, w_inv2) = held(lam1), held(lam2)
        e_z2 = nu1 * w_inv1**-1
        e_logdet = sum(mpmath.digamma((nu1 - j) / 2) for j in range(d)) + d * mpmath.log(2)
        e_logdet -= mpmath.log(mpmath.det(w_inv1))
        e_z2z1 = e_z2 * m1
        mu1 = [e_logdet] + [e_z2[i, j] for i in range(d) for j in range(d)] + [e_z2z1[i] for i in range(d)]
        mu1.append((m1.T * e_z2 * m1)[0] + d / g1)
        dlam = [b - a for a, b in zip(natural(nu1, g1, m1, w_inv1), natural(nu2, g2, m2, w_inv2))]
        kl = log_partition(nu2, g2, w_inv2) - log_partition(nu1, g1, w_inv1)
        return float(kl - mpmath.fsum(x * y for x, y in zip(dlam, mu1)))


@pytest.mark.parametrize("s", [0.0, 1e2, 1e4, 1e6])
def test_gaussian_wishart_kl_of_a_far_mean_is_its_closed_form(s):
    """m enters only through m2 - m1, so the KL keeps its digits where the pair sits far out.

    The Bregman form cancelled gamma m^T (nu W) m: 2.1e-7 relative off at
    s = 1e4 and 5.7e-4 at 1e6.  The reference takes W^-1 off each lambda's
    factor: lambda holds W^-1 + gamma m m^T, which at s = 1e6 rounds W^-1
    itself by about 1e-4.
    """
    mpmath = pytest.importorskip("mpmath")
    w = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = np.array([s, -s])
    lam1 = expfam.gw_natural(5.0, 1.0, m, w)
    lam2 = expfam.gw_natural(6.0, 2.0, m + np.array([1e-3, 2e-3]), w)
    want = _exact_gw_kl(lam1, lam2, mpmath)
    assert want == pytest.approx(0.43706551212814, rel=1e-3)
    assert abs(expfam.kl_divergence(lam1, lam2) - want) <= 1e-12 * want
    assert abs(expfam.kl_divergence(lam1, lam1)) <= 1e-15


def test_gaussian_wishart_kl_matches_the_exact_kl_of_distinct_parameters():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for scale in (0.0, 1e3):
            a, b = rng.standard_normal((2, d, d))
            m = scale * rng.standard_normal(d)
            nu1, nu2, g1, g2 = d + 2.5 * rng.random(), d + 0.1 + 3.0 * rng.random(), *(0.5 + rng.random(2))
            lam1 = expfam.gw_natural(nu1, g1, m, a @ a.T + np.eye(d))
            lam2 = expfam.gw_natural(nu2, g2, m + rng.standard_normal(d), b @ b.T + np.eye(d))
            want = _exact_gw_kl(lam1, lam2, mpmath)
            assert abs(expfam.kl_divergence(lam1, lam2) - want) <= 1e-11 * want


def test_kl_family_mismatch_rejected():
    with pytest.raises((expfam.DomainError, ValueError)):
        expfam.kl_divergence(expfam.bernoulli_natural(0.0), expfam.beta_natural(1.0, 1.0))


def test_an_entropy_given_a_mu_of_another_family_or_shape_is_a_domain_error():
    beta = expfam.beta_natural(2.0, 3.0)
    with pytest.raises(expfam.DomainError, match=re.escape("family mismatch: FamilyDescriptor(kind='beta'")) as exc:
        expfam.entropy(beta, expfam.nat_to_mean(expfam.bernoulli_natural(0.3)))
    assert "kind='bernoulli'" in str(exc.value)
    rows = expfam.NaturalParam(beta.family, np.stack([beta.values] * 3))
    with pytest.raises(expfam.DomainError, match=re.escape("shape mismatch: (3, 2) vs (2, 2)")):
        expfam.entropy(rows, expfam.nat_to_mean(expfam.NaturalParam(beta.family, rows.values[:2])))
    with pytest.raises(expfam.DomainError, match=re.escape("shape mismatch: (3, 2) vs (2,)")):
        expfam.entropy(rows, expfam.nat_to_mean(beta))
    gauss = expfam.gaussian_natural(np.zeros(2), np.eye(2))
    with pytest.raises(expfam.DomainError, match="family mismatch"):
        expfam.entropy(gauss, expfam.nat_to_mean(expfam.gaussian_natural(np.zeros(3), np.eye(3))))
    # an equal family that is another object is accepted
    same = expfam.nat_to_mean(expfam.beta_natural(2.0, 3.0))
    assert same.family is not beta.family
    assert expfam.entropy(beta, same) == expfam.entropy(beta)


@pytest.mark.parametrize("kind, dim", [(expfam.BERNOULLI, 1), (expfam.BETA, 1), (expfam.GAUSSIAN, 2), (expfam.GAUSSIAN_WISHART, 2)])
@pytest.mark.parametrize("stacked", ["first", "second", "both"])
def test_kl_of_row_stacked_parameters_is_a_domain_error(kind, dim, stacked):
    """KL takes one parameter vector each; a (G, flat) plate is rejected by name, not by a numpy shape error."""
    one = _random_natural(np.random.default_rng(2), kind, dim)
    rows = expfam.NaturalParam(one.family, np.tile(one.values, (3, 1)))
    lam1, lam2 = (rows if stacked in (which, "both") else one for which in ("first", "second"))
    with pytest.raises(expfam.DomainError, match="kl_divergence takes one parameter vector each"):
        expfam.kl_divergence(lam1, lam2)


@pytest.mark.parametrize("kind, dim", FAMILIES)
@pytest.mark.parametrize("rows", [1, 3])
def test_mean_to_nat_of_row_stacked_expectations_is_a_domain_error(kind, dim, rows):
    """mean_to_nat takes one vector; a plate's (G, flat) mu is rejected by name and shape, not by a numpy error."""
    one = _random_natural(np.random.default_rng(3), kind, dim)
    mu = expfam.nat_to_mean(expfam.NaturalParam(one.family, np.tile(one.values, (rows, 1))))
    message = f"mean_to_nat takes one parameter vector, not row-stacked ones: got shape {mu.values.shape}"
    with pytest.raises(expfam.DomainError, match=f"^{re.escape(message)}$"):
        expfam.mean_to_nat(mu)


@pytest.mark.parametrize("rows", [1, 2])
def test_beta_ab_of_row_stacked_parameters_is_a_domain_error(rows):
    """A one-row stack is rejected as a two-row one is, not read as its only row."""
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), [[1.0, 2.0], [3.0, 4.0]][:rows])
    message = f"beta_ab takes one parameter vector, not row-stacked ones: got shape ({rows}, 2)"
    with pytest.raises(expfam.DomainError, match=f"^{re.escape(message)}$"):
        expfam.beta_ab(lam)
    assert expfam.beta_ab(expfam.row_view(lam, 0)) == (2.0, 3.0)


# ---------------------------------------------------------------------------
# the damped Newton solve's exits, on a synthetic residual and Jacobian
# ---------------------------------------------------------------------------


def _counted(fn):
    """fn, counting its calls in ``.calls``."""

    def wrapped(x):
        wrapped.calls += 1
        return fn(x)

    wrapped.calls = 0
    return wrapped


def test_newton_keeps_x_when_no_step_lowers_the_residual_and_the_newton_step_is_below_the_floor():
    """A residual at the rounding of its arguments: the Newton step 1e-23 bounds x's error, so x is kept."""
    x0 = np.array([1.5, 2.5])
    residual = _counted(lambda x: np.array([1e-3, -1e-3]))
    out = expfam._newton_in_log(residual, lambda x: 1e20 * np.eye(2), x0, 1e-12, "flat solve")
    assert out.tolist() == x0.tolist()
    assert residual.calls == 2  # the start and one trial step, already below the floor


def test_newton_fails_when_no_step_above_the_floor_lowers_the_residual():
    """A flat residual of 1 and a Newton step of 1: each halving fails down to the floor; the error gives it."""
    residual = _counted(lambda x: np.ones(1))
    with pytest.raises(expfam.NumericalError, match=r"^flat solve did not converge, residual 1$"):
        expfam._newton_in_log(residual, lambda x: np.eye(1), [1.0], 1e-12, "flat solve")
    assert residual.calls == 1 + 35  # the start, then steps 1, 1/2, ..., 2^-34, the first below the floor 1e-10


def test_newton_stops_at_its_iteration_cap():
    """A Jacobian ten times the true slope shrinks the residual u = log x by 0.9 a step: every step is
    taken whole, and after the cap the residual 0.9^100 is still far above tol."""
    residual = _counted(lambda x: np.log(x))
    with pytest.raises(expfam.NumericalError, match=r"^slow solve did not converge, residual 2\.6\d*e-05$"):
        expfam._newton_in_log(residual, lambda x: 10.0 * np.eye(1), [math.e], 1e-12, "slow solve")
    assert residual.calls == 1 + expfam._NEWTON_MAX_ITER


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


# ---------------------------------------------------------------------------
# the Cholesky factor a validated lambda carries, against direct inverses
# ---------------------------------------------------------------------------

_DERANDOMIZED = settings(max_examples=60, derandomize=True, deadline=None)
_EPS = np.finfo(float).eps


@st.composite
def _spd(draw, d: int):
    """An SPD matrix with condition number up to 1e10 and scale 1e-6 to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond = draw(st.floats(0.0, 10.0))
    log_scale = draw(st.floats(-6.0, 6.0))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = 10.0 ** (log_scale + log_cond * np.linspace(0.0, 1.0, d))
    s_mat = (q * eig) @ q.T
    return 0.5 * (s_mat + s_mat.T)


def _old_gaussian_log_partition(lam):
    """The solve-and-slogdet formula the factor replaced."""
    d = lam.family.dim
    h, s_mat = lam.values[:d], -2.0 * lam.values[d:].reshape(d, d)
    return 0.5 * h @ np.linalg.solve(s_mat, h) - 0.5 * np.linalg.slogdet(s_mat)[1] + 0.5 * d * math.log(2.0 * math.pi)


def _gw_w_inv(lam):
    d = lam.family.dim
    gamma = -2.0 * lam.values[-1]
    m = lam.values[1 + d * d : 1 + d * d + d] / gamma
    return -2.0 * lam.values[1 : 1 + d * d].reshape(d, d) - gamma * np.outer(m, m)


def _old_gw_log_partition(lam):
    d = lam.family.dim
    nu, gamma = 2.0 * lam.values[0] + d, -2.0 * lam.values[-1]
    return (
        -0.5 * d * math.log(gamma)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * nu * np.linalg.slogdet(_gw_w_inv(lam))[1]
        + 0.5 * nu * d * math.log(2.0)
        + 0.25 * d * (d - 1) * math.log(math.pi)
        + sum(math.lgamma(0.5 * (nu + 1 - k)) for k in range(1, d + 1))
    )


def _assert_psd_close(got, want, cond):
    """got is symmetric, PSD to rounding, and within a condition-scaled tolerance of want."""
    norm = np.abs(want).max()
    assert np.array_equal(got, got.T)
    assert np.linalg.eigvalsh(got)[0] >= -8.0 * _EPS * norm
    assert np.abs(got - want).max() <= 64.0 * _EPS * cond * norm


@_DERANDOMIZED
@given(st.integers(1, 4).flatmap(lambda d: _spd(d)), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
def test_gaussian_factor_matches_direct_inverse(s_mat, log_mean, seed):
    d = s_mat.shape[0]
    cond = np.linalg.cond(s_mat)
    centred = expfam.gaussian_natural(np.zeros(d), s_mat)
    # with a zero mean the second-moment block is the covariance itself
    _assert_psd_close(expfam.nat_to_mean(centred).values[d:].reshape(d, d), np.linalg.inv(s_mat), cond)

    lam = expfam.gaussian_natural(10.0**log_mean * np.random.default_rng(seed).standard_normal(d), s_mat)
    mu = expfam.nat_to_mean(lam).values
    old = _old_gaussian_log_partition(lam)
    # 1e-12 of the terms summed, plus what any log det of S can be off by: ~cond(S) eps per dimension
    tol = 1e-12 * max(1.0, np.abs(lam.values) @ np.abs(mu), abs(old)) + 8.0 * d * cond * _EPS
    assert abs(expfam.log_partition(lam) - old) <= tol
    assert abs(expfam.entropy(lam) - (old - lam.values @ mu)) <= tol


@_DERANDOMIZED
@given(
    st.integers(1, 3).flatmap(lambda d: _spd(d)),
    st.floats(0.01, 100.0),
    st.floats(0.01, 100.0),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_gaussian_wishart_factor_matches_direct_inverse(w, nu_excess, gamma, log_mean, seed):
    d = w.shape[0]
    nu = d - 1 + nu_excess
    lam = expfam.gw_natural(nu, gamma, 10.0**log_mean * np.random.default_rng(seed).standard_normal(d), w)
    w_inv = _gw_w_inv(lam)
    mu = expfam.nat_to_mean(lam).values
    _assert_psd_close(mu[1 : 1 + d * d].reshape(d, d), nu * np.linalg.inv(w_inv), np.linalg.cond(w_inv))
    old = _old_gw_log_partition(lam)
    tol = 1e-12 * max(1.0, np.abs(lam.values) @ np.abs(mu), abs(old)) + 8.0 * nu * d * np.linalg.cond(w_inv) * _EPS
    assert abs(expfam.log_partition(lam) - old) <= tol
    assert abs(expfam.entropy(lam) - (old - lam.values @ mu)) <= tol


def test_row_view_carries_its_rows_factor():
    rows = np.stack([expfam.gaussian_natural(np.ones(2), k * np.eye(2)).values for k in (1.0, 4.0)])
    stacked = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2), rows)
    one = expfam.row_view(stacked, 1)
    assert np.array_equal(one.factor, expfam.NaturalParam(stacked.family, rows[1]).factor)
    assert np.array_equal(one.factor, 2.0 * np.eye(2))
    bern = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.zeros((3, 1)))
    assert bern.factor is None and expfam.row_view(bern, 2).factor is None


# ---------------------------------------------------------------------------
# Gaussian rows that share one precision share one Cholesky factor
# ---------------------------------------------------------------------------


def _shared_precision_rows(g: int, d: int, seed: int = 0) -> np.ndarray:
    """g Gaussian lambdas with one random SPD precision and a mean of their own, as (g, flat) rows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    precision = a @ a.T + np.eye(d)
    means = rng.standard_normal((g, d))
    return np.stack([expfam.gaussian_natural(m, precision).values for m in means])


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("g", [2, 5, 40])
def test_rows_sharing_a_precision_keep_one_factor_and_give_each_lone_rows_results(g, d):
    rows = _shared_precision_rows(g, d)
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), rows)
    assert lam.factor.shape == (1, d, d) and not lam.factor.flags.writeable
    mu = expfam.nat_to_mean(lam)
    log_z, ent = expfam.log_partition(lam), expfam.entropy(lam)
    ent_mu = expfam.entropy(lam, mu)
    m, precision = expfam.gaussian_mean_precision(lam)
    assert mu.values.shape == (g, d + d * d) and log_z.shape == ent.shape == (g,) and precision.shape == (g, d, d)
    for r in range(g):
        alone = expfam.NaturalParam(lam.family, rows[r])
        assert _bits(expfam.row_view(lam, r).factor) == _bits(alone.factor)
        assert _bits(mu.values[r]) == _bits(expfam.nat_to_mean(alone).values)
        assert _bits(log_z[r]) == _bits(expfam.log_partition(alone))
        assert _bits(ent[r]) == _bits(ent_mu[r]) == _bits(expfam.entropy(alone))
        alone_m, alone_precision = expfam.gaussian_mean_precision(alone)
        assert _bits(m[r]) == _bits(alone_m) and _bits(precision[r]) == _bits(alone_precision)


def _assert_each_row_is_a_lone_rows(lam: expfam.NaturalParam, rows: np.ndarray) -> None:
    """Each row's stored values, factor, mu, log-partition and entropy are bitwise those of its row built alone."""
    mu, log_z, ent = expfam.nat_to_mean(lam), expfam.log_partition(lam), expfam.entropy(lam)
    for r in range(len(rows)):
        alone = expfam.NaturalParam(lam.family, rows[r])
        assert _bits(lam.values[r]) == _bits(alone.values)
        assert _bits(expfam.row_view(lam, r).factor) == _bits(alone.factor)
        assert _bits(mu.values[r]) == _bits(expfam.nat_to_mean(alone).values)
        assert _bits(log_z[r]) == _bits(expfam.log_partition(alone))
        assert _bits(ent[r]) == _bits(expfam.entropy(alone))


def test_a_signed_zero_in_the_precision_does_not_tie_rows():
    rows = _shared_precision_rows(3, 2)
    rows[:, 2:] = (-0.5 * np.diag([2.0, 3.0])).reshape(-1)  # off-diagonal -S/2 entries are -0.0
    rows[1, 3] = rows[1, 4] = 0.0  # the same value in row 1, with the other sign
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2), rows)
    assert np.array_equal(rows[0, 2:], rows[1, 2:])
    assert lam.factor.shape == (3, 2, 2)
    rows[1, 3] = rows[1, 4] = -0.0
    assert expfam.NaturalParam(lam.family, rows).factor.shape == (1, 2, 2)
    # -0.0 above the diagonal and +0.0 below it in every row: each block differs from its own transpose
    rows[:, 4] = 0.0
    lam = expfam.NaturalParam(lam.family, rows)
    assert lam.factor.shape == (3, 2, 2)
    assert _bits(lam.values[:, 3:5]) == _bits(np.zeros((3, 2)))  # symmetrized: (-0.0 + 0.0) / 2 is +0.0
    _assert_each_row_is_a_lone_rows(lam, rows)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("g", [1, 2, 40])
def test_a_tied_symmetric_plate_is_kept_as_given_without_symmetrizing(monkeypatch, g, d):
    """One compare finds the shared symmetric block: the values are a read-only copy of the input, bit for bit."""
    calls = []
    symmetrize = expfam._Family.owned
    monkeypatch.setattr(expfam._Family, "owned", lambda *args: calls.append(args) or symmetrize(*args))
    rows = _shared_precision_rows(g, d)
    given = rows.copy()
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), rows)
    assert calls == []
    assert lam.factor.shape == (1, d, d) and not lam.factor.flags.writeable
    assert _bits(lam.values) == _bits(given) and not lam.values.flags.writeable
    assert not np.shares_memory(lam.values, rows)
    rows[:] = 0.0
    assert _bits(lam.values) == _bits(given)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("g", [2, 5, 40])
def test_a_plate_sharing_one_asymmetric_block_is_symmetrized_row_by_row(g, d):
    """Rows that tie only after symmetrizing keep a factor each, and each row's results are a lone row's."""
    rows = _shared_precision_rows(g, d)
    block = rows[0, d:].reshape(d, d) + 0.01 * np.triu(np.ones((d, d)), 1)  # -S/2 plus an asymmetric part
    rows[:, d:] = block.reshape(-1)
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), rows)
    assert lam.factor.shape == (g, d, d)
    want = (0.5 * (block + block.T)).reshape(-1)
    for r in range(g):
        assert _bits(lam.values[r, d:]) == _bits(want) and _bits(lam.values[r, :d]) == _bits(rows[r, :d])
    _assert_each_row_is_a_lone_rows(lam, rows)


@pytest.mark.parametrize("d", [1, 3])
def test_a_single_gaussian_keeps_its_values_and_factor(d):
    """A lone (1-D) Gaussian lambda: the values as given, a (D, D) factor of S, bit for bit."""
    given = _shared_precision_rows(1, d, seed=d)[0]
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), given)
    block = given[d:].reshape(d, d)
    assert _bits(lam.values) == _bits(given)
    assert _bits(lam.values[d:]) == _bits(0.5 * (block + block.T))
    assert lam.factor.shape == (d, d) and _bits(lam.factor) == _bits(np.linalg.cholesky(-2.0 * block))
    one = expfam.gaussian_natural([3.0], [[4.0]])
    assert one.values.tolist() == [12.0, -2.0] and one.factor.tolist() == [[2.0]]


def _own_precision_rows(g: int, d: int, seed: int = 0) -> np.ndarray:
    """g Gaussian lambdas, each with a random SPD precision and a mean of its own, as (g, flat) rows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((g, d, d))
    precisions = a @ np.swapaxes(a, -1, -2) + np.eye(d)
    return np.stack([expfam.gaussian_natural(m, s).values for m, s in zip(rng.standard_normal((g, d)), precisions)])


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("g", [1, 2, 40])
def test_each_rows_gaussian_entropy_is_its_lone_rows(g, d, tied):
    """A tied plate's one factor gives one entropy, broadcast over its rows; each is bitwise a lone row's."""
    rows = (_shared_precision_rows if tied else _own_precision_rows)(g, d)
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), rows)
    assert lam.factor.shape == ((1 if tied else g), d, d)
    ent = expfam.entropy(lam)
    assert ent.shape == (g,)
    for r in range(g):
        assert _bits(ent[r]) == _bits(expfam.entropy(expfam.NaturalParam(lam.family, rows[r])))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("g", [1, 2, 40])
def test_the_factor_inverse_and_log_det_are_bitwise_their_solve_and_sum(g, d):
    """``inv`` of a Cholesky factor is the solve against the identity, and ``.sum`` is ``np.sum``, bit for bit."""
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=d), _own_precision_rows(g, d, seed=d))
    for chol in (lam.factor, lam.factor[0]):
        linv, cov = expfam._factor_inverse(chol)
        want = np.linalg.solve(chol, np.eye(d))
        assert _bits(linv) == _bits(want) and _bits(cov) == _bits(np.swapaxes(want, -1, -2) @ want)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        assert _bits(expfam._logdet_from_factor(chol)) == _bits(logdet)


@pytest.mark.parametrize("g", [2, 5, 40])
def test_a_shared_precision_that_is_not_spd_fails_every_row_with_the_lone_message(g):
    rows = _shared_precision_rows(g, 2)
    rows[:, 2:] = (-0.5 * np.diag([1.0, -1.0])).reshape(-1)
    fam = expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2)
    with pytest.raises(expfam.DomainError) as stacked:
        expfam.NaturalParam(fam, rows)
    with pytest.raises(expfam.DomainError) as alone:
        expfam.NaturalParam(fam, rows[0])
    assert str(stacked.value) == str(alone.value)
    assert "Gaussian precision S must be symmetric positive-definite" in str(alone.value)
    assert np.array_equal(stacked.value.rows, np.arange(g))


def _backoff_rates(monkeypatch, rows: np.ndarray, target: np.ndarray):
    """The rates ``_step_with_backoff`` tries on its way to ``target``, and the plate it lands on."""
    rates = []
    step = engine.blr_step

    def recorded(node, goal, rho):
        rates.append(np.array(rho, dtype=float).reshape(-1).tolist())
        return step(node, goal, rho)

    monkeypatch.setattr(engine, "blr_step", recorded)
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2), rows)
    plate = engine.Plate([f"u{i}" for i in range(len(rows))], lam)
    out = engine._step_with_backoff(plate, target, 1.0)
    monkeypatch.undo()
    return rates, out


@pytest.mark.parametrize("g", [2, 5, 40])
def test_a_step_toward_a_shared_non_spd_precision_halves_every_rows_rate_together(monkeypatch, g):
    """S = I steps toward S = -I: rates 1 and 1/2 leave the domain in every row, 1/4 lands at S = I/2.

    A plate whose rows' precisions differ only by a scale takes the same rates, one factor per row.
    """
    rows = _shared_precision_rows(g, 2)
    rows[:, 2:] = (-0.5 * np.eye(2)).reshape(-1)
    target = rows.copy()
    target[:, 2:] = -rows[:, 2:]
    rates, out = _backoff_rates(monkeypatch, rows, target)
    assert rates == [[1.0], [0.5] * g, [0.25] * g]
    assert out.lam.factor.shape == (1, 2, 2)
    assert np.array_equal(out.lam.values, 0.75 * rows + 0.25 * target)
    scale = np.linspace(1.0, 2.0, g)[:, None]
    untied_rates, untied = _backoff_rates(monkeypatch, scale * rows, scale * target)
    assert untied_rates == rates and untied.lam.factor.shape == (g, 2, 2)


# ---------------------------------------------------------------------------
# Gaussian-Wishart rows taken as one array
# ---------------------------------------------------------------------------


def _gw_stack(seed: int, d: int, g: int = 3):
    """g random Gaussian-Wishart lambdas, one at a time and stacked."""
    rng = np.random.default_rng(seed)
    lams = [_random_natural(rng, expfam.GAUSSIAN_WISHART, d) for _ in range(g)]
    return lams, expfam.NaturalParam(lams[0].family, np.stack([lam.values for lam in lams]))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_gaussian_wishart_rows_match_one_row_results(seed, d):
    lams, stack = _gw_stack(seed, d)
    mus = expfam.nat_to_mean(stack)
    log_z = expfam.log_partition(stack)
    ent = expfam.entropy(stack)
    assert stack.factor.shape == (3, d, d) and log_z.shape == ent.shape == (3,)
    for r, lam in enumerate(lams):
        np.testing.assert_allclose(stack.factor[r], lam.factor, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(mus.values[r], expfam.nat_to_mean(lam).values, rtol=1e-15, atol=0.0)
        assert log_z[r] == pytest.approx(expfam.log_partition(lam), rel=1e-15, abs=0.0)
        assert ent[r] == pytest.approx(expfam.entropy(lam), rel=1e-15, abs=0.0)
        expfam.ExpectationParam(lam.family, mus.values[r])  # each row passes on its own
    expfam.ExpectationParam(stack.family, mus.values)  # and so does the stack


def _gw_bad_gamma(values, d):
    values[-1] = 0.5  # gamma = -1


def _gw_bad_nu(values, d):
    values[0] = -0.75  # nu = 2 lam[0] + D = D - 1.5


def _gw_indefinite_w_inv(values, d):
    gamma = -2.0 * values[-1]
    m = values[1 + d * d : 1 + d * d + d] / gamma
    w_inv = np.diag([1.0] + [-1.0] * (d - 1))
    values[1 : 1 + d * d] = (-0.5 * (w_inv + gamma * np.outer(m, m))).reshape(-1)


@pytest.mark.parametrize(
    "spoil, message",
    [(_gw_bad_gamma, "gamma > 0"), (_gw_bad_nu, "nu > D-1"), (_gw_indefinite_w_inv, "W\\^-1 must be symmetric")],
    ids=["gamma", "nu", "w_inv"],
)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_one_bad_gaussian_wishart_row_is_named(spoil, message, r):
    lams, stack = _gw_stack(7, 2)
    values = stack.values.copy()
    spoil(values[r], 2)
    with pytest.raises(expfam.DomainError, match=message) as one:
        expfam.NaturalParam(stack.family, values[r])
    with pytest.raises(expfam.DomainError, match=message) as rows:
        expfam.NaturalParam(stack.family, values)
    assert list(one.value.rows) == [0] and list(rows.value.rows) == [r]


def test_one_bad_gaussian_wishart_expectation_row_is_named():
    _, stack = _gw_stack(8, 2)
    mus = expfam.nat_to_mean(stack).values.copy()
    mus[1, 1:5] = [1.0, 0.0, 0.0, -1.0]  # E[Z2] indefinite
    with pytest.raises(expfam.DomainError, match="E\\[Z2\\]") as rows:
        expfam.ExpectationParam(stack.family, mus)
    assert list(rows.value.rows) == [1]


def test_gw_params_of_a_row_view_gives_python_floats():
    lams, stack = _gw_stack(9, 2)
    for r, lam in enumerate(lams):
        nu, gamma, m, w = expfam.gw_params(expfam.row_view(stack, r))
        assert isinstance(nu, float) and isinstance(gamma, float)
        want = expfam.gw_params(lam)
        assert (nu, gamma) == pytest.approx(want[:2], rel=1e-15)
        np.testing.assert_allclose(m, want[2], rtol=1e-15)
        np.testing.assert_allclose(w, want[3], rtol=1e-15)


def _gw_flat_decode(values: np.ndarray, d: int):
    """(nu, gamma, m, t) per row, read off the flat layout: nu = 2 lam_0 + D, gamma = -2 lam_last, t = 2 lam_0 + 1."""
    gamma = -2.0 * values[..., -1]
    return 2.0 * values[..., 0] + d, gamma, values[..., 1 + d * d : -1] / gamma[..., None], 2.0 * values[..., 0] + 1.0


def _gw_flat_kl(lam1, lam2) -> float:
    """The closed-form KL, each lambda decoded from its flat layout, summed in the order ``kl_divergence`` sums it."""
    d = lam1.family.dim
    (nu1, g1, m1, t1), (nu2, g2, m2, t2) = _gw_flat_decode(lam1.values, d), _gw_flat_decode(lam2.values, d)
    c1, c2 = lam1.factor, lam2.factor
    a = np.linalg.solve(c1, np.c_[c2, m2 - m1])
    gauss = d * (g2 / g1 - 1.0 - np.log(g2 / g1)) + g2 * nu1 * (a[:, d] @ a[:, d])
    logdets = expfam._logdet_from_factor(c2) - expfam._logdet_from_factor(c1)
    wishart = nu1 * (np.sum(a[:, :d] ** 2) - d) - nu2 * logdets
    psi1, lgamma1 = expfam._wishart_sums(float(t1), d, specfun.digamma, specfun.gammaln)
    lgamma2 = expfam._wishart_sums(float(t2), d, specfun.gammaln)[0]
    return float(0.5 * (gauss + wishart + (nu1 - nu2) * psi1) + lgamma2 - lgamma1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gw_params_and_kl_divergence_match_the_flat_layout_bitwise(d):
    """Lone lambdas, a G = 4 stack and its row views: nu, gamma and m bitwise as the flat layout gives them, W to rounding."""
    lams, stack = _gw_stack(40 + d, d, g=4)
    views = [expfam.row_view(stack, r) for r in range(4)]
    for lam in [*lams, stack, *views]:
        nu, gamma, m, w = expfam.gw_params(lam)
        want = _gw_flat_decode(lam.values, d)
        for got, expected in zip((nu, gamma, m), want):
            assert np.shape(got) == np.shape(expected) and _bits(got) == _bits(expected)
        g, mm = want[1][..., None, None], want[2][..., :, None] * want[2][..., None, :]
        w_inv = -2.0 * lam.values[..., 1 : 1 + d * d].reshape(w.shape) - g * mm
        np.testing.assert_allclose(w @ w_inv, np.broadcast_to(np.eye(d), w.shape), atol=1e-9)
    for one in (lams, views):
        for i in range(4):
            for j in range(4):
                assert _bits(expfam.kl_divergence(one[i], one[j])) == _bits(_gw_flat_kl(one[i], one[j]))


def test_gaussian_wishart_expected_log_det_near_its_smallest_nu_matches_mpmath():
    """At D=2 and nu - 1 = 1e-4, E[log det Lambda] = sum_j psi((t + j)/2) + D log 2 - log det W^-1 to 1e-14.

    t = nu - (D - 1) is formed from lambda as 2 lam_0 + 1; forming nu first
    rounds t on the scale of nu, 2e-12 relative here.
    """
    mpmath = pytest.importorskip("mpmath")
    lam = expfam.gw_natural(1.0 + 1e-4, 0.7, np.array([0.3, -0.2]), np.array([[2.0, 0.3], [0.3, 0.5]]))
    got = float(expfam.nat_to_mean(lam).values[0])
    with mpmath.workdps(50):
        t = 2 * mpmath.mpf(float(lam.values[0])) + 1
        gamma = -2 * mpmath.mpf(float(lam.values[-1]))
        g = [mpmath.mpf(float(v)) for v in lam.values[5:7]]  # gamma m
        eta2 = [[mpmath.mpf(float(v)) for v in lam.values[1 + 2 * i : 3 + 2 * i]] for i in range(2)]
        w_inv = mpmath.matrix([[-2 * eta2[i][j] - g[i] * g[j] / gamma for j in range(2)] for i in range(2)])
        want = mpmath.digamma(t / 2) + mpmath.digamma((t + 1) / 2) + 2 * mpmath.log(2) - mpmath.log(mpmath.det(w_inv))
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_gaussian_wishart_mean_carries_its_log_partition(d):
    """entropy reads A(lam) off a mean nat_to_mean derived, bitwise as log_partition gives it, for rows and a row view.

    The entropy is A + D (nu + 1) / 2 - lam_0 E[log det Lambda].  A mean
    built through the constructor carries no A, and gives the same entropy.
    """

    def closed_form(lam, mu):
        lam0 = lam.values[..., 0]
        return expfam.log_partition(lam) + 0.5 * d * (2.0 * lam0 + d + 1.0) - lam0 * mu.values[..., 0]

    _, stack = _gw_stack(20 + d, d, g=4)
    mu = expfam.nat_to_mean(stack)
    assert mu.log_partition.shape == (4,)
    want = closed_form(stack, mu)
    assert expfam.entropy(stack, mu).tobytes() == want.tobytes()
    assert expfam.entropy(stack).tobytes() == want.tobytes()
    rebuilt = expfam.ExpectationParam(stack.family, mu.values)
    assert rebuilt.log_partition is None
    assert expfam.entropy(stack, rebuilt).tobytes() == want.tobytes()
    for r in range(4):
        assert expfam.row_view(mu, r).log_partition == mu.log_partition[r]
        one = expfam.row_view(stack, r)
        one_mu = expfam.nat_to_mean(one)
        want_one = closed_form(one, one_mu)
        assert expfam.entropy(one, one_mu) == want_one
        assert expfam.entropy(one, expfam.ExpectationParam(one.family, one_mu.values)) == want_one
    gauss = expfam.gaussian_natural(np.ones(d), np.eye(d))
    assert expfam.nat_to_mean(gauss).log_partition is None


# ---------------------------------------------------------------------------
# the derived Bernoulli mean, and finiteness checked in one pass
# ---------------------------------------------------------------------------

_EXTREME_LOG_ODDS = [0.0, 36.7, -36.7, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]


def _clipped_sigmoid(lv: np.ndarray) -> np.ndarray:
    """The Bernoulli mean as ``np.clip`` onto [1e-300, 1 - 1e-16] gave it."""
    e = np.exp(-np.abs(lv))
    p = np.where(lv >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(p, 1e-300, 1.0 - 1e-16)


def test_the_derived_bernoulli_mean_is_the_clipped_sigmoid_and_passes_the_full_check():
    log_odds = np.array(_EXTREME_LOG_ODDS)
    bern = expfam.FamilyDescriptor(expfam.BERNOULLI)
    mu = expfam.nat_to_mean(expfam.NaturalParam(bern, log_odds[:, None]))
    assert mu.values.shape == (len(log_odds), 1)
    assert mu.values[:, 0].tobytes() == _clipped_sigmoid(log_odds).tobytes()
    expfam.ExpectationParam(bern, mu.values)  # every row inside (0, 1)
    for lv in _EXTREME_LOG_ODDS:
        one = expfam.nat_to_mean(expfam.bernoulli_natural(lv))
        assert one.values.tobytes() == _clipped_sigmoid(np.array([lv])).tobytes()
        expfam.ExpectationParam(bern, one.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("param", [expfam.NaturalParam, expfam.ExpectationParam])
def test_a_non_finite_row_is_named(param, bad):
    bern = expfam.FamilyDescriptor(expfam.BERNOULLI)
    values = np.full((5, 1), 0.25)
    values[3, 0] = bad
    with pytest.raises(expfam.DomainError, match="bernoulli parameters must be finite") as rows:
        param(bern, values)
    assert list(rows.value.rows) == [3]
    gauss = expfam.nat_to_mean(expfam.gaussian_natural(np.zeros(2), np.eye(2))).values
    values = np.stack([gauss] * 4)
    values[1, 4] = values[2, 0] = bad
    with pytest.raises(expfam.DomainError, match="gaussian parameters must be finite") as rows:
        param(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2), values)
    assert list(rows.value.rows) == [1, 2]


@pytest.mark.parametrize(
    "family, values, what, rows",
    [
        ((expfam.GAUSSIAN, 1), [0.0, -1e308], "Gaussian precision S", [0]),
        ((expfam.GAUSSIAN, 1), [[0.0, -0.5], [0.0, -1e308], [0.0, -1.0]], "Gaussian precision S", [1]),
        ((expfam.GAUSSIAN_WISHART, 1), [[1, -0.5, 0, -0.5], [1, -1e308, 0, -0.5]], "Gaussian-Wishart W^-1", [1]),
    ],
    ids=["gaussian", "gaussian-rows", "gaussian-wishart"],
)
def test_a_lambda_whose_cholesky_factor_is_not_finite_is_a_domain_error_naming_its_rows(family, values, what, rows):
    """-2 lam_2 = 2e308 overflows to an infinite matrix, whose infinite factor is refused as none.

    Outside a fit numpy's floating-point state is the caller's; this one ignores the overflow, as a fit does.
    """
    message = f"^{re.escape(what)} must be symmetric positive-definite, got "
    with np.errstate(over="ignore"), pytest.raises(expfam.DomainError, match=message) as err:
        expfam.NaturalParam(expfam.FamilyDescriptor(*family), values)
    assert "[[inf]]" in str(err.value)
    assert list(err.value.rows) == rows


def test_a_lambda_whose_mean_overflows_still_constructs():
    """Construction validates lambda alone; the overflow is the finiteness error of the mean nat_to_mean derives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gw = expfam.gw_natural(1e308, 1.0, np.zeros(2), 10.0 * np.eye(2))  # E[Lambda] = nu W overflows
        gauss = expfam.gaussian_natural([1e200], np.eye(1))  # E[z^2] = 1 + m^2 overflows
        assert math.isfinite(expfam.entropy(gauss))
    for lam in (gw, gauss):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(expfam.DomainError, match=f"^{lam.family.kind} parameters must be finite$") as err:
                expfam.nat_to_mean(lam)
        assert list(err.value.rows) == [0]


# ---------------------------------------------------------------------------
# Bernoulli and Beta: A(lambda) off the mean pass, Beta rows in floats
# ---------------------------------------------------------------------------


def _bernoulli_and_beta_stacks():
    """A Bernoulli stack over the extreme log-odds, and one Beta stack under each base measure."""
    ab = np.array([[0.5, 2.0], [25.0, 17.0], [1e-3, 1e3], [3.0, 3.0], [0.02, 0.25]])
    beta = [expfam.FamilyDescriptor(expfam.BETA, base_measure=base) for base in ("constant", "reciprocal")]
    return [expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.array(_EXTREME_LOG_ODDS)[:, None])] + [
        expfam.NaturalParam(fam, ab - (0.0 if fam.base_measure == "reciprocal" else 1.0)) for fam in beta
    ]


@pytest.mark.parametrize("lam", _bernoulli_and_beta_stacks(), ids=["bernoulli", "beta", "reciprocal-beta"])
def test_a_bernoulli_or_beta_entropy_off_the_mean_pass_is_bitwise_the_constructor_paths(lam):
    """The mu ``nat_to_mean`` derives carries A(lam), bitwise ``log_partition``'s, for rows, row views and a vector.

    A mu built through the constructor carries none, so its entropy computes
    A: both give one entropy, bit for bit.
    """
    mu = expfam.nat_to_mean(lam)
    assert mu.log_partition.shape == (len(lam.values),)
    assert _bits(mu.log_partition) == _bits(expfam.log_partition(lam))
    rebuilt = expfam.ExpectationParam(lam.family, mu.values)
    assert rebuilt.log_partition is None
    want = expfam.entropy(lam, rebuilt)
    assert _bits(expfam.entropy(lam, mu)) == _bits(want) == _bits(expfam.entropy(lam))
    for r in range(len(lam.values)):
        one, one_mu = expfam.row_view(lam, r), expfam.row_view(mu, r)
        assert one_mu.log_partition == mu.log_partition[r]
        assert _bits(expfam.entropy(one, one_mu)) == _bits(want[r])
        assert _bits(expfam.entropy(one, expfam.ExpectationParam(one.family, one_mu.values))) == _bits(want[r])
        alone = expfam.nat_to_mean(expfam.NaturalParam(lam.family, lam.values[r]))  # a vector's own mean pass
        assert _bits(alone.values) == _bits(mu.values[r]) and _bits(alone.log_partition) == _bits(mu.log_partition[r])
        assert _bits(expfam.entropy(one, alone)) == _bits(want[r])


@pytest.mark.parametrize("base", ["constant", "reciprocal"])
def test_a_beta_stack_with_two_bad_rows_names_the_first_and_lists_both(base):
    fam = expfam.FamilyDescriptor(expfam.BETA, base_measure=base)
    ab = np.array([[2.0, 3.0], [-1.0, 1.5], [1.5, 0.0]])
    with pytest.raises(expfam.DomainError) as exc:
        expfam.NaturalParam(fam, ab - (0.0 if base == "reciprocal" else 1.0))
    assert str(exc.value) == "Beta requires alpha > 0 and beta > 0, got (-1, 1.5)"
    assert exc.value.rows.tolist() == [1, 2] and exc.value.rows.dtype == np.intp
    with pytest.raises(expfam.DomainError, match=re.escape("got (1.5, 0)")) as exc:
        expfam.NaturalParam(fam, ab[2] - (0.0 if base == "reciprocal" else 1.0))
    assert exc.value.rows.tolist() == [0]


# ---------------------------------------------------------------------------
# Gaussian-Wishart: the per-row float pass against whole-array formulas
# ---------------------------------------------------------------------------


def _gw_reference(values: np.ndarray, d: int):
    """The Gaussian-Wishart conversions of (G, flat) rows as whole-array formulas, in numpy throughout.

    Returns the stored lambda (its block symmetrized), the Cholesky factors
    of W^-1, mu, A(lambda) and the entropy, one row each.  Every per-row
    scalar is an array operation here, in the order the library's float
    pass keeps, so the two agree bit for bit.
    """
    lam = values.copy()
    block = values[:, 1 : 1 + d * d].reshape(-1, d, d)
    lam[:, 1 : 1 + d * d] = (0.5 * (block + block.swapaxes(-1, -2))).reshape(-1, d * d)
    gamma = -2.0 * lam[:, -1]
    nu, t, m = 2.0 * lam[:, 0] + d, 2.0 * lam[:, 0] + 1.0, lam[:, 1 + d * d : -1] / gamma[:, None]
    w_inv = -2.0 * lam[:, 1 : 1 + d * d].reshape(-1, d, d) - gamma[:, None, None] * (m[:, :, None] * m[:, None, :])
    chol = np.linalg.cholesky(w_inv)
    logdet_w_inv = 2.0 * np.add.reduce(np.log(chol.diagonal(axis1=-2, axis2=-1)), axis=-1)
    cinv = np.linalg.inv(chol)
    y = (cinv @ m[:, :, None])[:, :, 0]
    args = (0.5 * (t.reshape(-1, 1) + np.arange(d))).tolist()
    psi_sum, lgamma_sum = (np.array([sum(map(fn, row)) for row in args]) for fn in (specfun.digamma, specfun.gammaln))
    mu = np.empty_like(lam)
    mu[:, 0] = psi_sum + d * math.log(2.0) - logdet_w_inv
    mu[:, 1 : 1 + d * d] = (nu[:, None, None] * (cinv.swapaxes(-1, -2) @ cinv)).reshape(-1, d * d)
    mu[:, 1 + d * d : -1] = nu[:, None] * (cinv.swapaxes(-1, -2) @ y[:, :, None])[:, :, 0]
    mu[:, -1] = nu * (y[:, None, :] @ y[:, :, None])[:, 0, 0] + d / gamma
    log_z = (
        -0.5 * d * np.log(gamma)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * nu * logdet_w_inv
        + 0.5 * nu * d * math.log(2.0)
        + 0.25 * d * (d - 1) * math.log(math.pi)
        + lgamma_sum
    )
    ent = log_z + 0.5 * d * (2.0 * lam[:, 0] + d + 1.0) - lam[:, 0] * mu[:, 0]
    return lam, chol, mu, log_z, ent


def _gw_reference_kl(lam1: np.ndarray, c1: np.ndarray, lam2: np.ndarray, c2: np.ndarray, d: int) -> float:
    """KL between two stored Gaussian-Wishart vectors with factors c1, c2, as whole-array formulas."""
    (g1, g2), (nu1, nu2) = -2.0 * np.array([lam1[-1], lam2[-1]]), 2.0 * np.array([lam1[0], lam2[0]]) + d
    a = np.linalg.solve(c1, np.c_[c2, lam2[1 + d * d : -1] / g2 - lam1[1 + d * d : -1] / g1])
    logdet = [2.0 * np.add.reduce(np.log(c.diagonal())) for c in (c1, c2)]
    gauss = d * (g2 / g1 - 1.0 - np.log(g2 / g1)) + g2 * nu1 * (a[:, d] @ a[:, d])
    wishart = nu1 * (np.sum(a[:, :d] ** 2) - d) - nu2 * (logdet[1] - logdet[0])
    args = [[0.5 * (2.0 * lam[0] + 1.0 + j) for j in range(d)] for lam in (lam1, lam2)]
    psi1, lgamma1, lgamma2 = sum(map(specfun.digamma, args[0])), *(sum(map(specfun.gammaln, row)) for row in args)
    return float(0.5 * (gauss + wishart + (nu1 - nu2) * psi1) + lgamma2 - lgamma1)


def _gw_draw(rng, d: int, g: int) -> np.ndarray:
    """g valid Gaussian-Wishart rows over many scales, each block given an antisymmetric part to symmetrize away."""
    rows = []
    for _ in range(g):
        a = rng.standard_normal((d, d))
        w = a @ a.T * 10.0 ** rng.uniform(-4.0, 4.0) + 1e-3 * np.eye(d)
        nu = d - 1 + 10.0 ** rng.uniform(-5.0, 5.0)
        mean = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
        values = expfam.gw_natural(nu, 10.0 ** rng.uniform(-6.0, 6.0), mean, w).values.copy()
        skew = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 0.0)
        values[1 : 1 + d * d] += (skew - skew.T).reshape(-1)
        rows.append(values)
    return np.array(rows)


def test_the_gaussian_wishart_float_pass_is_bitwise_the_array_formulas():
    """nat_to_mean, log_partition, entropy and KL agree with whole-array formulas bit for bit, over 1200 draws.

    D runs over 1, 2, 3 and 5 and the stack height over 1, 2 and 4; each
    entropy is taken with and without mu, stacked and through ``row_view``.
    """
    rng = np.random.default_rng(20261019)
    got, want = ({k: hashlib.sha256() for k in ("mu", "A", "H", "row H", "KL")} for _ in range(2))
    for draw in range(1200):
        d, g = (1, 2, 3, 5)[draw % 4], (1, 2, 4)[draw // 4 % 3]
        values = _gw_draw(rng, d, g)
        lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN_WISHART, d), values)
        mu = expfam.nat_to_mean(lam)
        ref_lam, ref_chol, ref_mu, ref_log_z, ref_ent = _gw_reference(values, d)
        assert _bits(lam.values) == _bits(ref_lam) and _bits(lam.factor) == _bits(ref_chol)
        got["mu"].update(mu.values.tobytes() + mu.log_partition.tobytes())
        want["mu"].update(ref_mu.tobytes() + ref_log_z.tobytes())
        got["A"].update(expfam.log_partition(lam).tobytes())
        want["A"].update(ref_log_z.tobytes())
        got["H"].update(expfam.entropy(lam).tobytes() + expfam.entropy(lam, mu).tobytes())
        want["H"].update(ref_ent.tobytes() * 2)
        for r in range(g):
            one, one_mu = expfam.row_view(lam, r), expfam.row_view(mu, r)
            got["row H"].update(_bits(expfam.entropy(one)) + _bits(expfam.entropy(one, one_mu)))
            want["row H"].update(ref_ent[r : r + 1].tobytes() * 2)
            other = (r + 1) % g
            pair = [expfam.NaturalParam(lam.family, values[i]) for i in (r, other)]
            got["KL"].update(_bits(expfam.kl_divergence(*pair)))
            want["KL"].update(_bits(_gw_reference_kl(ref_lam[r], ref_chol[r], ref_lam[other], ref_chol[other], d)))
    assert {k: h.hexdigest() for k, h in got.items()} == {k: h.hexdigest() for k, h in want.items()}
