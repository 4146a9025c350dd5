"""The hand-rolled special functions against scipy's implementations."""

import numpy as np
import pytest
import scipy.special as sp

from meanfield import specfun


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 9.99, 10.0, 42.0, 1e4])
def test_digamma_matches_scipy(x):
    assert specfun.digamma(x) == pytest.approx(sp.digamma(x), rel=1e-12, abs=1e-12)


def test_digamma_matches_a_50_digit_evaluation_on_1_to_10():
    """Where the recurrence feeds the asymptotic series, the series' truncation must be below rounding."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in np.linspace(1.0, 10.0, 181):
        assert abs(specfun.digamma(x) - float(mpmath.digamma(mpmath.mpf(x)))) <= 1e-15, x


def test_gammaln_matches_a_50_digit_evaluation_on_1_to_10():
    """As for digamma: through B_14 the Stirling series' truncation is below the recurrence's rounding."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for x in np.linspace(1.0, 10.0, 181):
        assert abs(specfun.gammaln(x) - float(mpmath.loggamma(mpmath.mpf(x)))) <= 1e-14, x


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 2.5, 9.5, 10.5, 100.0, 1e5])
def test_trigamma_matches_scipy(x):
    assert specfun.trigamma(x) == pytest.approx(sp.polygamma(1, x), rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 2.5, 9.5, 9.99, 10.0, 10.5, 100.0, 1e5])
def test_tetragamma_matches_scipy(x):
    assert specfun.tetragamma(x) == pytest.approx(sp.polygamma(2, x), rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 2.5, 9.99])
def test_trigamma_reciprocal_offset_below_the_cutoff_matches_scipy(x):
    assert specfun.trigamma_reciprocal_offset(x) == pytest.approx(1.0 / sp.polygamma(1, x) - x, rel=1e-13)


@pytest.mark.parametrize(
    "x, want",
    [
        # 1/psi'(x) - x to 20 digits, from a 50-digit evaluation: in float64,
        # 1/polygamma(1, x) - x loses log10(x) of its digits to cancellation
        (10.0, -0.49125375037531527425),
        (12.5, -0.49306834094737358791),
        (100.0, -0.4991625016189677483),
        (2e4, -0.49999583322916684042),
        (1e5, -0.49999916666250000139),
        (1e9, -0.49999999991666666662),
    ],
)
def test_trigamma_reciprocal_offset_keeps_full_precision(x, want):
    assert specfun.trigamma_reciprocal_offset(x) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("x", [1e-3, 0.2, 0.5, 1.0, 2.0, 3.5, 9.0, 10.0, 11.0, 500.0])
def test_gammaln_matches_scipy(x):
    assert specfun.gammaln(x) == pytest.approx(sp.gammaln(x), rel=1e-13, abs=1e-13)


def test_randomized_agreement_with_scipy():
    rng = np.random.default_rng(0)
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e5), size=500))
    for x in xs:
        assert specfun.digamma(x) == pytest.approx(sp.digamma(x), rel=1e-11, abs=1e-11)
        assert specfun.gammaln(x) == pytest.approx(sp.gammaln(x), rel=1e-11, abs=1e-11)
        assert specfun.trigamma(x) == pytest.approx(sp.polygamma(1, x), rel=1e-12)
        assert specfun.tetragamma(x) == pytest.approx(sp.polygamma(2, x), rel=1e-12)


def test_known_values():
    euler_gamma = 0.5772156649015329
    assert specfun.digamma(1.0) == pytest.approx(-euler_gamma, abs=1e-12)
    assert specfun.trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-13)
    assert specfun.gammaln(1.0) == pytest.approx(0.0, abs=1e-13)
    assert specfun.gammaln(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-14)


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x ties the recurrence region to the series region.
    for x in (0.3, 1.7, 6.0, 9.9):
        assert specfun.digamma(x + 1.0) == pytest.approx(
            specfun.digamma(x) + 1.0 / x, rel=1e-12
        )


def test_betaln_symmetry_and_value():
    assert specfun.betaln(2.0, 3.0) == pytest.approx(np.log(1.0 / 12.0), rel=1e-13)
    assert specfun.betaln(0.7, 4.2) == pytest.approx(specfun.betaln(4.2, 0.7), rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name", ["gammaln", "digamma", "trigamma", "tetragamma", "trigamma_reciprocal_offset"])
def test_a_nonpositive_or_nan_argument_is_rejected(name, x):
    with pytest.raises(ValueError, match=f"{name} requires x > 0, got {x}"):
        getattr(specfun, name)(x)
