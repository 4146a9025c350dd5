"""Scalar special functions: log-gamma, digamma, trigamma, tetragamma, and 1/trigamma(x) - x.

Implemented with the usual recurrence-plus-asymptotic-series scheme so the
conversion code carries no external special-function dependency.  The test
suite cross-checks every function against scipy.special.  The recurrences
rebind their argument, never add to it in place, so a 0-d array argument,
which a data class admits as one real number, is left as the caller gave it.

``betaln(a, b)``, with a >= b, is gammaln(a) + gammaln(b) - gammaln(a + b)
while a is below the cutoff.  Past it, the first and last terms cancel as
a/b grows (the three gammaln give log B(1e20, 1) = 0.0, not -46.05), so
log Gamma(a) - log Gamma(a + b) is summed from Stirling's formula as
-(a - 1/2) log1p(b/a) - b log(a + b) + b + S(a) - S(a + b), with S the
series gammaln sums, and gammaln(b) is added.
"""

from __future__ import annotations

import math

__all__ = ["gammaln", "digamma", "trigamma", "tetragamma", "trigamma_reciprocal_offset", "betaln"]

# Arguments below this threshold are shifted up by the recurrence before the
# asymptotic series is applied; at 10 every series is truncated below 1e-16
# (gammaln's first omitted term, 3617 / (122400 x^15), is 3e-17), so what
# error remains is rounding in the recurrence's sum.
_ASYMPTOTIC_CUTOFF = 10.0


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"gammaln requires x > 0, got {x}")
    shift = 0.0
    while x < _ASYMPTOTIC_CUTOFF:
        shift -= math.log(x)
        x = x + 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Stirling series: sum B_{2n} / (2n(2n-1) x^{2n-1}), through B_14; _stirling's sum, inline, as a call would
    # add a frame to every Gaussian-Wishart step
    tail = 1.0 / 1680.0 - inv2 * (1.0 / 1188.0 - inv2 * (691.0 / 360360.0 - inv2 / 156.0))
    series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * tail)))
    return shift + (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series


def _stirling(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2 by the asymptotic series, for x >= _ASYMPTOTIC_CUTOFF."""
    inv = 1.0 / x
    inv2 = inv * inv
    # Stirling series: sum B_{2n} / (2n(2n-1) x^{2n-1}), through B_14
    tail = 1.0 / 1680.0 - inv2 * (1.0 / 1188.0 - inv2 * (691.0 / 360360.0 - inv2 / 156.0))
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * tail)))


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    while x < _ASYMPTOTIC_CUTOFF:
        shift -= 1.0 / x
        x = x + 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # sum B_{2n} / (2n x^{2n}), through B_14
    tail = 1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
    series = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * tail)))
    return shift + math.log(x) - 0.5 * inv - series


def _trigamma_excess(x: float) -> float:
    """x psi'(x) - 1 by the asymptotic series, for x >= _ASYMPTOTIC_CUTOFF."""
    inv = 1.0 / x
    inv2 = inv * inv
    # 1/(2x) + sum B_{2n} / x^{2n}, through B_16
    tail = 5.0 / 66.0 - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0 - inv2 * 3617.0 / 510.0))
    tail = 1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * tail))
    return inv * (0.5 + inv * (1.0 / 6.0 - inv2 * tail))


def trigamma(x: float) -> float:
    """psi'(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    shift = 0.0
    while x < _ASYMPTOTIC_CUTOFF:
        shift += 1.0 / (x * x)
        x = x + 1.0
    return shift + (1.0 / x) * (1.0 + _trigamma_excess(x))


def trigamma_reciprocal_offset(x: float) -> float:
    """1/psi'(x) - x for x > 0; it falls from 0 to -1/2 as x grows.

    Formed from the series of x psi'(x) - 1, so it keeps full precision
    where 1/trigamma(x) - x would cancel away log10(x) digits.
    """
    if not x > 0.0:
        raise ValueError(f"trigamma_reciprocal_offset requires x > 0, got {x}")
    if x < _ASYMPTOTIC_CUTOFF:
        return 1.0 / trigamma(x) - x  # 1/psi'(x) is at most ~20 times the offset here: about one digit cancels
    excess = _trigamma_excess(x)
    return -x * excess / (1.0 + excess)


def tetragamma(x: float) -> float:
    """psi''(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"tetragamma requires x > 0, got {x}")
    shift = 0.0
    while x < _ASYMPTOTIC_CUTOFF:
        shift -= 2.0 / (x * x * x)
        x = x + 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # -1/x^2 - 1/x^3 - sum (2n+1) B_{2n} / x^{2n+2}, through B_18 (x^-20)
    tail = 5.0 / 6.0 - inv2 * (691.0 / 210.0 - inv2 * (17.5 - inv2 * (3617.0 / 30.0 - inv2 * 43867.0 / 42.0)))
    tail = 1.0 / 6.0 - inv2 * (1.0 / 6.0 - inv2 * (0.3 - inv2 * tail))
    series = inv2 * (1.0 + inv * (1.0 + inv * (0.5 - inv2 * tail)))
    return shift - series


def betaln(a: float, b: float) -> float:
    """log Beta(a, b) for a, b > 0; past the cutoff, log Gamma(a) - log Gamma(a + b) is summed with no cancelling pair."""
    if a < b:
        a, b = b, a
    if not a >= _ASYMPTOTIC_CUTOFF:
        return gammaln(a) + gammaln(b) - gammaln(a + b)
    return gammaln(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b + _stirling(a) - _stirling(a + b)
