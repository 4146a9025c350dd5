"""Micro-benchmarks of the logit-normal weight read-off and its parts.

pytest's defaults include ``--benchmark-disable``, so a plain test run calls
each benchmarked function once and checks its result.  To time them:

    PYTHONPATH=src python -m pytest tests/test_microbench.py --benchmark-only --benchmark-enable
"""

import numpy as np
import pytest

from meanfield import expfam, models

_M = 0.3


def _f(z):
    return -0.5 * (np.log(z / (1.0 - z)) - _M) ** 2


def test_beta_natural_gradient(benchmark):
    lam = expfam.beta_natural(25.0, 17.0)
    g, f_mean = benchmark(models.beta_natural_gradient, lam, _f)
    assert g.shape == (2,) and np.all(np.isfinite(g)) and np.isfinite(f_mean)


def test_logitnormal_weight_coefficient(benchmark):
    """A cold read-off: each round asks a new provider, so none is served from the last weight state."""
    n = 40
    rng = np.random.default_rng(0)
    data = models.LogitNormalMixtureData(rng.normal(size=n), rng.normal(size=n), _M)
    snap = {
        "z": rng.uniform(0.1, 0.9, size=(n, 1)),
        "pi": expfam.nat_to_mean(expfam.beta_natural(25.0, 17.0)).values[None, :],
    }
    g = benchmark(lambda: models.LogitNormalProvider(n).coefficient("pi", snap, data))
    assert g.shape == (1, 2) and np.all(np.isfinite(g))


def test_beta_mean_to_nat(benchmark):
    mu = expfam.nat_to_mean(expfam.beta_natural(25.0, 17.0))
    lam = benchmark(expfam.mean_to_nat, mu)
    assert lam.values == pytest.approx([24.0, 16.0], rel=1e-9)
