import numpy as np
import pytest
from hypothesis import settings

from meanfield import models

# Every property test draws the same examples on every run (derandomize
# implies database=None, so no example database is written); an explicit
# @settings keeps its own max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def make_two_level(seed: int = 0, n: int = 10, alpha0: float = 2.0, beta0: float = 2.0):
    """Synthetic two-level mixture instance with well-separated components."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=n)
    y = np.where(z == 1, rng.normal(2.0, 1.0, n), rng.normal(-2.0, 1.0, n))
    log_pa = -0.5 * (y + 2.0) ** 2 - 0.5 * np.log(2.0 * np.pi)
    log_pb = -0.5 * (y - 2.0) ** 2 - 0.5 * np.log(2.0 * np.pi)
    return models.TwoLevelMixtureData(log_pa, log_pb, alpha0, beta0)


def make_gmm(seed: int = 0, n: int = 50, d: int = 2, sep: float = 6.0, sd: float = 1.0):
    """Two well-separated Gaussian clusters; returns (data, true labels)."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((2, d))
    centers[0, 0] = -0.5 * sep * sd
    centers[1, 0] = 0.5 * sep * sd
    z = rng.integers(0, 2, size=n)
    y = centers[z] + sd * rng.standard_normal((n, d))
    data = models.GMMData(y, 1.0, 1.0, 1.0, float(d) + 1.0, np.eye(d))
    return data, z


def large_mean_gaussians(n: int = 2000):
    """(mean, precision) pairs, d = 3, with means large against the posterior sd: a fixed seed-1 sweep.

    The old eigenvalue re-check of E[zz^T] - E[z]E[z]^T rejected 4 of the
    2000 valid Gaussians they give, draw 65 first (|m| 2.0e5, eig S 1.9e5 to 1.5e6).
    """
    rng = np.random.default_rng(1)
    for _ in range(n):
        a = rng.standard_normal((3, 3))
        precision = (a @ a.T + 0.1 * np.eye(3)) * 10.0 ** rng.uniform(0.0, 6.0)
        yield 10.0 ** rng.uniform(0.0, 5.0) * rng.standard_normal(3), precision


@pytest.fixture
def two_level_data():
    return make_two_level()
