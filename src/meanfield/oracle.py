"""Independent ground-truth computations for tests and acceptance checks.

Everything here is deliberately implemented without the conversion or
coefficient code in the rest of the package: exact Bayes posteriors,
brute-force enumeration, quadrature, Monte-Carlo moments, and closed-form
ridge solves.  scipy supplies the special functions and samplers so the
hand-rolled numerics elsewhere are checked against an unrelated path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate as sint
from scipy import linalg as sla
from scipy.special import betaln as sp_betaln
from scipy.special import logsumexp
from scipy.stats import wishart

__all__ = [
    "EnumerationResult",
    "exact_simple_posterior",
    "enumerate_two_level",
    "quadrature_expect",
    "ridge_solve",
    "mc_gw_expectations",
]

_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class EnumerationResult:
    log_evidence: float
    marginal_means: np.ndarray
    joint_mode: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.log_evidence):
            raise ValueError("log evidence must be finite")
        if np.any(self.marginal_means <= 0.0) or np.any(self.marginal_means >= 1.0):
            raise ValueError("marginal means must lie strictly inside (0,1)")


def exact_simple_posterior(data) -> float:
    """Bayes-rule posterior P(z=1 | y) for the single-observation mixture."""
    num = data.pi0 * data.pa
    den = num + (1.0 - data.pi0) * data.pb
    return num / den


def enumerate_two_level(data) -> EnumerationResult:
    """Exact evidence and marginals by summing the 2^N indicator configurations.

    The Beta weight integrates out in closed form per configuration:
    p(z) = B(a0 + sum z, b0 + N - sum z) / B(a0, b0).
    """
    n = data.n
    if n > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is capped at N <= {_ENUMERATION_LIMIT}, got N = {n}")
    codes = np.arange(2**n, dtype=np.uint64)
    z = (codes[:, None] >> np.arange(n, dtype=np.uint64)) & 1  # (2^N, N)
    z = z.astype(float)
    loglik = z @ data.log_pa + (1.0 - z) @ data.log_pb
    k = z.sum(axis=1)
    logprior = sp_betaln(data.alpha0 + k, data.beta0 + n - k) - sp_betaln(data.alpha0, data.beta0)
    logjoint = loglik + logprior
    log_evidence = float(logsumexp(logjoint))
    weights = np.exp(logjoint - log_evidence)
    marginal_means = weights @ z
    joint_mode = z[int(np.argmax(logjoint))].astype(int)
    return EnumerationResult(log_evidence, marginal_means, joint_mode)


def quadrature_expect(kind: str, params, integrand, order: int = 200, conv_tol: float = 1e-8):
    """E[g(z)] under a Beta or 1-D Gaussian density.

    The Beta weight uses adaptive quadrature (the integrands of interest,
    log z and log(1-z), are endpoint-singular, where fixed Gauss-Legendre
    rules converge too slowly); the Gaussian weight uses Gauss-Hermite with
    a node-doubling convergence check.  Failure to reach conv_tol is an
    error, not a warning.
    """

    if kind == "beta":
        a, b = params

        def weighted(z):
            logdens = (a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z) - sp_betaln(a, b)
            return np.exp(logdens) * integrand(z)

        value, err = sint.quad(weighted, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        if err > conv_tol:
            raise RuntimeError(f"quadrature did not converge: estimate {value}, error {err}")
        return float(value)

    if kind != "gaussian":
        raise ValueError(f"unknown quadrature weight {kind!r}")

    def gauss_value(order):
        mean, sd = params
        x, w = np.polynomial.hermite.hermgauss(order)
        pts = mean + np.sqrt(2.0) * sd * x
        return float(np.sum(w * np.array([integrand(t) for t in pts])) / np.sqrt(np.pi))

    # numpy's hermgauss overflows internally past order ~180
    order = min(order, 64)
    v1, v2 = gauss_value(order), gauss_value(2 * order)
    if abs(v1 - v2) > conv_tol:
        raise RuntimeError(f"quadrature did not converge: order {order} -> {v1}, doubled -> {v2}")
    return v2


def ridge_solve(rows, targets, delta: float) -> np.ndarray:
    """Solve (sum_i a_i a_i^T + delta I)^-1 sum_i a_i t_i by Cholesky."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    t = np.asarray(targets, dtype=float).reshape(-1)
    gram = a.T @ a + delta * np.eye(a.shape[1])
    chol = sla.cho_factor(gram, lower=True)
    return sla.cho_solve(chol, a.T @ t)


def mc_gw_expectations(nu: float, gamma: float, m, w, n_samples: int = 10**6, seed: int = 0):
    """Monte-Carlo estimates of the Gaussian-Wishart sufficient-statistic means.

    Returns (flat_estimates, flat_standard_errors) in the layout
    (E[log|Z2|], E[Z2], E[Z2 z1], E[z1^T Z2 z1]).
    """
    if n_samples < 10**5:
        raise ValueError("use at least 1e5 samples")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    d = m.size
    rng = np.random.default_rng(seed)
    z2 = wishart.rvs(df=nu, scale=w, size=n_samples, random_state=rng)
    z2 = z2.reshape(n_samples, d, d)
    # z1 | Z2 ~ N(m, (gamma Z2)^-1): solve L^T x = eps with L = chol(gamma Z2)
    chol = np.linalg.cholesky(gamma * z2)
    eps = rng.standard_normal((n_samples, d))
    z1 = m + np.linalg.solve(np.transpose(chol, (0, 2, 1)), eps[:, :, None])[:, :, 0]
    logdet = np.linalg.slogdet(z2)[1]
    z2z1 = np.einsum("nij,nj->ni", z2, z1)
    quad = np.einsum("ni,ni->n", z1, z2z1)
    stats = np.concatenate(
        [logdet[:, None], z2.reshape(n_samples, -1), z2z1, quad[:, None]], axis=1
    )
    est = stats.mean(axis=0)
    se = stats.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return est, se
