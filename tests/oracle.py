"""Independent ground-truth computations for tests and acceptance checks.

Everything here is deliberately implemented without the conversion or
coefficient code in the rest of the package: exact Bayes posteriors,
brute-force enumeration, quadrature, Monte-Carlo moments, closed-form
ridge solves, a textbook variational Gaussian mixture and textbook VB
matrix factorisation.  scipy supplies the special functions and samplers so the
hand-rolled numerics elsewhere are checked against an unrelated path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate as sint
from scipy import linalg as sla
from scipy.special import betaln as sp_betaln
from scipy.special import digamma as sp_digamma
from scipy.special import expit, logsumexp
from scipy.stats import wishart

__all__ = [
    "EnumerationResult",
    "exact_simple_posterior",
    "enumerate_two_level",
    "quadrature_expect",
    "ridge_solve",
    "mc_gw_expectations",
    "vb_gmm2",
    "vb_matfac",
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


def vb_gmm2(y, r, alpha0, beta0, gamma0, nu0, w0, tol: float = 1e-14, max_iter: int = 10**4) -> dict:
    """Variational Bayes for a two-component Gaussian mixture, as in Bishop (2006), PRML section 10.2.

    K = 2, so the Dirichlet on the weights is Beta(alpha0, beta0), alpha0 for
    component a; each component has the Gaussian-Wishart prior with
    m0 = 0, beta0 = gamma0, W0 = w0 and nu0.  ``r`` holds each observation's
    starting responsibility of component a (b takes 1 - r).  Each pass is an
    M step (PRML 10.58 and 10.60-10.63) and then an E step (10.46, 10.64-10.66),
    until no responsibility moves by more than ``tol``.  Returns a dict with
    ``r``, ``alpha`` (the two Beta exponents), and per component, stacked,
    ``beta``, ``m``, ``w`` and ``nu``.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    w0_inv = np.linalg.inv(np.asarray(w0, dtype=float))
    r = np.asarray(r, dtype=float)
    for _ in range(max_iter):
        resp = np.stack([r, 1.0 - r], axis=1)
        nk = resp.sum(axis=0)
        alpha = np.array([alpha0, beta0]) + nk
        beta = gamma0 + nk
        nu = nu0 + nk
        m, w, log_rho = [], [], []
        for k in range(2):
            xbar = resp[:, k] @ y / nk[k]
            diff = y - xbar
            s = (resp[:, k, None] * diff).T @ diff / nk[k]
            m.append(nk[k] * xbar / beta[k])
            w_inv = w0_inv + nk[k] * s + gamma0 * nk[k] / beta[k] * np.outer(xbar, xbar)
            w.append(np.linalg.inv(w_inv))
            e_log_det = sp_digamma(0.5 * (nu[k] - np.arange(d))).sum() + d * np.log(2.0) + np.linalg.slogdet(w[k])[1]
            e_log_pi = sp_digamma(alpha[k]) - sp_digamma(alpha.sum())
            dev = y - m[k]
            e_quad = d / beta[k] + nu[k] * np.einsum("ni,ij,nj->n", dev, w[k], dev)
            log_rho.append(e_log_pi + 0.5 * e_log_det - 0.5 * d * np.log(2.0 * np.pi) - 0.5 * e_quad)
        r_new = expit(log_rho[0] - log_rho[1])
        moved = float(np.max(np.abs(r_new - r)))
        r = r_new
        if moved <= tol:
            return {"r": r, "alpha": alpha, "beta": beta, "m": np.array(m), "w": np.array(w), "nu": nu}
    raise RuntimeError(f"VB-GMM did not converge in {max_iter} passes: responsibilities still move by {moved:g}")


def vb_matfac(y, delta_u, delta_v, v_mean, v_cov, point_v: bool = False, tol: float = 1e-14, max_iter: int = 10**4):
    """Variational Bayes for y_ij ~ N(u_i . v_j, 1) with u_i ~ N(0, I / delta_u) and v_j ~ N(0, I / delta_v).

    Each pass updates every row factor, then every column factor, as CAVI
    sweeps plate "u" and then plate "v":
    Sigma_u = (delta_u I + sum_j E[v_j v_j^T])^-1 and m_i = Sigma_u sum_j y_ij E[v_j],
    then the same for v with rows and columns swapped.  With ``point_v``
    (PPCA, Bishop 1999) v is a point mass at its mean, so E[v_j v_j^T] is
    m_j m_j^T; its covariance is still the one its update gives.  The start
    is v's means ``v_mean`` (D, K) and their shared covariance ``v_cov``.
    Passes stop once no mean or covariance entry moves by more than ``tol``.
    Returns a dict of the means ``u_mean`` (N, K) and ``v_mean`` (D, K), the
    covariances ``u_cov`` and ``v_cov`` (K, K), each shared by all rows, and
    the count of ``passes``.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    v_m, v_s = np.asarray(v_mean, dtype=float), np.asarray(v_cov, dtype=float)
    eye = np.eye(v_m.shape[1])
    for passes in range(1, max_iter + 1):
        u_s = np.linalg.inv(delta_u * eye + v_m.T @ v_m + (0.0 if point_v else len(v_m) * v_s))
        u_m = y @ v_m @ u_s  # row i is (Sigma_u sum_j y_ij m_j)^T; Sigma_u is symmetric
        new_s = np.linalg.inv(delta_v * eye + u_m.T @ u_m + len(u_m) * u_s)
        new_m = y.T @ u_m @ new_s
        moved = max(float(np.max(np.abs(new_m - v_m))), float(np.max(np.abs(new_s - v_s))))
        v_m, v_s = new_m, new_s
        if moved <= tol:
            return {"u_mean": u_m, "u_cov": u_s, "v_mean": v_m, "v_cov": v_s, "passes": passes}
    raise RuntimeError(f"VB matrix factorisation did not converge in {max_iter} passes: v still moves by {moved:g}")
