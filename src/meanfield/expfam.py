"""Exponential families in natural / expectation coordinates.

Four families are supported: Bernoulli, Beta, multivariate Gaussian, and
Gaussian-Wishart.  Parameters are stored as flat vectors; symmetric matrix
blocks are stored as full D x D (row-major) and symmetrized on ingestion.
Domain violations are construction-time errors.

A parameter may also hold a (G, flat) array: one row per node of a plate.
Validation, ``nat_to_mean``, ``log_partition``, ``entropy`` and
``gaussian_mean_precision`` take all rows at once; ``mean_to_nat``,
``kl_divergence`` and the conventional-parameter extractors take one
vector.  Bernoulli and Gaussian rows are handled as whole arrays; Beta and
Gaussian-Wishart rows one at a time (their plates hold a single row), so
the special functions stay scalar.  A domain error lists the offending
rows.

Flat layouts
------------
Bernoulli           (lam,)                                length 1
Beta                (alpha-1, beta-1)                     length 2
                    with base_measure="reciprocal": (alpha, beta)
Gaussian, dim D     (S m, vec(-S/2))                      length D + D^2
Gaussian-Wishart    ((nu-D)/2, vec(-(W^-1 + g m m^T)/2),
                     g m, -g/2)                           length 2 + D + D^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import betaln, digamma, gammaln, trigamma

__all__ = [
    "BERNOULLI",
    "BETA",
    "GAUSSIAN",
    "GAUSSIAN_WISHART",
    "DomainError",
    "NumericalError",
    "FamilyDescriptor",
    "NaturalParam",
    "ExpectationParam",
    "nat_to_mean",
    "mean_to_nat",
    "log_partition",
    "entropy",
    "kl_divergence",
    "bernoulli_natural",
    "beta_natural",
    "gaussian_natural",
    "gw_natural",
    "beta_ab",
    "gaussian_mean_precision",
    "gw_params",
    "split_rows",
]

BERNOULLI = "bernoulli"
BETA = "beta"
GAUSSIAN = "gaussian"
GAUSSIAN_WISHART = "gaussian_wishart"

_KINDS = (BERNOULLI, BETA, GAUSSIAN, GAUSSIAN_WISHART)

# Expectation-parameter covariance blocks are allowed to be singular (the
# delta method degenerates them on purpose), but not indefinite.
_PSD_SLACK = 1e-10


class DomainError(ValueError):
    """A parameter vector violates its family's domain constraints.

    ``rows`` holds the indices of the offending rows (row 0 for a single
    vector), or None when the error is not tied to rows.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


@dataclass(frozen=True)
class FamilyDescriptor:
    """Identifies one of the four families plus its dimensionality.

    ``base_measure`` selects the representation of the Beta family:
    "constant" is the standard z^(a-1)(1-z)^(b-1) form with natural
    parameters (a-1, b-1); "reciprocal" uses h(z) = 1/(z(1-z)) so the
    natural parameters become (a, b).  Other families only admit
    "constant".
    """

    kind: str
    dim: int = 1
    base_measure: str = "constant"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind in (BERNOULLI, BETA) and self.dim != 1:
            raise ValueError(f"{self.kind} requires dim=1, got {self.dim}")
        if self.base_measure not in ("constant", "reciprocal"):
            raise ValueError(f"unknown base_measure {self.base_measure!r}")
        if self.base_measure == "reciprocal" and self.kind != BETA:
            raise ValueError("base_measure='reciprocal' applies to the Beta family only")

    @property
    def flat_size(self) -> int:
        d = self.dim
        if self.kind == BERNOULLI:
            return 1
        if self.kind == BETA:
            return 2
        if self.kind == GAUSSIAN:
            return d + d * d
        return 2 + d + d * d  # gaussian_wishart


def _check_rows(ok: np.ndarray, message) -> None:
    """Raise DomainError unless every row is ok; message(r) describes the first bad row r."""
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise DomainError(message(int(bad[0])), rows=bad)


def _each_row(check, rows: np.ndarray) -> None:
    """Run a one-vector check on every row, tagging a failure with its row."""
    for r, row in enumerate(rows):
        try:
            check(row)
        except DomainError as exc:
            raise DomainError(str(exc), rows=np.array([r])) from None


def _map_rows(fn, arr: np.ndarray):
    """fn of a flat vector, applied per row of a (G, flat) array."""
    return fn(arr) if arr.ndim == 1 else np.stack([fn(row) for row in arr])


def _as_flat(family: FamilyDescriptor, values) -> np.ndarray:
    """A flat vector, or (G, flat) rows when values is two-dimensional; always a view or a copy."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    if arr.shape[-1] != family.flat_size:
        raise DomainError(
            f"{family.kind} dim={family.dim} expects {family.flat_size} values, got {arr.shape[-1]}"
        )
    _check_rows(
        np.isfinite(arr.reshape(-1, family.flat_size)).all(axis=1),
        lambda r: f"{family.kind} parameters must be finite",
    )
    return arr.reshape(arr.shape)


def _symmetrize_block(family: FamilyDescriptor, arr: np.ndarray) -> np.ndarray:
    """Replace the D x D block (of every row) with its symmetric part, in a copy."""
    d = family.dim
    if family.kind == GAUSSIAN:
        lo = d
    elif family.kind == GAUSSIAN_WISHART:
        lo = 1
    else:
        return arr
    lead = arr.shape[:-1]
    block = arr[..., lo : lo + d * d].reshape(lead + (d, d))
    arr = arr.copy()
    arr[..., lo : lo + d * d] = (0.5 * (block + np.swapaxes(block, -1, -2))).reshape(lead + (d * d,))
    return arr


def _chol_or_none(mat: np.ndarray):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _require_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a matrix, or of each matrix of a (G, D, D) stack."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        bad = [_chol_or_none(m) is None for m in mat.reshape((-1,) + mat.shape[-2:])]
        raise DomainError(f"{what} must be symmetric positive-definite", rows=np.flatnonzero(bad)) from None


@dataclass(frozen=True, slots=True)
class NaturalParam:
    """A point in the natural-parameter domain of one family."""

    family: FamilyDescriptor
    values: np.ndarray

    def __post_init__(self):
        arr = _symmetrize_block(self.family, _as_flat(self.family, self.values))
        _validate_natural(self.family, arr.reshape(-1, self.family.flat_size))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, slots=True)
class ExpectationParam:
    """Expected sufficient statistics E_q[T(z)] of one family."""

    family: FamilyDescriptor
    values: np.ndarray

    def __post_init__(self):
        arr = _symmetrize_block(self.family, _as_flat(self.family, self.values))
        _validate_mean(self.family, arr.reshape(-1, self.family.flat_size))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def split_rows(param):
    """The one-node parameters of a row-stacked parameter, in row order.

    Each one is a read-only view of its row of the already validated
    values, so nothing is converted or validated again.
    """
    out = []
    for row in param.values:
        one = object.__new__(type(param))
        object.__setattr__(one, "family", param.family)
        object.__setattr__(one, "values", row)
        out.append(one)
    return out


# --------------------------------------------------------------------------
# family-specific packing / unpacking
# --------------------------------------------------------------------------


def _beta_shift(family: FamilyDescriptor) -> float:
    """(alpha, beta) minus the Beta natural parameters: 1 for the constant base measure, 0 for the reciprocal."""
    return 0.0 if family.base_measure == "reciprocal" else 1.0


def _beta_ab_from_flat(family: FamilyDescriptor, arr: np.ndarray) -> tuple[float, float]:
    shift = _beta_shift(family)
    return float(arr[0]) + shift, float(arr[1]) + shift


def _gauss_unpack(family: FamilyDescriptor, arr: np.ndarray):
    """Return (h, S) with h = S m and S the precision matrix, per row of a (G, flat) array."""
    d = family.dim
    h = arr[..., :d]
    s_mat = -2.0 * arr[..., d:].reshape(arr.shape[:-1] + (d, d))
    return h, s_mat


def _gauss_mean(s_mat: np.ndarray, h: np.ndarray) -> np.ndarray:
    """m = S^-1 h for one (S, h) pair or per row of stacked ones."""
    return np.linalg.solve(s_mat, h[..., None])[..., 0]


def _gw_unpack(family: FamilyDescriptor, arr: np.ndarray):
    """Return (nu, gamma, m, w_inv)."""
    d = family.dim
    nu = 2.0 * arr[0] + d
    gamma = -2.0 * arr[-1]
    if gamma <= 0.0:
        raise DomainError("Gaussian-Wishart requires gamma > 0")
    gm = arr[1 + d * d : 1 + d * d + d]
    m = gm / gamma
    eta2 = arr[1 : 1 + d * d].reshape(d, d)
    w_inv = -2.0 * eta2 - gamma * np.outer(m, m)
    return nu, gamma, m, w_inv


def _validate_natural(family: FamilyDescriptor, rows: np.ndarray) -> None:
    """Domain check of (G, flat) natural parameters."""
    kind = family.kind
    if kind == BERNOULLI:
        return  # finiteness already checked
    if kind == BETA:
        shift = _beta_shift(family)
        a, b = rows[:, 0] + shift, rows[:, 1] + shift
        _check_rows(
            (a > 0.0) & (b > 0.0),
            lambda r: f"Beta requires alpha > 0 and beta > 0, got ({a[r]:g}, {b[r]:g})",
        )
        return
    if kind == GAUSSIAN:
        _, s_mat = _gauss_unpack(family, rows)
        _require_spd(s_mat, "Gaussian precision S")
        return

    def check_gw(arr):
        nu, _, _, w_inv = _gw_unpack(family, arr)
        if nu <= family.dim - 1:
            raise DomainError(f"Gaussian-Wishart requires nu > D-1, got nu={nu:g}")
        _require_spd(w_inv, "Gaussian-Wishart W^-1")

    _each_row(check_gw, rows)


def _validate_mean(family: FamilyDescriptor, rows: np.ndarray) -> None:
    """Domain check of (G, flat) expectation parameters."""
    kind = family.kind
    d = family.dim
    if kind == BERNOULLI:
        p = rows[:, 0]
        _check_rows((0.0 < p) & (p < 1.0), lambda r: f"Bernoulli mean must lie in (0,1), got {p[r]:g}")
        return
    if kind == BETA:
        _check_rows(
            (rows[:, 0] < 0.0) & (rows[:, 1] < 0.0),
            lambda r: "Beta expectation components E[log z], E[log(1-z)] must be negative",
        )
        return
    if kind == GAUSSIAN:
        m = rows[:, :d]
        slack = rows[:, d:].reshape(-1, d, d) - m[:, :, None] * m[:, None, :]
        eigmin = np.linalg.eigvalsh(slack)[:, 0]
        scale = np.maximum(1.0, np.abs(slack).max(axis=(1, 2)))
        _check_rows(
            ~(eigmin < -_PSD_SLACK * scale),
            lambda r: "Gaussian second-moment slack E[zz^T]-E[z]E[z]^T must be positive "
            f"semidefinite (min eigenvalue {eigmin[r]:g})",
        )
        return

    def check_gw(arr):
        ez2 = arr[1 : 1 + d * d].reshape(d, d)
        _require_spd(ez2, "Gaussian-Wishart E[Z2]")
        mu3 = arr[1 + d * d : 1 + d * d + d]
        slack = arr[-1] - float(mu3 @ np.linalg.solve(ez2, mu3))
        if slack < -_PSD_SLACK * max(1.0, abs(arr[-1])):
            raise DomainError(f"Gaussian-Wishart quadratic-form slack must be nonnegative, got {slack:g}")

    _each_row(check_gw, rows)


# --------------------------------------------------------------------------
# constructors and extractors in conventional parameters
# --------------------------------------------------------------------------


def bernoulli_natural(log_odds: float) -> NaturalParam:
    return NaturalParam(FamilyDescriptor(BERNOULLI), np.array([log_odds]))


def beta_natural(alpha: float, beta: float, base_measure: str = "constant") -> NaturalParam:
    fam = FamilyDescriptor(BETA, base_measure=base_measure)
    if base_measure == "reciprocal":
        return NaturalParam(fam, np.array([alpha, beta]))
    return NaturalParam(fam, np.array([alpha - 1.0, beta - 1.0]))


def gaussian_natural(mean, precision) -> NaturalParam:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    precision = np.atleast_2d(np.asarray(precision, dtype=float))
    d = mean.size
    fam = FamilyDescriptor(GAUSSIAN, dim=d)
    flat = np.concatenate([precision @ mean, (-0.5 * precision).reshape(-1)])
    return NaturalParam(fam, flat)


def gw_natural(nu: float, gamma: float, m, w) -> NaturalParam:
    m = np.atleast_1d(np.asarray(m, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    d = m.size
    fam = FamilyDescriptor(GAUSSIAN_WISHART, dim=d)
    chol = _require_spd(w, "Gaussian-Wishart W")
    ident = np.eye(d)
    w_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, ident))
    flat = np.concatenate(
        [
            [0.5 * (nu - d)],
            (-0.5 * (w_inv + gamma * np.outer(m, m))).reshape(-1),
            gamma * m,
            [-0.5 * gamma],
        ]
    )
    return NaturalParam(fam, flat)


def beta_ab(lam: NaturalParam) -> tuple[float, float]:
    _expect_kind(lam, BETA)
    return _beta_ab_from_flat(lam.family, lam.values)


def gaussian_mean_precision(lam: NaturalParam) -> tuple[np.ndarray, np.ndarray]:
    """(m, S), per row for a row-stacked parameter."""
    _expect_kind(lam, GAUSSIAN)
    h, s_mat = _gauss_unpack(lam.family, lam.values)
    return _gauss_mean(s_mat, h), s_mat


def gw_params(lam: NaturalParam) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Return (nu, gamma, m, W)."""
    _expect_kind(lam, GAUSSIAN_WISHART)
    nu, gamma, m, w_inv = _gw_unpack(lam.family, lam.values)
    w = np.linalg.inv(w_inv)
    return nu, gamma, m, 0.5 * (w + w.T)


def _expect_kind(param, kind: str) -> None:
    if param.family.kind != kind:
        raise DomainError(f"expected a {kind} parameter, got {param.family.kind}")


# --------------------------------------------------------------------------
# core operations
# --------------------------------------------------------------------------


def nat_to_mean(lam: NaturalParam) -> ExpectationParam:
    """Map natural parameters to expected sufficient statistics, row by row if stacked."""
    fam = lam.family
    kind = fam.kind
    arr = lam.values
    if kind == BERNOULLI:
        lv = arr[..., 0]
        e = np.exp(-np.abs(lv))
        p = np.where(lv >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        # Large |lambda| rounds the sigmoid onto the boundary; keep the mean
        # inside the open interval the invariants (and the inverse) require.
        return ExpectationParam(fam, np.clip(p, 1e-300, 1.0 - 1e-16)[..., None])
    if kind == BETA:

        def beta_mean(row):
            a, b = _beta_ab_from_flat(fam, row)
            psum = digamma(a + b)
            return np.array([digamma(a) - psum, digamma(b) - psum])

        return ExpectationParam(fam, _map_rows(beta_mean, arr))
    if kind == GAUSSIAN:
        h, s_mat = _gauss_unpack(fam, arr)
        chol = _require_spd(s_mat, "Gaussian precision S")
        m = _gauss_mean(s_mat, h)
        cov = np.linalg.solve(np.swapaxes(chol, -1, -2), np.linalg.solve(chol, np.eye(fam.dim)))
        second = cov + m[..., :, None] * m[..., None, :]
        return ExpectationParam(fam, np.concatenate([m, second.reshape(m.shape[:-1] + (-1,))], axis=-1))
    return ExpectationParam(fam, _map_rows(lambda row: _gw_mean(fam, row), arr))


def _gw_mean(fam: FamilyDescriptor, arr: np.ndarray) -> np.ndarray:
    d = fam.dim
    nu, gamma, m, w_inv = _gw_unpack(fam, arr)
    try:
        w = np.linalg.inv(w_inv)
    except np.linalg.LinAlgError:
        raise NumericalError(f"Gaussian-Wishart W^-1 could not be inverted: {w_inv.tolist()}") from None
    w = 0.5 * (w + w.T)
    sign, logdet_w = np.linalg.slogdet(w)
    if sign <= 0:
        raise DomainError("Gaussian-Wishart W must be positive-definite")
    e_logdet = sum(digamma(0.5 * (nu + 1 - k)) for k in range(1, d + 1)) + d * math.log(2.0) + logdet_w
    e_z2 = nu * w
    e_z2z1 = e_z2 @ m
    e_quad = float(nu * m @ w @ m) + d / gamma
    return np.concatenate([[e_logdet], e_z2.reshape(-1), e_z2z1, [e_quad]])


def mean_to_nat(mu: ExpectationParam) -> NaturalParam:
    """Invert nat_to_mean.  Beta inversion solves the digamma system by Newton."""
    fam = mu.family
    kind = fam.kind
    if kind == BERNOULLI:
        p = float(mu.values[0])
        return NaturalParam(fam, np.array([math.log(p / (1.0 - p))]))
    if kind == BETA:
        a, b = _invert_beta_moments(float(mu.values[0]), float(mu.values[1]))
        if fam.base_measure == "reciprocal":
            return NaturalParam(fam, np.array([a, b]))
        return NaturalParam(fam, np.array([a - 1.0, b - 1.0]))
    if kind == GAUSSIAN:
        d = fam.dim
        m = mu.values[:d]
        cov = mu.values[d:].reshape(d, d) - np.outer(m, m)
        chol = _chol_or_none(cov)
        if chol is None:
            raise DomainError("Gaussian expectation parameters must have SPD covariance to invert")
        s_mat = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(d)))
        s_mat = 0.5 * (s_mat + s_mat.T)
        return NaturalParam(fam, np.concatenate([s_mat @ m, (-0.5 * s_mat).reshape(-1)]))
    return _gw_mean_to_nat(mu)


def _invert_beta_moments(mu1: float, mu2: float, max_iter: int = 200, tol: float = 1e-12):
    """Solve psi(a)-psi(a+b)=mu1, psi(b)-psi(a+b)=mu2 for (a, b).

    Strategy: reduce to one dimension.  For a trial concentration s = a + b
    the per-component equations give a(s) = psi_inv(mu1 + psi(s)) and
    b(s) = psi_inv(mu2 + psi(s)); the self-consistency gap
    a(s) + b(s) - s changes sign exactly once, so geometric bisection over s
    brackets the solution, and a short damped Newton in (log a, log b)
    polishes it to full precision.
    """
    p, q = math.exp(mu1), math.exp(mu2)
    if p + q >= 1.0:
        raise DomainError("Beta expectation parameters lie outside the realizable moment set")

    def residual(a, b):
        psum = digamma(a + b)
        return np.array([digamma(a) - psum - mu1, digamma(b) - psum - mu2])

    def gap(s):
        psum = digamma(s)
        return _digamma_inverse(mu1 + psum) + _digamma_inverse(mu2 + psum) - s

    lo, hi = 1e-8, 1e10
    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        raise NumericalError("Beta digamma inversion could not bracket the concentration")
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * lo:
            break
    s = math.sqrt(lo * hi)
    psum = digamma(s)
    a = _digamma_inverse(mu1 + psum)
    b = _digamma_inverse(mu2 + psum)
    r = residual(a, b)
    u, v = math.log(a), math.log(b)
    for _ in range(max_iter):
        if float(np.max(np.abs(r))) < tol:
            return math.exp(u), math.exp(v)
        a, b = math.exp(u), math.exp(v)
        tsum = trigamma(a + b)
        jac = np.array(
            [
                [(trigamma(a) - tsum) * a, -tsum * b],
                [-tsum * a, (trigamma(b) - tsum) * b],
            ]
        )
        step = np.clip(np.linalg.solve(jac, r), -2.0, 2.0)
        damp = 1.0
        for _ in range(60):
            r_new = residual(math.exp(u - damp * step[0]), math.exp(v - damp * step[1]))
            if float(np.max(np.abs(r_new))) <= float(np.max(np.abs(r))):
                break
            damp *= 0.5
        u, v, r = u - damp * step[0], v - damp * step[1], r_new
    if float(np.max(np.abs(r))) < tol:
        return math.exp(u), math.exp(v)
    raise NumericalError(
        f"Beta digamma inversion did not converge in {max_iter} iterations, "
        f"residual {float(np.max(np.abs(r))):g}"
    )


def _digamma_inverse(y: float, iters: int = 40) -> float:
    """Solve psi(x) = y for x > 0 by Newton from a two-regime initialization."""
    x = math.exp(y) + 0.5 if y >= -2.22 else -1.0 / (y + 0.5772156649015329)
    for _ in range(iters):
        delta = (digamma(x) - y) / trigamma(x)
        x_new = x - delta
        if x_new <= 0.0:
            x_new = 0.5 * x
        x = x_new
        if abs(delta) < 1e-13 * max(abs(x), 1.0):
            break
    return x


def _gw_mean_to_nat(mu: ExpectationParam, max_iter: int = 200, tol: float = 1e-12) -> NaturalParam:
    fam = mu.family
    d = fam.dim
    mu1 = float(mu.values[0])
    ez2 = mu.values[1 : 1 + d * d].reshape(d, d)
    mu3 = mu.values[1 + d * d : 1 + d * d + d]
    mu4 = float(mu.values[-1])
    m = np.linalg.solve(ez2, mu3)
    slack = mu4 - float(mu3 @ m)
    if slack <= 0.0:
        raise DomainError("Gaussian-Wishart quadratic-form slack must be positive to invert")
    gamma = d / slack
    sign, logdet_ez2 = np.linalg.slogdet(ez2)
    if sign <= 0:
        raise DomainError("Gaussian-Wishart E[Z2] must be positive-definite")

    # E[Z2] = nu W pins W given nu; the remaining scalar equation in nu is
    # strictly increasing with a unique root on (D-1, inf).
    def f(nu):
        return (
            sum(digamma(0.5 * (nu + 1 - k)) for k in range(1, d + 1))
            + d * math.log(2.0)
            + logdet_ez2
            - d * math.log(nu)
            - mu1
        )

    lo = d - 1.0 + 1e-9
    hi = d + 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("Gaussian-Wishart nu inversion failed to bracket a root")
    nu = hi
    for _ in range(max_iter):
        val = f(nu)
        if abs(val) < tol:
            break
        deriv = 0.5 * sum(trigamma(0.5 * (nu + 1 - k)) for k in range(1, d + 1)) - d / nu
        nu_new = nu - val / deriv if deriv > 0 else None
        if nu_new is None or not (lo < nu_new < 1e12):
            nu_new = 0.5 * (lo + hi)  # bisection fallback
        if f(nu_new) < 0:
            lo = nu_new
        else:
            hi = nu_new
        nu = nu_new
    else:
        raise NumericalError(f"Gaussian-Wishart nu inversion did not converge, residual {f(nu):g}")
    w = ez2 / nu
    return gw_natural(nu, gamma, m, w)


def log_partition(lam: NaturalParam):
    """Log normalizer A(lam): q(z) = h(z) exp(<T(z), lam> - A(lam)); one value per row if stacked."""
    fam = lam.family
    kind = fam.kind
    arr = lam.values
    if kind == BERNOULLI:
        lv = arr[..., 0]
        out = np.maximum(lv, 0.0) + np.log1p(np.exp(-np.abs(lv)))
    elif kind == BETA:
        out = _map_rows(lambda row: betaln(*_beta_ab_from_flat(fam, row)), arr)
    elif kind == GAUSSIAN:
        h, s_mat = _gauss_unpack(fam, arr)
        chol = _require_spd(s_mat, "Gaussian precision S")
        logdet_s = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        hm = np.sum(h * _gauss_mean(s_mat, h), axis=-1)
        out = 0.5 * hm - 0.5 * logdet_s + 0.5 * fam.dim * math.log(2.0 * math.pi)
    else:
        out = _map_rows(lambda row: _gw_log_partition(fam, row), arr)
    return float(out) if arr.ndim == 1 else out


def _gw_log_partition(fam: FamilyDescriptor, arr: np.ndarray) -> float:
    d = fam.dim
    nu, gamma, _, w_inv = _gw_unpack(fam, arr)
    sign, logdet_winv = np.linalg.slogdet(w_inv)
    if sign <= 0:
        raise DomainError("Gaussian-Wishart W^-1 must be positive-definite")
    return (
        -0.5 * d * math.log(gamma)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * nu * logdet_winv
        + 0.5 * nu * d * math.log(2.0)
        + 0.25 * d * (d - 1) * math.log(math.pi)
        + sum(gammaln(0.5 * (nu + 1 - k)) for k in range(1, d + 1))
    )


def entropy(lam: NaturalParam, mu: ExpectationParam | None = None):
    """Differential (or discrete) entropy of q_lam; one value per row if stacked.

    ``mu`` may pass the expectations already known to match lam.
    """
    if mu is None:
        mu = nat_to_mean(lam)
    out = log_partition(lam) - np.sum(lam.values * mu.values, axis=-1)
    if lam.family.base_measure == "reciprocal":
        out = out - (-mu.values[..., 0] - mu.values[..., 1])  # minus E[log h]
    return float(out) if lam.values.ndim == 1 else out


def kl_divergence(lam1: NaturalParam, lam2: NaturalParam) -> float:
    """KL(q_lam1 || q_lam2) in Bregman form on the log partition."""
    if lam1.family != lam2.family:
        raise DomainError(f"family mismatch: {lam1.family} vs {lam2.family}")
    mu1 = nat_to_mean(lam1)
    return (
        log_partition(lam2)
        - log_partition(lam1)
        - float((lam2.values - lam1.values) @ mu1.values)
    )
