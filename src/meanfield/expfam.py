"""Exponential families in natural / expectation coordinates.

Four families are supported: Bernoulli, Beta, multivariate Gaussian, and
Gaussian-Wishart.  Parameters are stored as flat vectors; symmetric matrix
blocks are stored as full D x D (row-major).  Gaussian rows whose precision
blocks are all one symmetric block, bitwise, are recognised by one compare
and kept as given; any other block is symmetrized on ingestion.
Domain violations are construction-time errors, with one exception: the
expectations ``nat_to_mean`` (and ``engine.delta_moment``) derive from a
validated lambda are checked for finiteness only.  A Beta mean
psi(a) - psi(a+b) may round to 0 when a >> b; it is still the right
expectation.  The Bernoulli mean is clipped into [1e-300, 1 - 1e-16],
inside (0, 1) for every finite lambda.  Validating a Gaussian lambda finds
the Cholesky factor L of the precision S (of W^-1 for Gaussian-Wishart),
which the parameter keeps; the derived covariance block is the Gram matrix
L^-T L^-1, positive-definite by construction, so an eigenvalue re-check
could only reject a valid lambda on rounding (a mean large against its
posterior sd did).

A parameter may also hold a (G, flat) array: one row per node of a plate.
Validation, ``nat_to_mean``, ``log_partition``, ``entropy``,
``gaussian_mean_precision`` and ``gw_params`` take all rows at once;
``mean_to_nat``, ``kl_divergence`` and ``beta_ab`` take one vector each,
and reject rows with a DomainError that names the function and the
shapes.  Bernoulli, Gaussian and Gaussian-Wishart rows are handled as
whole arrays, with batched Cholesky factors and solves; Beta rows one at
a time, in Python floats from one ``tolist()`` (its plates hold a single
row).  Gaussian rows whose precisions S are bitwise one symmetric matrix,
as the rows of a matrix-factorisation plate are, keep one (1, D, D) factor,
which every conversion broadcasts over the rows: each row's arithmetic, and
so its result, is the one its own factor would give.  Rows that tie only
once symmetrized (one asymmetric block, or -0.0 facing +0.0 across the
diagonal) keep a factor per row.  The special functions
stay scalar: the Gaussian-Wishart sums of psi and log Gamma at (t + j)/2,
j = 0..D-1, call them once per row and j, with t = nu - (D - 1) formed
once from lambda as 2 lambda_0 + 1, so an argument near 0 keeps its
relative precision.  A domain error lists the offending rows.

The mean pass also yields the log normalizer A(lambda): a Bernoulli's
max(lam, 0) + log1p(e) from its sigmoid's e = exp(-|lam|), a Beta's
log B(a, b) from its digammas' (a, b), a Gaussian-Wishart's from its nu,
gamma and log det W^-1.  The mu ``nat_to_mean`` derives carries it
(``log_partition``, per row; ``row_view`` slices it) and ``entropy`` reads
it off mu; a Gaussian mu, or one built through the constructor, carries
none.  ``log_partition`` reads the same per-family helper.  A Gaussian's
entropy reads no mu: it is the closed form (D (1 + log 2 pi) - log det S)/2
off the factor of S alone, one value for rows that share one factor, exact
where A(lambda) - lambda . mu would cancel a large m^T S m.

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
from dataclasses import dataclass, field

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
    "base_measure_grad",
    "kl_divergence",
    "bernoulli_natural",
    "beta_natural",
    "gaussian_natural",
    "gw_natural",
    "beta_ab",
    "gaussian_mean_precision",
    "gw_params",
    "row_view",
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


_RECIPROCAL_BETA_GRAD = np.array([-1.0, -1.0])  # log h = -log z - log(1-z)
_RECIPROCAL_BETA_GRAD.flags.writeable = False


def base_measure_grad(family: FamilyDescriptor):
    """grad_mu E_q[log h], read-only, so E_q[log h] = mu . grad; None where h is constant."""
    return _RECIPROCAL_BETA_GRAD if family.base_measure == "reciprocal" else None


def _check_rows(ok: np.ndarray, message) -> None:
    """Raise DomainError unless every row is ok; message(r) describes the first bad row r."""
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise DomainError(message(int(bad[0])), rows=bad)


def _as_flat(family: FamilyDescriptor, values) -> np.ndarray:
    """A flat vector, or (G, flat) rows when values is two-dimensional; always a view or a copy."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        arr = arr.reshape(-1)
    if arr.shape[-1] != family.flat_size:
        raise DomainError(
            f"{family.kind} dim={family.dim} expects {family.flat_size} values, got {arr.shape[-1]}"
        )
    if not np.isfinite(arr).all():  # one pass; the rows are located only on failure
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


def _one_symmetric_block(d: int, rows: np.ndarray) -> bool:
    """Whether every row's trailing D x D block is, bitwise, the transpose of row 0's: one compare of their bytes."""
    first = rows[0, -d * d :].reshape(d, d).T
    return rows[:, -d * d :].tobytes() == first.tobytes() * len(rows)


def _chol_or_none(mat: np.ndarray):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _require_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a matrix, or of each matrix of a (G, D, D) stack; the error names the first bad one."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        stack = mat.reshape((-1,) + mat.shape[-2:])
        bad = np.flatnonzero([_chol_or_none(m) is None for m in stack])
        message = f"{what} must be symmetric positive-definite, got {stack[bad[0]].tolist()}"
        raise DomainError(message, rows=bad) from None


@dataclass(frozen=True, slots=True)
class NaturalParam:
    """A point in the natural-parameter domain of one family.

    ``factor`` is the lower Cholesky factor that validation found: of the
    precision S for a Gaussian, of W^-1 for a Gaussian-Wishart, one (D, D)
    matrix per row, or a (1, D, D) one for Gaussian rows that share one
    symmetric S bitwise; None for Bernoulli and Beta.  The conversions reuse
    it.
    """

    family: FamilyDescriptor
    values: np.ndarray
    factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        arr = _as_flat(fam, self.values)
        # one symmetric S in every Gaussian row (-0.0 is not +0.0) is kept as given, with one factor
        shared = fam.kind == GAUSSIAN and _one_symmetric_block(fam.dim, arr.reshape(-1, fam.flat_size))
        arr = arr.copy() if shared else _symmetrize_block(fam, arr)
        factor = _validate_natural(fam, arr.reshape(-1, fam.flat_size), shared)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if factor is not None:
            factor.flags.writeable = False
            object.__setattr__(self, "factor", factor if arr.ndim == 2 else factor[0])


@dataclass(frozen=True, slots=True)
class ExpectationParam:
    """Expected sufficient statistics E_q[T(z)] of one family.

    ``log_partition`` is A(lambda) of the lambda that ``nat_to_mean``
    derived the expectations from, one value per row; None for a Gaussian
    mu, and for one built through this constructor.
    """

    family: FamilyDescriptor
    values: np.ndarray
    log_partition: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _symmetrize_block(self.family, _as_flat(self.family, self.values))
        _validate_mean(self.family, arr.reshape(-1, self.family.flat_size))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def _derived_mean(family: FamilyDescriptor, values: np.ndarray, log_partition=None) -> ExpectationParam:
    """Expectations computed from a validated lambda: checked for finiteness only (see the module docstring).

    ``log_partition`` is that lambda's A, where the mean pass computed it.
    """
    values = _as_flat(family, values)
    values.flags.writeable = False
    mu = object.__new__(ExpectationParam)
    object.__setattr__(mu, "family", family)
    object.__setattr__(mu, "values", values)
    object.__setattr__(mu, "log_partition", log_partition)
    return mu


def row_view(param, row: int):
    """Row ``row`` of a row-stacked parameter as a one-node parameter: a read-only view, not validated again."""
    one = object.__new__(type(param))
    object.__setattr__(one, "family", param.family)
    object.__setattr__(one, "values", param.values[row])
    if isinstance(param, NaturalParam):
        factor = param.factor
        object.__setattr__(one, "factor", None if factor is None else factor[0 if len(factor) == 1 else row])
    else:
        object.__setattr__(one, "log_partition", None if param.log_partition is None else param.log_partition[row])
    return one


# --------------------------------------------------------------------------
# family-specific packing / unpacking
# --------------------------------------------------------------------------


def _beta_shift(family: FamilyDescriptor) -> float:
    """(alpha, beta) minus the Beta natural parameters: 1 for the constant base measure, 0 for the reciprocal."""
    return 0.0 if family.base_measure == "reciprocal" else 1.0


def _beta_ab_rows(family: FamilyDescriptor, arr: np.ndarray) -> list[tuple[float, float]]:
    """(alpha, beta) of each row, in Python floats from one ``tolist()``; a vector is one row."""
    shift = _beta_shift(family)
    return [(x + shift, y + shift) for x, y in arr.reshape(-1, 2).tolist()]


def _beta_mean(family: FamilyDescriptor, arr: np.ndarray):
    """(expectations, A(lam)) per row: psi(a) - psi(a+b), psi(b) - psi(a+b) and log B(a, b), from the same (a, b)."""
    mean, log_z = [], []
    for a, b in _beta_ab_rows(family, arr):
        psum = digamma(a + b)
        mean.append((digamma(a) - psum, digamma(b) - psum))
        log_z.append(betaln(a, b))
    return np.array(mean).reshape(arr.shape), np.array(log_z).reshape(arr.shape[:-1])


def _bernoulli_mean(arr: np.ndarray):
    """(clipped sigmoid, A(lam)) per row; A = max(lam, 0) + log1p(e) takes the sigmoid's e = exp(-|lam|)."""
    e = np.exp(-np.abs(arr))
    denom = 1.0 + e
    p = np.where(arr >= 0, 1.0 / denom, e / denom)
    # Large |lambda| rounds the sigmoid onto the boundary; keep the mean
    # inside the open interval the invariants (and the inverse) require.
    return np.minimum(np.maximum(p, 1e-300), 1.0 - 1e-16), (np.maximum(arr, 0.0) + np.log1p(e))[..., 0]


def _gauss_precision(family: FamilyDescriptor, arr: np.ndarray):
    """The precision matrix S, per row of a (G, flat) array."""
    d = family.dim
    return -2.0 * arr[..., d:].reshape(arr.shape[:-1] + (d, d))


def _factor_inverse(chol: np.ndarray):
    """(L^-1, L^-T L^-1) from a lower Cholesky factor L, per row, by one batched inverse.

    ``inv`` is the LU solve against the identity, bitwise, without forming
    the identity.  L^-T L^-1 = (L L^T)^-1 is a Gram matrix, so exactly
    symmetric.  A vector goes through S^-1 as L^-T (L^-1 v), not as
    (S^-1) v: the explicit inverse loses up to cond(S) eps of a quadratic
    form that the two triangular factors keep.
    """
    linv = np.linalg.inv(chol)
    return linv, np.swapaxes(linv, -1, -2) @ linv


def _dot(u: np.ndarray, v: np.ndarray):
    """u . v per row, summed in the order a lone vector's ``u @ v`` sums it."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _logdet_from_factor(chol: np.ndarray):
    """log det (L L^T) from a lower Cholesky factor L, per row."""
    return 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)


def _gauss_mean_cov(lam: NaturalParam):
    """(m, S^-1) of a Gaussian per row, from the factor L of S: m = L^-T (L^-1 h), S^-1 = L^-T L^-1."""
    h = lam.values[..., : lam.family.dim]
    linv, cov = _factor_inverse(lam.factor)
    return (np.swapaxes(linv, -1, -2) @ (linv @ h[..., None]))[..., 0], cov


def _gw_unpack(family: FamilyDescriptor, arr: np.ndarray):
    """Return (nu, gamma, m), per row of a (G, flat) array; gamma must be positive."""
    d = family.dim
    nu = 2.0 * arr[..., 0] + d
    gamma = -2.0 * arr[..., -1]
    m = arr[..., 1 + d * d : 1 + d * d + d] / gamma[..., None]
    return nu, gamma, m


def _gw_offset(arr: np.ndarray):
    """t = nu - (D - 1) = 2 lam_0 + 1 per row, formed from lambda so a t near 0 keeps its relative precision."""
    return 2.0 * arr[..., 0] + 1.0


def _wishart_sum(fn, t, d: int):
    """The sum over j = 0..D-1 of fn((t + j) / 2), per row, with t = nu - (D - 1) and fn a scalar special function.

    These are the terms fn((nu + 1 - k) / 2), k = 1..D, of the Wishart
    normalizer and E[log det Lambda], taken from t so the smallest argument
    t / 2 is not rounded on the scale of nu.
    """
    def one(x: float) -> float:
        return sum(fn(0.5 * (x + j)) for j in range(d))

    rows = t.tolist()
    return np.array([one(x) for x in rows] if t.ndim else one(rows))


def _validate_natural(family: FamilyDescriptor, rows: np.ndarray, shared: bool):
    """Domain check of (G, flat) natural parameters; the (G, D, D) Cholesky factors it found, if any.

    ``shared`` Gaussian rows hold one precision and get one (1, D, D) factor.
    """
    kind = family.kind
    if kind == BERNOULLI:
        return  # finiteness already checked
    if kind == BETA:
        ab = _beta_ab_rows(family, rows)
        ok = [a > 0.0 and b > 0.0 for a, b in ab]
        if not all(ok):
            _check_rows(np.array(ok), lambda r: "Beta requires alpha > 0 and beta > 0, got ({:g}, {:g})".format(*ab[r]))
        return
    if kind == GAUSSIAN:
        if not shared:
            return _require_spd(_gauss_precision(family, rows), "Gaussian precision S")
        try:
            return _require_spd(_gauss_precision(family, rows[:1]), "Gaussian precision S")
        except DomainError as exc:  # every row fails, as each would on its own
            raise DomainError(str(exc), rows=np.arange(len(rows))) from None
    _check_rows(
        rows[:, -1] < 0.0,  # gamma = -2 lam[-1]
        lambda r: f"Gaussian-Wishart requires gamma > 0, got gamma={-2.0 * rows[r, -1]:g}",
    )
    d = family.dim
    nu, gamma, m = _gw_unpack(family, rows)
    _check_rows(nu > d - 1, lambda r: f"Gaussian-Wishart requires nu > D-1, got nu={nu[r]:g}")
    eta2 = rows[:, 1 : 1 + d * d].reshape(-1, d, d)
    w_inv = -2.0 * eta2 - gamma[:, None, None] * (m[:, :, None] * m[:, None, :])
    return _require_spd(w_inv, "Gaussian-Wishart W^-1")


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
        second = rows[:, d:].reshape(-1, d, d)
        slack = second - m[:, :, None] * m[:, None, :]
        eigmin = np.linalg.eigvalsh(slack)[:, 0]
        # the subtraction rounds on the scale of E[zz^T], not of the slack it leaves
        scale = np.maximum(1.0, np.abs(second).max(axis=(1, 2)))
        _check_rows(
            ~(eigmin < -_PSD_SLACK * scale),
            lambda r: "Gaussian second-moment slack E[zz^T]-E[z]E[z]^T must be positive "
            f"semidefinite (min eigenvalue {eigmin[r]:g})",
        )
        return
    ez2 = rows[:, 1 : 1 + d * d].reshape(-1, d, d)
    _require_spd(ez2, "Gaussian-Wishart E[Z2]")
    mu3 = rows[:, 1 + d * d : 1 + d * d + d]
    slack = rows[:, -1] - _dot(mu3, np.linalg.solve(ez2, mu3[..., None])[..., 0])
    _check_rows(
        ~(slack < -_PSD_SLACK * np.maximum(1.0, np.abs(rows[:, -1]))),
        lambda r: f"Gaussian-Wishart quadratic-form slack must be nonnegative, got {slack[r]:g}",
    )


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
    _, w_inv = _factor_inverse(_require_spd(w, "Gaussian-Wishart W"))
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
    _require_vectors("beta_ab", lam)
    return _beta_ab_rows(lam.family, lam.values)[0]


def gaussian_mean_precision(lam: NaturalParam) -> tuple[np.ndarray, np.ndarray]:
    """(m, S), per row for a row-stacked parameter."""
    _expect_kind(lam, GAUSSIAN)
    return _gauss_mean_cov(lam)[0], _gauss_precision(lam.family, lam.values)


def gw_params(lam: NaturalParam) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Return (nu, gamma, m, W), per row for a row-stacked parameter."""
    _expect_kind(lam, GAUSSIAN_WISHART)
    nu, gamma, m = _gw_unpack(lam.family, lam.values)
    return nu, gamma, m, _factor_inverse(lam.factor)[1]


def _expect_kind(param, kind: str) -> None:
    if param.family.kind != kind:
        raise DomainError(f"expected a {kind} parameter, got {param.family.kind}")


def _require_vectors(what: str, *params) -> None:
    """Reject a row-stacked parameter where ``what`` takes one vector each, naming ``what`` and the shapes."""
    shapes = [p.values.shape for p in params]
    if any(len(shape) != 1 for shape in shapes):
        each, noun = (" each", "shapes") if len(params) > 1 else ("", "shape")
        got = " and ".join(map(str, shapes))
        raise DomainError(f"{what} takes one parameter vector{each}, not row-stacked ones: got {noun} {got}")


# --------------------------------------------------------------------------
# core operations
# --------------------------------------------------------------------------


def nat_to_mean(lam: NaturalParam) -> ExpectationParam:
    """Map natural parameters to expected sufficient statistics, row by row if stacked."""
    fam = lam.family
    kind = fam.kind
    arr = lam.values
    if kind == BERNOULLI:
        return _derived_mean(fam, *_bernoulli_mean(arr))
    if kind == BETA:
        return _derived_mean(fam, *_beta_mean(fam, arr))
    if kind == GAUSSIAN:
        m, cov = _gauss_mean_cov(lam)
        second = cov + m[..., :, None] * m[..., None, :]
        return _derived_mean(fam, np.concatenate([m, second.reshape(m.shape[:-1] + (-1,))], axis=-1))
    return _derived_mean(fam, *_gw_mean(fam, arr, lam.factor))


def _gw_mean(fam: FamilyDescriptor, arr: np.ndarray, chol: np.ndarray):
    """(expectations, A(lam)) per row, with W and log det W from the factor ``chol`` of W^-1."""
    d = fam.dim
    nu, gamma, m = _gw_unpack(fam, arr)
    t = _gw_offset(arr)
    logdet_w_inv = _logdet_from_factor(chol)
    cinv, w = _factor_inverse(chol)
    y = (cinv @ m[..., None])[..., 0]  # W m = C^-T y and m^T W m = y^T y
    e_logdet = _wishart_sum(digamma, t, d) + d * math.log(2.0) - logdet_w_inv
    e_z2 = nu[..., None, None] * w
    e_z2z1 = nu[..., None] * (np.swapaxes(cinv, -1, -2) @ y[..., None])[..., 0]
    e_quad = nu * _dot(y, y) + d / gamma
    lead = arr.shape[:-1]
    mean = np.concatenate([e_logdet[..., None], e_z2.reshape(lead + (-1,)), e_z2z1, e_quad[..., None]], axis=-1)
    return mean, _gw_log_partition(d, nu, t, gamma, logdet_w_inv)


def mean_to_nat(mu: ExpectationParam) -> NaturalParam:
    """Invert nat_to_mean; the Beta and Gaussian-Wishart digamma equations by one damped Newton.

    Both Newton solves start in closed form from psi(x) ~ log(x - 1/2), as
    Minka's inverse digamma does (Minka 2000, "Estimating a Dirichlet distribution").
    """
    _require_vectors("mean_to_nat", mu)
    fam = mu.family
    kind = fam.kind
    if kind == BERNOULLI:
        p = float(mu.values[0])
        return bernoulli_natural(math.log(p / (1.0 - p)))
    if kind == BETA:
        return beta_natural(*_beta_mean_to_ab(float(mu.values[0]), float(mu.values[1])), fam.base_measure)
    if kind == GAUSSIAN:
        d = fam.dim
        m = mu.values[:d]
        cov = mu.values[d:].reshape(d, d) - np.outer(m, m)
        chol = _chol_or_none(cov)
        if chol is None:
            raise DomainError(
                "Gaussian expectation parameters must have SPD covariance to invert, "
                f"got smallest eigenvalue {np.linalg.eigvalsh(cov)[0]:g}"
            )
        return gaussian_natural(m, _factor_inverse(chol)[1])
    return _gw_mean_to_nat(mu)


_NEWTON_MAX_ITER = 100
_NEWTON_STEP_FLOOR = 1e-10


def _newton_in_log(residual, jacobian, x0, tol: float, what: str) -> np.ndarray:
    """Solve residual(x) = 0 for x > 0, to a largest residual below tol, by damped Newton in u = log x.

    ``jacobian(x)`` is d residual / d u.  Each step is clipped to [-2, 2] and halved until the largest
    residual falls.  If no step above the floor lowers it, the residual is at the rounding of its
    arguments (nu = t + D - 1 rounds a Gaussian-Wishart t): x is kept if the Newton step, which bounds
    its relative error, is below the floor too.
    """
    x = np.asarray(x0, dtype=float)
    u, r = np.log(x), residual(x)
    err = max(map(abs, r.tolist()))
    for _ in range(_NEWTON_MAX_ITER):
        if err < tol:
            return x
        step = newton = np.minimum(np.maximum(np.linalg.solve(jacobian(x), r), -2.0), 2.0)
        while True:
            x_new = np.exp(u - step)
            r_new = residual(x_new)
            err_new = max(map(abs, r_new.tolist()))
            if err_new < err:
                break
            if max(map(abs, step.tolist())) < _NEWTON_STEP_FLOOR:
                if max(map(abs, newton.tolist())) < _NEWTON_STEP_FLOOR:
                    return x
                raise NumericalError(f"{what} did not converge, residual {err:g}")
            step = 0.5 * step
        x, u, r, err = x_new, u - step, r_new, err_new
    raise NumericalError(f"{what} did not converge, residual {err:g}")


def _beta_mean_to_ab(mu1: float, mu2: float) -> tuple[float, float]:
    """Solve psi(a) - psi(a+b) = mu1, psi(b) - psi(a+b) = mu2 for (a, b)."""
    p, q = math.exp(mu1), math.exp(mu2)
    if p + q >= 1.0:
        raise DomainError(f"Beta expectation parameters are unrealizable: exp(mu1) + exp(mu2) = {p + q:g} >= 1")

    def residual(x):
        a, b = x.tolist()
        psum = digamma(a + b)
        return np.array([digamma(a) - psum - mu1, digamma(b) - psum - mu2])

    def jacobian(x):
        a, b = x.tolist()
        tsum = trigamma(a + b)
        return np.array([[(trigamma(a) - tsum) * a, -tsum * b], [-tsum * a, (trigamma(b) - tsum) * b]])

    k = 0.5 / (1.0 - p - q)  # a - 1/2 = p k and b - 1/2 = q k solve the system under psi(x) ~ log(x - 1/2)
    tol = 1e-12 * max(1.0, abs(mu1), abs(mu2))  # psi(a) ~ -1/a for small a: the residual rounds on |mu|'s scale
    start = [0.5 + p * k, 0.5 + q * k]
    return tuple(_newton_in_log(residual, jacobian, start, tol, "Beta digamma inversion").tolist())


def _gw_mean_to_nat(mu: ExpectationParam) -> NaturalParam:
    d = mu.family.dim
    mu1 = float(mu.values[0])
    ez2 = mu.values[1 : 1 + d * d].reshape(d, d)
    mu3 = mu.values[1 + d * d : 1 + d * d + d]
    m = np.linalg.solve(ez2, mu3)
    slack = float(mu.values[-1]) - float(mu3 @ m)
    if slack <= 0.0:
        raise DomainError(f"Gaussian-Wishart quadratic-form slack must be positive to invert, got {slack:g}")
    sign, logdet_ez2 = np.linalg.slogdet(ez2)
    if sign <= 0:
        raise DomainError(f"Gaussian-Wishart E[Z2] must be positive-definite, got det E[Z2] of sign {sign:g}")
    # E[Z2] = nu W pins W given nu.  The residual left for nu rises from -inf to c, so it has a
    # root iff c > 0, and psi(x) ~ log(x - 1/2) puts it near nu = D(D+1)/(2c).
    c = logdet_ez2 - mu1
    if c <= 0.0:
        raise DomainError(
            f"Gaussian-Wishart c = log det E[Z2] - E[log det Lambda] must be > 0, got {logdet_ez2:g} - {mu1:g} = {c:g}"
        )

    def residual(t):
        return _wishart_sum(digamma, t, d) + d * math.log(2.0) - d * np.log(t + (d - 1)) + c

    def jacobian(t):
        return (t * (0.5 * _wishart_sum(trigamma, t, d) - d / (t + (d - 1))))[:, None]

    t0 = max(0.5 * d * (d + 1) / c - (d - 1), 1e-3)
    nu = float(_newton_in_log(residual, jacobian, [t0], 1e-12, "Gaussian-Wishart nu inversion")[0]) + (d - 1)
    return gw_natural(nu, d / slack, m, ez2 / nu)


def log_partition(lam: NaturalParam):
    """Log normalizer A(lam): q(z) = h(z) exp(<T(z), lam> - A(lam)); one value per row if stacked."""
    fam = lam.family
    kind = fam.kind
    arr = lam.values
    if kind == BERNOULLI:
        out = _bernoulli_mean(arr)[1]
    elif kind == BETA:
        out = _beta_mean(fam, arr)[1]
    elif kind == GAUSSIAN:  # (h.m - log det S + D log 2 pi) / 2, with the mean m = S^-1 h
        h, m = arr[..., : fam.dim], _gauss_mean_cov(lam)[0]
        logdet_s = _logdet_from_factor(lam.factor)
        out = 0.5 * np.sum(h * m, axis=-1) - 0.5 * logdet_s + 0.5 * fam.dim * math.log(2.0 * math.pi)
    else:
        nu, gamma, _ = _gw_unpack(fam, arr)
        out = _gw_log_partition(fam.dim, nu, _gw_offset(arr), gamma, _logdet_from_factor(lam.factor))
    return float(out) if arr.ndim == 1 else out


def _gw_log_partition(d: int, nu, t, gamma, logdet_w_inv):
    """The log normalizer per row, from nu, t = nu - (D - 1), gamma and log det W^-1."""
    return (
        -0.5 * d * np.log(gamma)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * nu * logdet_w_inv
        + 0.5 * nu * d * math.log(2.0)
        + 0.25 * d * (d - 1) * math.log(math.pi)
        + _wishart_sum(gammaln, t, d)
    )


def entropy(lam: NaturalParam, mu: ExpectationParam | None = None):
    """Differential (or discrete) entropy of q_lam; one value per row if stacked.

    ``mu`` may pass the expectations already known to match lam; A(lam) is
    read off it where ``nat_to_mean`` left it (Bernoulli, Beta and
    Gaussian-Wishart), else computed.  A Bernoulli's lam . mu is one
    product.  A Gaussian's entropy is (D (1 + log 2 pi) - log det S) / 2
    off the factor L of S alone and reads no mu: A(lam) - lam . mu would
    cancel m^T S m / 2 and lose a small entropy's digits when the mean is
    large against the posterior sd.  Rows that share one factor share its
    one value, repeated over them.  A Gaussian-Wishart's entropy is
    A(lam) + D (nu + 1) / 2 - lam_0 E[log det Lambda], lam . mu with its
    gamma m^T (nu W) m terms cancelled in closed form, so no term holds m.
    """
    fam = lam.family
    if fam.kind == GAUSSIAN:
        out = 0.5 * fam.dim * (1.0 + math.log(2.0 * math.pi)) - 0.5 * _logdet_from_factor(lam.factor)
        if lam.values.ndim == 1:
            return float(out)
        return out if len(out) == len(lam.values) else out.repeat(len(lam.values))  # one shared factor
    if mu is None:
        mu = nat_to_mean(lam)
    a = log_partition(lam) if mu.log_partition is None else mu.log_partition
    if fam.kind == GAUSSIAN_WISHART:  # lam_0 = (nu - D) / 2 and mu_0 = E[log det Lambda]
        lam0 = lam.values[..., 0]
        out = a + 0.5 * fam.dim * (2.0 * lam0 + fam.dim + 1.0) - lam0 * mu.values[..., 0]
    elif fam.kind == BERNOULLI:
        out = a - lam.values[..., 0] * mu.values[..., 0]
    else:
        out = a - np.sum(lam.values * mu.values, axis=-1)
        grad = base_measure_grad(lam.family)
        if grad is not None:
            out = out - mu.values @ grad  # minus E_q[log h]
    return float(out) if lam.values.ndim == 1 else out


def kl_divergence(lam1: NaturalParam, lam2: NaturalParam) -> float:
    """KL(q_lam1 || q_lam2): in closed form for Gaussians and Gaussian-Wisharts, in Bregman form otherwise.

    The Gaussian KL is (tr(S2 S1^-1) - D + dm^T S2 dm + log det S1 - log det S2) / 2
    from the two factors L1, L2, with dm = m2 - m1.  The Bregman form
    A(lam2) - A(lam1) - (lam2 - lam1) . mu1 would cancel m^T S m / 2 and go
    negative for a mean large against the posterior sd.  S2 dm is taken as
    (h2 - h1) - (S2 - S1) m1, differences of the lambdas, so dm^T S2 dm =
    |L2^-1 S2 dm|^2 keeps its digits where m2 - m1 would cancel.

    A Gaussian-Wishart KL is the Gaussian KL given Lambda averaged over W(nu1, W1), which is
    (D (r - 1 - log r) + gamma2 nu1 dm^T W1 dm) / 2 with r = gamma2 / gamma1, plus the Wishart KL, off the
    factors of W1^-1 and W2^-1: m enters only through dm, where the Bregman form cancels gamma m^T (nu W) m.
    """
    _require_vectors("kl_divergence", lam1, lam2)
    if lam1.family != lam2.family:
        raise DomainError(f"family mismatch: {lam1.family} vs {lam2.family}")
    fam = lam1.family
    if fam.kind == GAUSSIAN:
        d = fam.dim
        l1, l2 = lam1.factor, lam2.factor
        diff = lam2.values - lam1.values  # (h2 - h1, vec(-(S2 - S1) / 2))
        s2_dm = diff[:d] + 2.0 * diff[d:].reshape(d, d) @ _gauss_mean_cov(lam1)[0]
        a = np.linalg.solve(l1, l2)  # tr(S2 S1^-1) = |L1^-1 L2|_F^2
        q = np.linalg.solve(l2, s2_dm)
        trace_term = float(np.sum(a * a)) - d + float(q @ q)
        return 0.5 * (trace_term + float(_logdet_from_factor(l1) - _logdet_from_factor(l2)))
    if fam.kind == GAUSSIAN_WISHART:
        d, (nu1, g1, m1), (nu2, g2, m2) = fam.dim, _gw_unpack(fam, lam1.values), _gw_unpack(fam, lam2.values)
        c1, c2, t1, t2 = lam1.factor, lam2.factor, _gw_offset(lam1.values), _gw_offset(lam2.values)
        a = np.linalg.solve(c1, np.c_[c2, m2 - m1])  # C1^-1 [C2, dm]: tr(W2^-1 W1) and dm^T W1 dm
        gauss = d * (g2 / g1 - 1.0 - np.log(g2 / g1)) + g2 * nu1 * (a[:, d] @ a[:, d])
        wishart = nu1 * (np.sum(a[:, :d] ** 2) - d) - nu2 * (_logdet_from_factor(c2) - _logdet_from_factor(c1))
        psi = (nu1 - nu2) * _wishart_sum(digamma, t1, d)
        return float(0.5 * (gauss + wishart + psi) + _wishart_sum(gammaln, t2, d) - _wishart_sum(gammaln, t1, d))
    mu1 = nat_to_mean(lam1)  # A(lam1) comes with it
    return (
        log_partition(lam2)
        - float(mu1.log_partition)
        - float((lam2.values - lam1.values) @ mu1.values)
    )
