"""Exponential families in natural / expectation coordinates.

Four families are supported: Bernoulli, Beta, multivariate Gaussian and
Gaussian-Wishart, one private class each, which ``FamilyDescriptor`` picks
and the module functions dispatch to.  Parameters are stored as flat
read-only copies of the values given; symmetric matrix blocks as full
D x D (row-major).  Domain violations are construction-time errors that
list the offending rows, except that the expectations ``nat_to_mean`` (and
``engine.delta_moment``) derive from a validated lambda are checked for
finiteness only.  A family's ``natural`` validates lambda and keeps per row
what it found (``NaturalParam``); ``nat_to_mean`` derives mu and A(lambda)
from that in one mean pass, so nothing but validation runs at construction.

A parameter may also hold a (G, flat) array, G >= 1: one row per node of a
plate.  Validation, ``nat_to_mean``, ``log_partition``, ``entropy``,
``gaussian_mean_precision`` and ``gw_params`` take all rows at once;
``mean_to_nat``, ``kl_divergence`` and ``beta_ab`` take one vector each,
and reject rows with a DomainError that names the function and the
shapes.  The mu ``nat_to_mean`` derives carries A(lambda)
(``ExpectationParam.log_partition``, per row), which ``entropy`` reads.

A bad value is a ``DomainError``, whose ``rows`` lists the offending rows
where there are rows: a value outside its family's domain, not finite, of
the wrong length, or an empty stack; a mu that ``mean_to_nat`` cannot
realise, with the values at fault; a row-stacked parameter where one vector
is taken; a mu or a second lambda of another family or shape (``family
mismatch: ...``, ``shape mismatch: ...``).  A malformed ``FamilyDescriptor``
is a ValueError, and a Newton solve that does not converge a
``NumericalError``.

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


class _Frozen:
    """A value whose constructor sets its attributes once: assigning or deleting one is an AttributeError.

    A constructor sets them with ``vars(self).update(...)``; ``functools.cached_property``
    writes the instance dict directly too, so it caches on a frozen value.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FamilyDescriptor(_Frozen):
    """Identifies one of the four families plus its dimensionality.

    ``base_measure`` selects the representation of the Beta family:
    "constant" is the standard z^(a-1)(1-z)^(b-1) form with natural
    parameters (a-1, b-1); "reciprocal" uses h(z) = 1/(z(1-z)) so the
    natural parameters become (a, b).  Other families only admit
    "constant".  ``flat_size``, the length of one flat parameter vector, is
    set at construction.  Two descriptors are equal, and hash alike, where
    kind, dim and base measure are.
    """

    def __init__(self, kind: str, dim: int = 1, base_measure: str = "constant"):
        ops = _FAMILIES.get(kind) if isinstance(kind, str) else None
        if ops is None:
            raise ValueError(f"unknown family kind {kind!r}")
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if kind in (BERNOULLI, BETA) and dim != 1:
            raise ValueError(f"{kind} requires dim=1, got {dim}")
        if base_measure not in ("constant", "reciprocal"):
            raise ValueError(f"unknown base_measure {base_measure!r}")
        if base_measure == "reciprocal" and kind != BETA:
            raise ValueError("base_measure='reciprocal' applies to the Beta family only")
        vars(self).update(
            kind=kind, dim=dim, base_measure=base_measure, flat_size=ops.flat_size(dim),
            _ops=ops,  # the family's class instance, which the module functions dispatch to
            _key=(kind, dim, base_measure),  # what == and hash compare
        )

    def __eq__(self, other):
        return self._key == other._key if type(other) is FamilyDescriptor else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FamilyDescriptor(kind={self.kind!r}, dim={self.dim!r}, base_measure={self.base_measure!r})"


_RECIPROCAL_BETA_GRAD = np.array([-1.0, -1.0])  # log h = -log z - log(1-z)
_RECIPROCAL_BETA_GRAD.flags.writeable = False


def base_measure_grad(family: FamilyDescriptor):
    """grad_mu E_q[log h], read-only, so E_q[log h] = mu . grad; None where h is constant."""
    return _RECIPROCAL_BETA_GRAD if family.base_measure == "reciprocal" else None


def _check_rows(ok: np.ndarray, message) -> None:
    """Raise DomainError unless every row is ok; message(r) describes the first bad row r."""
    if not np.logical_and.reduce(ok):
        bad = np.flatnonzero(~ok)
        raise DomainError(message(int(bad[0])), rows=bad)


def _check_finite_rows(family: FamilyDescriptor, arr: np.ndarray) -> None:
    """Raise DomainError naming the rows of ``arr`` that hold a value that is not finite."""
    _check_rows(np.isfinite(arr.reshape(-1, family.flat_size)).all(axis=1), lambda r: f"{family.kind} parameters must be finite")


def _as_flat(family: FamilyDescriptor, values) -> np.ndarray:
    """A flat vector, or (G, flat) rows with G >= 1 when values is two-dimensional; the caller copies it."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        if arr.ndim > 2:
            raise DomainError(f"{family.kind} dim={family.dim} expects a vector or rows, got shape {arr.shape}")
        arr = arr.reshape(-1)
    if arr.shape[-1] != family.flat_size:
        raise DomainError(
            f"{family.kind} dim={family.dim} expects {family.flat_size} values, got {arr.shape[-1]}"
        )
    if not arr.size:
        raise DomainError(f"{family.kind} dim={family.dim} expects at least one row, got shape {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):  # one pass; the rows are located only on failure
        _check_finite_rows(family, arr)
    return arr


def _chol_or_none(mat: np.ndarray):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _require_spd(mat: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a matrix, or of each matrix of a (G, D, D) stack; the error names the first bad one.

    A factor that is not finite, as that of a matrix holding an infinity is,
    is refused as one that does not exist; telling a finite one costs one
    pass, and the rows are located only on failure.
    """
    try:
        factor = np.linalg.cholesky(mat)
        if np.logical_and.reduce(np.isfinite(factor), axis=None):
            return factor
    except np.linalg.LinAlgError:
        pass
    stack = mat.reshape((-1,) + mat.shape[-2:])
    bad = np.flatnonzero([(f := _chol_or_none(m)) is None or not np.isfinite(f).all() for m in stack])
    message = f"{what} must be symmetric positive-definite, got {stack[bad[0]].tolist()}"
    raise DomainError(message, rows=bad)


@dataclass(frozen=True, slots=True)
class NaturalParam:
    """A point in the natural-parameter domain of one family.

    ``factor`` is the lower Cholesky factor that validation found: of the
    precision S for a Gaussian, of W^-1 for a Gaussian-Wishart, one (D, D)
    matrix per row, or a (1, D, D) one for Gaussian rows that share one
    symmetric S bitwise; None for Bernoulli and Beta.  The conversions reuse
    it.  Validation also keeps, one row each, what else it found that
    ``nat_to_mean`` derives mu and A(lambda) from: the Beta's (a, b) and the
    Gaussian-Wishart's (nu, gamma, t), in Python floats, with its nu, gamma
    and m as read-only arrays, which ``kl_divergence`` and ``gw_params`` read
    too.  Nothing past validation is computed until then, so a lambda whose
    mu overflows still constructs.
    """

    family: FamilyDescriptor
    values: np.ndarray
    factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _kept: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        values, factor, kept = self.family._ops.natural(self.family, _as_flat(self.family, self.values))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_kept", kept)
        if factor is not None:
            factor.flags.writeable = False
            object.__setattr__(self, "factor", factor if values.ndim == 2 else factor[0])


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
        values = self.family._ops.expectation(self.family, _as_flat(self.family, self.values))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _derived_mean(family: FamilyDescriptor, values: np.ndarray, log_partition=None) -> ExpectationParam:
    """Expectations computed from a validated lambda: checked for finiteness only, and not copied.

    ``log_partition`` is that lambda's A, where the mean pass computed it.
    """
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        _check_finite_rows(family, values)
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
        object.__setattr__(one, "_kept", tuple([k[row : row + 1] for k in param._kept]))
    else:
        object.__setattr__(one, "log_partition", None if param.log_partition is None else param.log_partition[row])
    return one


def _factor_inverse(chol: np.ndarray):
    """(L^-1, L^-T L^-1) from a lower Cholesky factor L, per row, by one batched inverse.

    L^-T L^-1 = (L L^T)^-1 is a Gram matrix, so exactly symmetric.  A vector
    goes through S^-1 as L^-T (L^-1 v), not as (S^-1) v: the explicit inverse
    loses up to cond(S) eps of a quadratic form that the two factors keep.
    """
    linv = np.linalg.inv(chol)
    return linv, linv.swapaxes(-1, -2) @ linv


def _dot(u: np.ndarray, v: np.ndarray):
    """u . v per row, summed in the order a lone vector's ``u @ v`` sums it."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _logdet_from_factor(chol: np.ndarray):
    """log det (L L^T) from a lower Cholesky factor L, per row."""
    return 2.0 * np.add.reduce(np.log(chol.diagonal(axis1=-2, axis2=-1)), axis=-1)


def _wishart_sums(t: float, d: int, *fns) -> list[float]:
    """Per fn, the sum over j = 0..D-1 of fn((t + j) / 2) at one row's t: the Wishart terms fn((nu + 1 - k) / 2)."""
    args = list(map((0.5).__mul__, map(t.__add__, range(d))))  # 0.5 * (t + j), with no comprehension frame
    return [sum(map(fn, args)) for fn in fns]


def _gw_log_partition(d: int, nu: float, log_gamma: float, logdet_w_inv: float, lgamma_sum: float) -> float:
    """A(lam) of one Gaussian-Wishart row, from nu, log gamma, log det W^-1 and the sum of log Gamma (``_wishart_sums``)."""
    return (
        -0.5 * d * log_gamma
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * nu * logdet_w_inv
        + 0.5 * nu * d * math.log(2.0)
        + 0.25 * d * (d - 1) * math.log(math.pi)
        + lgamma_sum
    )


class _Family:
    """One family's layout, domain checks, mean pass, A(lam), entropy, KL and inverse; one shared instance each.

    ``natural`` validates lambda and keeps what the mean pass reads besides
    lambda and its factor; ``mean`` derives (mu, A(lam) or None) from them.

    The entropy A(lam) - lam . mu - E_q[log h] and the KL
    A(lam2) - A(lam1) - (lam2 - lam1) . mu1 are the Bregman forms, which
    Bernoulli and Beta use.
    """

    def block(self, d: int):
        return None  # the slice of the flat layout that holds a symmetric D x D block

    def owned(self, family: FamilyDescriptor, arr: np.ndarray):
        """A copy of ``arr`` for a parameter to keep, its D x D block made symmetric, and that (..., D, D) block or None."""
        out, sym = arr.copy(), None
        span = self.block(family.dim)
        if span is not None:
            d, lead = family.dim, arr.shape[:-1]
            block = arr[..., span].reshape(lead + (d, d))
            sym = 0.5 * (block + block.swapaxes(-1, -2))
            out[..., span] = sym.reshape(lead + (d * d,))
        return out, sym

    def natural(self, family: FamilyDescriptor, arr: np.ndarray):
        """(values, the (G, D, D) Cholesky factors validation found or None, what the mean pass reads per row)."""
        return arr.copy(), None, ()  # finiteness is checked already

    def expectation(self, family: FamilyDescriptor, arr: np.ndarray) -> np.ndarray:
        arr = self.owned(family, arr)[0]
        self.validate_mean(family, arr.reshape(-1, family.flat_size))
        return arr

    def log_partition(self, lam: NaturalParam):
        return self.mean(lam)[1]

    def inner(self, lam: NaturalParam, mu: ExpectationParam):
        return np.add.reduce(lam.values * mu.values, axis=-1)

    def entropy(self, lam: NaturalParam, mu):
        mu = nat_to_mean(lam) if mu is None else mu
        out = (log_partition(lam) if mu.log_partition is None else mu.log_partition) - self.inner(lam, mu)
        grad = base_measure_grad(lam.family)
        return out if grad is None else out - mu.values @ grad  # minus E_q[log h]

    def kl(self, lam1: NaturalParam, lam2: NaturalParam) -> float:
        mu1 = nat_to_mean(lam1)  # A(lam1) comes with it
        return log_partition(lam2) - float(mu1.log_partition) - float((lam2.values - lam1.values) @ mu1.values)


class _Bernoulli(_Family):
    """Bernoulli, T(z) = z: A(lam) = max(lam, 0) + log1p(e) takes the sigmoid's e = exp(-|lam|).

    The mean is the sigmoid clipped into [1e-300, 1 - 1e-16], inside (0, 1)
    for every finite lam, so it is checked for finiteness only.
    """

    def flat_size(self, d: int) -> int:
        return 1

    def validate_mean(self, family: FamilyDescriptor, rows: np.ndarray) -> None:
        p = rows[:, 0]
        _check_rows((0.0 < p) & (p < 1.0), lambda r: f"Bernoulli mean must lie in (0,1), got {p[r]:g}")

    def mean(self, lam: NaturalParam):
        """(clipped sigmoid, A(lam)) per row."""
        arr = lam.values
        e = np.exp(-np.abs(arr))
        denom = 1.0 + e
        p = np.where(arr >= 0, 1.0, e) / denom
        return np.minimum(np.maximum(p, 1e-300), 1.0 - 1e-16), (np.maximum(arr, 0.0) + np.log1p(e))[..., 0]

    def inner(self, lam: NaturalParam, mu: ExpectationParam):
        return lam.values[..., 0] * mu.values[..., 0]

    def mean_to_nat(self, mu: ExpectationParam) -> NaturalParam:
        p = float(mu.values[0])
        return bernoulli_natural(math.log(p / (1.0 - p)))


class _Beta(_Family):
    """Beta, T(z) = (log z, log(1 - z)); rows in Python floats from one ``tolist()`` (its plates hold one row).

    The mean psi(a) - psi(a+b) may round to 0 when a >> b; it is still the
    right expectation, so it is checked for finiteness only.  A(lam) =
    log B(a, b) takes the digammas' (a, b).  ``mean_to_nat`` starts its
    Newton solve from psi(x) ~ log(x - 1/2), as Minka's inverse digamma does
    (Minka 2000, "Estimating a Dirichlet distribution"): a = 1/2 + p k,
    b = 1/2 + q k, with p = e^mu1, q = e^mu2 and k = 1 / (2 (1 - p - q)).
    """

    def flat_size(self, d: int) -> int:
        return 2

    def natural(self, family: FamilyDescriptor, arr: np.ndarray):
        shift = 0.0 if family.base_measure == "reciprocal" else 1.0
        ab = [(x + shift, y + shift) for x, y in arr.reshape(-1, 2).tolist()]
        if not min(map(min, ab)) > 0.0:  # the rows are located only on failure
            ok = np.array([a > 0.0 and b > 0.0 for a, b in ab])
            _check_rows(ok, lambda r: "Beta requires alpha > 0 and beta > 0, got ({:g}, {:g})".format(*ab[r]))
        return arr.copy(), None, (ab,)

    def validate_mean(self, family: FamilyDescriptor, rows: np.ndarray) -> None:
        _check_rows(
            (rows[:, 0] < 0.0) & (rows[:, 1] < 0.0),
            lambda r: "Beta expectation components E[log z], E[log(1-z)] must be negative",
        )

    def mean(self, lam: NaturalParam):
        """(expectations, A(lam)) per row, from the (a, b) validation kept."""
        mean, log_z = [], []
        for a, b in lam._kept[0]:
            psum = digamma(a + b)
            mean.append((digamma(a) - psum, digamma(b) - psum))
            log_z.append(betaln(a, b))
        return np.array(mean).reshape(lam.values.shape), np.array(log_z).reshape(lam.values.shape[:-1])

    def mean_to_nat(self, mu: ExpectationParam) -> NaturalParam:
        mu1, mu2 = float(mu.values[0]), float(mu.values[1])
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

        k = 0.5 / (1.0 - p - q)
        tol = 1e-12 * max(1.0, abs(mu1), abs(mu2))  # psi(a) ~ -1/a for small a: the residual rounds on |mu|'s scale
        ab = _newton_in_log(residual, jacobian, [0.5 + p * k, 0.5 + q * k], tol, "Beta digamma inversion")
        return beta_natural(*ab.tolist(), mu.family.base_measure)


class _Gaussian(_Family):
    """Multivariate Gaussian, T(z) = (z, vec z z^T); validation keeps the Cholesky factor L of the precision S.

    Rows whose blocks are bitwise one symmetric S, as a matrix-factorisation
    plate's are, are found by one compare of their bytes, kept as given, and
    share one (1, D, D) factor, which every conversion broadcasts with each
    row's arithmetic that of its own factor; rows that tie only once
    symmetrized (-0.0 facing +0.0, say) keep a factor each.  The shared path
    stays for speed: with every plate forced through per-row factors, an
    in-process matfac_ppca CAVI iteration (40 x 25, K = 3, seed 101) took
    0.252-0.266 ms against 0.187-0.197 ms, about a third longer (medians of
    15 fits, 6 alternating runs, a 2-vCPU Xeon).  The mean's
    covariance L^-T L^-1 is a Gram matrix, so the mean is checked for
    finiteness only; it carries no A(lam).  The entropy
    (D (1 + log 2 pi) - log det S) / 2 and the KL
    (tr(S2 S1^-1) - D + dm^T S2 dm + log det S1 - log det S2) / 2, with
    dm = m2 - m1 and S2 dm = (h2 - h1) - (S2 - S1) m1, are closed forms off
    the factors: the Bregman forms would cancel m^T S m / 2 for a mean
    large against the posterior sd.
    """

    def flat_size(self, d: int) -> int:
        return d + d * d

    def block(self, d: int):
        return slice(d, d + d * d)

    def precision(self, family: FamilyDescriptor, arr: np.ndarray):
        """The precision matrix S, per row of a (G, flat) array."""
        d = family.dim
        return -2.0 * arr[..., d:].reshape(arr.shape[:-1] + (d, d))

    def mean_cov(self, lam: NaturalParam):
        """(m, S^-1) per row, from the factor L of S: m = L^-T (L^-1 h), S^-1 = L^-T L^-1."""
        linv, cov = _factor_inverse(lam.factor)
        return (linv.swapaxes(-1, -2) @ (linv @ lam.values[..., : lam.family.dim, None]))[..., 0], cov

    @staticmethod
    def moments(family: FamilyDescriptor, m: np.ndarray, cov=None) -> np.ndarray:
        """The expectations (m, vec(cov + m m^T)) per row; a point mass at m (cov None) has m m^T alone."""
        second = m[..., :, None] * m[..., None, :]
        out = np.empty(m.shape[:-1] + (family.flat_size,))
        out[..., : family.dim] = m
        out[..., family.dim :] = (second if cov is None else cov + second).reshape(m.shape[:-1] + (-1,))
        return out

    def natural(self, family: FamilyDescriptor, arr: np.ndarray):
        rows, d = arr.reshape(-1, family.flat_size), family.dim
        if rows[:, d:].tobytes() != rows[0, d:].reshape(d, d).T.tobytes() * len(rows):  # -0.0 is not +0.0
            arr = self.owned(family, arr)[0]
            return arr, _require_spd(self.precision(family, arr.reshape(rows.shape)), "Gaussian precision S"), ()
        try:
            factor = _require_spd(self.precision(family, rows[:1]), "Gaussian precision S")
        except DomainError as exc:  # every row fails, as each would on its own
            raise DomainError(str(exc), rows=np.arange(len(rows))) from None
        return arr.copy(), factor, ()

    def validate_mean(self, family: FamilyDescriptor, rows: np.ndarray) -> None:
        d = family.dim
        m = rows[:, :d]
        second = rows[:, d:].reshape(-1, d, d)
        eigmin = np.linalg.eigvalsh(second - m[:, :, None] * m[:, None, :])[:, 0]
        # the subtraction rounds on the scale of E[zz^T], not of the slack it leaves
        scale = np.maximum(1.0, np.abs(second).max(axis=(1, 2)))
        _check_rows(
            ~(eigmin < -_PSD_SLACK * scale),
            lambda r: "Gaussian second-moment slack E[zz^T]-E[z]E[z]^T must be positive "
            f"semidefinite (min eigenvalue {eigmin[r]:g})",
        )

    def mean(self, lam: NaturalParam):
        return self.moments(lam.family, *self.mean_cov(lam)), None

    def log_partition(self, lam: NaturalParam):
        """(h . m - log det S + D log 2 pi) / 2, with the mean m = S^-1 h."""
        d = lam.family.dim
        h, m = lam.values[..., :d], self.mean_cov(lam)[0]
        return 0.5 * np.sum(h * m, axis=-1) - 0.5 * _logdet_from_factor(lam.factor) + 0.5 * d * math.log(2.0 * math.pi)

    def entropy(self, lam: NaturalParam, mu):
        out = 0.5 * lam.family.dim * (1.0 + math.log(2.0 * math.pi)) - 0.5 * _logdet_from_factor(lam.factor)
        return out if lam.values.ndim == 1 or len(out) == len(lam.values) else out.repeat(len(lam.values))

    def kl(self, lam1: NaturalParam, lam2: NaturalParam) -> float:
        d = lam1.family.dim
        l1, l2 = lam1.factor, lam2.factor
        diff = lam2.values - lam1.values  # (h2 - h1, vec(-(S2 - S1) / 2))
        s2_dm = diff[:d] + 2.0 * diff[d:].reshape(d, d) @ self.mean_cov(lam1)[0]
        a = np.linalg.solve(l1, l2)  # tr(S2 S1^-1) = |L1^-1 L2|_F^2
        q = np.linalg.solve(l2, s2_dm)
        trace_term = float(np.sum(a * a)) - d + float(q @ q)
        return 0.5 * (trace_term + float(_logdet_from_factor(l1) - _logdet_from_factor(l2)))

    def mean_to_nat(self, mu: ExpectationParam) -> NaturalParam:
        d = mu.family.dim
        m = mu.values[:d]
        cov = mu.values[d:].reshape(d, d) - np.outer(m, m)
        chol = _chol_or_none(cov)
        if chol is None:
            raise DomainError(
                "Gaussian expectation parameters must have SPD covariance to invert, "
                f"got smallest eigenvalue {np.linalg.eigvalsh(cov)[0]:g}"
            )
        return gaussian_natural(m, _factor_inverse(chol)[1])


class _GaussianWishart(_Family):
    """Gaussian-Wishart, T = (log det Lambda, vec Lambda, Lambda x, x^T Lambda x); validation keeps the factor C of W^-1.

    Rows are in Python floats from one ``tolist()``, like ``_Beta``'s: each
    row's nu, gamma and t = nu - (D - 1) come from lam's first and last
    columns, t as 2 lam_0 + 1 so that an argument near 0 keeps its relative
    precision, and the mean pass forms each row's scalars in floats.  numpy
    does the D x D and D-vector work, and takes log gamma, log det W^-1 and
    y . y as arrays, since its log may differ from ``math.log`` in the last
    bit.  The special functions stay scalar: ``_wishart_sums`` sums psi and
    log Gamma at (t + j)/2, j = 0..D-1, once per row and j, and
    ``_gw_log_partition`` is A(lam) of one row.  The mean carries A(lam).
    The entropy A(lam) + D (nu + 1) / 2 - lam_0 E[log det Lambda] cancels
    the gamma m^T (nu W) m terms of lam . mu in closed form.  The KL is the
    Gaussian KL given Lambda averaged over W(nu1, W1),
    (D (r - 1 - log r) + gamma2 nu1 dm^T W1 dm) / 2 with r = gamma2 / gamma1,
    plus the Wishart KL, so m enters only through dm.  ``mean_to_nat``
    starts its Newton solve as the Beta one does, at t = max(D (D + 1) / (2 c)
    - (D - 1), 1e-3) with c = log det E[Z2] - E[log det Lambda].
    """

    def flat_size(self, d: int) -> int:
        return 2 + d + d * d

    def block(self, d: int):
        return slice(1, 1 + d * d)

    def natural(self, family: FamilyDescriptor, arr: np.ndarray):
        d = family.dim
        arr, sym = self.owned(family, arr)
        rows = arr.reshape(-1, family.flat_size)
        ends = rows[:, :: family.flat_size - 1].tolist()  # (lam_0, lam_last) per row
        kept = [(2.0 * first + d, -2.0 * last, 2.0 * first + 1.0) for first, last in ends]  # (nu, gamma, t)
        nus, gammas, _ = zip(*kept)
        if not (min(gammas) > 0.0 and min(nus) > d - 1):  # the rows are located only on failure
            _check_rows(np.array(gammas) > 0.0, lambda r: f"Gaussian-Wishart requires gamma > 0, got gamma={gammas[r]:g}")
            _check_rows(np.array(nus) > d - 1, lambda r: f"Gaussian-Wishart requires nu > D-1, got nu={nus[r]:g}")
        nu, gamma = np.array(nus), np.array(gammas)
        m = rows[:, 1 + d * d : -1] / gamma[:, None]
        nu.flags.writeable = gamma.flags.writeable = m.flags.writeable = False  # gw_params hands them out
        w_inv = -2.0 * sym - gamma[:, None, None] * (m[:, :, None] * m[:, None, :])
        return arr, _require_spd(w_inv, "Gaussian-Wishart W^-1"), (kept, nu, gamma, m)

    def validate_mean(self, family: FamilyDescriptor, rows: np.ndarray) -> None:
        d = family.dim
        ez2 = rows[:, 1 : 1 + d * d].reshape(-1, d, d)
        _require_spd(ez2, "Gaussian-Wishart E[Z2]")
        mu3 = rows[:, 1 + d * d : 1 + d * d + d]
        slack = rows[:, -1] - _dot(mu3, np.linalg.solve(ez2, mu3[..., None])[..., 0])
        _check_rows(
            ~(slack < -_PSD_SLACK * np.maximum(1.0, np.abs(rows[:, -1]))),
            lambda r: f"Gaussian-Wishart quadratic-form slack must be nonnegative, got {slack[r]:g}",
        )

    def mean(self, lam: NaturalParam):
        """(expectations, A(lam)) per row, from the rows validation kept; psi and log Gamma take the same arguments."""
        (kept, nu, gamma, m), d, size = lam._kept, lam.family.dim, lam.family.flat_size
        chol = lam.factor.reshape(-1, d, d)
        cinv, w = _factor_inverse(chol)
        y = (cinv @ m[:, :, None])[:, :, 0]  # W m = C^-T y and m^T W m = y^T y
        mean = np.empty((len(kept), size))
        np.multiply(nu[:, None, None], w, out=mean[:, 1 : 1 + d * d].reshape(-1, d, d))
        np.multiply(nu[:, None], (cinv.swapaxes(-1, -2) @ y[:, :, None])[:, :, 0], out=mean[:, 1 + d * d : -1])
        ends, log_z, fns = [], [], (digamma, gammaln)
        per_row = zip(kept, np.log(gamma).tolist(), _logdet_from_factor(chol).tolist(), _dot(y, y).tolist())
        for (nu_r, gamma_r, t), log_gamma, logdet_w_inv, yy in per_row:
            psi_sum, lgamma_sum = _wishart_sums(t, d, *fns)
            ends.append((psi_sum + d * math.log(2.0) - logdet_w_inv, nu_r * yy + d / gamma_r))
            log_z.append(_gw_log_partition(d, nu_r, log_gamma, logdet_w_inv, lgamma_sum))
        mean[:, :: size - 1] = ends  # E[log det Lambda] and E[x^T Lambda x]
        return mean.reshape(lam.values.shape), np.array(log_z).reshape(lam.values.shape[:-1])

    def entropy(self, lam: NaturalParam, mu):
        mu = nat_to_mean(lam) if mu is None else mu
        a = log_partition(lam) if mu.log_partition is None else mu.log_partition
        d, lam0 = lam.family.dim, lam.values[..., 0]  # lam_0 = (nu - D) / 2 and mu_0 = E[log det Lambda]
        return a + 0.5 * d * (2.0 * lam0 + d + 1.0) - lam0 * mu.values[..., 0]

    def kl(self, lam1: NaturalParam, lam2: NaturalParam) -> float:
        d, ((nu1, g1, t1),), ((nu2, g2, t2),) = lam1.family.dim, lam1._kept[0], lam2._kept[0]
        (m1,), (m2,), c1, c2 = lam1._kept[3], lam2._kept[3], lam1.factor, lam2.factor
        a = np.linalg.solve(c1, np.c_[c2, m2 - m1])  # C1^-1 [C2, dm]: tr(W2^-1 W1) and dm^T W1 dm
        gauss = d * (g2 / g1 - 1.0 - np.log(g2 / g1)) + g2 * nu1 * (a[:, d] @ a[:, d])
        wishart = nu1 * (np.sum(a[:, :d] ** 2) - d) - nu2 * (_logdet_from_factor(c2) - _logdet_from_factor(c1))
        psi1, lgamma1 = _wishart_sums(t1, d, digamma, gammaln)
        return float(0.5 * (gauss + wishart + (nu1 - nu2) * psi1) + _wishart_sums(t2, d, gammaln)[0] - lgamma1)

    def mean_to_nat(self, mu: ExpectationParam) -> NaturalParam:
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
            return _wishart_sums(t.item(), d, digamma)[0] + d * math.log(2.0) - d * np.log(t + (d - 1)) + c

        def jacobian(t):
            return (t * (0.5 * _wishart_sums(t.item(), d, trigamma)[0] - d / (t + (d - 1))))[:, None]

        t0 = max(0.5 * d * (d + 1) / c - (d - 1), 1e-3)
        nu = float(_newton_in_log(residual, jacobian, [t0], 1e-12, "Gaussian-Wishart nu inversion")[0]) + (d - 1)
        return gw_natural(nu, d / slack, m, ez2 / nu)


_FAMILIES = {BERNOULLI: _Bernoulli(), BETA: _Beta(), GAUSSIAN: _Gaussian(), GAUSSIAN_WISHART: _GaussianWishart()}


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
    """(alpha, beta) of one Beta parameter vector, as validation found them."""
    _expect_kind(lam, BETA)
    _require_vectors("beta_ab", lam)
    return lam._kept[0][0]


def gaussian_mean_precision(lam: NaturalParam) -> tuple[np.ndarray, np.ndarray]:
    """(m, S), per row for a row-stacked parameter."""
    _expect_kind(lam, GAUSSIAN)
    return lam.family._ops.mean_cov(lam)[0], lam.family._ops.precision(lam.family, lam.values)


def gw_params(lam: NaturalParam) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Return (nu, gamma, m, W), per row for a row-stacked parameter; nu, gamma and m as validation kept them."""
    _expect_kind(lam, GAUSSIAN_WISHART)
    nu_gamma_m = lam._kept[1:] if lam.values.ndim == 2 else [kept[0] for kept in lam._kept[1:]]  # a vector's one row
    return (*nu_gamma_m, _factor_inverse(lam.factor)[1])


def _expect_kind(param, kind: str) -> None:
    if param.family.kind != kind:
        raise DomainError(f"expected a {kind} parameter, got {param.family.kind}")


def _require_vectors(what: str, *params) -> None:
    """Reject a row-stacked parameter where ``what`` takes one vector each, naming ``what`` and the shapes."""
    for param in params:
        if param.values.ndim != 1:
            each, noun = (" each", "shapes") if len(params) > 1 else ("", "shape")
            got = " and ".join(str(p.values.shape) for p in params)
            raise DomainError(f"{what} takes one parameter vector{each}, not row-stacked ones: got {noun} {got}")


def _require_pair(lam: NaturalParam, other) -> None:
    """Reject a second parameter of another family, or of another shape, naming both."""
    if other.family != lam.family:
        raise DomainError(f"family mismatch: {lam.family} vs {other.family}")
    if other.values.shape != lam.values.shape:
        raise DomainError(f"shape mismatch: {lam.values.shape} vs {other.values.shape}")


def nat_to_mean(lam: NaturalParam) -> ExpectationParam:
    """Map natural parameters to expected sufficient statistics, row by row if stacked, from what validation kept."""
    return _derived_mean(lam.family, *lam.family._ops.mean(lam))


def mean_to_nat(mu: ExpectationParam) -> NaturalParam:
    """Invert nat_to_mean; the Beta and Gaussian-Wishart digamma equations by one damped Newton."""
    _require_vectors("mean_to_nat", mu)
    return mu.family._ops.mean_to_nat(mu)


def log_partition(lam: NaturalParam):
    """Log normalizer A(lam): q(z) = h(z) exp(<T(z), lam> - A(lam)); one value per row if stacked, else a float."""
    out = lam.family._ops.log_partition(lam)
    return float(out) if lam.values.ndim == 1 else out


def entropy(lam: NaturalParam, mu: ExpectationParam | None = None):
    """Differential (or discrete) entropy of q_lam; one value per row if stacked, else a float.

    ``mu``, of lam's family and shape, may pass lam's expectations; A(lam) is read off it where it carries one.
    """
    if mu is not None and (mu.family is not lam.family or mu.values.shape != lam.values.shape):
        _require_pair(lam, mu)
    out = lam.family._ops.entropy(lam, mu)
    return float(out) if lam.values.ndim == 1 else out


def kl_divergence(lam1: NaturalParam, lam2: NaturalParam) -> float:
    """KL(q_lam1 || q_lam2): in closed form for Gaussians and Gaussian-Wisharts, in Bregman form otherwise."""
    _require_vectors("kl_divergence", lam1, lam2)
    _require_pair(lam1, lam2)
    return lam1.family._ops.kl(lam1, lam2)
