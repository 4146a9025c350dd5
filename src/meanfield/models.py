"""Coefficient providers for the worked models.

Each provider expands the expected log-joint as a multilinear function of
every node's expectation vector, so the engine can read the update target
for node i straight off the terms multiplying that node's expectations.
All expected-log-joint values include their additive constants (Gaussian
and prior normalizers), so ELBO values are absolute.

Every provider declares its plates: the indicators z0..z{N-1} form plate
"z", the factor rows and columns plates "u" and "v", and the two gmm2
components comp_a and comp_b, which read only "z", plate "comp"; every
other global is a plate of its own.  Snapshots hold one (G, flat)
expectation array per plate, plus each plate's lambda, and every
coefficient is returned for a whole plate as a (G, flat) array.

A weight's prior term is read off the data class that holds that prior's
parameters: ``weight_exponents`` gives its Beta exponents in the weight's
coefficient and ``weight_log_prior`` its share of the expected log-joint.
A Beta prior is conjugate (``_BetaWeight``); a logit-normal one is read off
as a pseudo-conjugate Beta term (``LogitNormalMixtureData``).  The
component log-likelihoods are read off the data too (``log_liks``), and
gmm2's data gives its components' terms, so one ``TwoLevelProvider``
serves the two-level mixture under either prior and gmm2.  Their builders
share one assembly, ``_indicator_mixture``: plate "z", the one-row weight
plate "pi", then any component plates; each builder states only its start.

Each data class checks its fields where they enter.  Every scalar field
passes the engine's one scalar check, ``engine._require_number``, as
``Schedule``'s rates and ``fit``'s ``tol`` do: a Python or numpy int or
float, or a 0-d array of one, is admitted, and a bool, a string, a complex
value or an array with an axis is a ``ConfigurationError`` (a
``ValueError``) naming the field.  Every array field (``log_pa``, ``log_pb``,
``y``, ``w0``) passes one rule, ``_owned_array``: the class holds a float
copy of it, read-only, so a later write to the caller's array moves neither
the field nor what the class derived from it, and a non-finite entry is a
``ValueError`` naming the field and its first row that holds one
(``y must be finite: row 3 holds [inf, 0.0]``, row 3 being ``y[3]``).
Each class then states only its own shape rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expfam
from .engine import GLOBAL, LOCAL, CoefficientProvider, ModelSpec, Plate, _require_count, _require_number
from .expfam import NaturalParam, NumericalError, beta_natural, gw_natural
from .specfun import betaln, digamma, tetragamma, trigamma, trigamma_reciprocal_offset
from .specfun import gammaln  # noqa: F401 -- unused here; the bench's layer trace wraps models.gammaln by name

__all__ = [
    "SimpleMixtureData",
    "TwoLevelMixtureData",
    "GMMData",
    "MatrixFactorizationData",
    "LogitNormalMixtureData",
    "SimpleMixtureProvider",
    "TwoLevelProvider",
    "MatrixFactorizationProvider",
    "beta_natural_gradient",
    "logit_normal_natural_gradient",
    "build_simple_mixture",
    "build_two_level",
    "build_gmm2",
    "build_matfac",
    "build_logitnormal",
    "als_objective",
]

LOG_2PI = math.log(2.0 * math.pi)

# Half-width of the uniform jitter on gmm2's initial responsibilities, which breaks its label swap.
_INIT_JITTER = 0.05

# Gauss-Legendre nodes per panel of the Beta quadrature; doubling them must
# move the natural gradient by less than _QUAD_CHECK_TOL.
_QUAD_ORDER = 40
_QUAD_CHECK_TOL = 1e-6


def _require_finite(**values) -> None:
    """Reject a scalar field, given by name, that is not one real number (``_require_number``) or is not finite."""
    _require_number(**values)
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _owned_array(name: str, value) -> np.ndarray:
    """An owned, read-only float copy of an array field; a non-finite entry is refused, naming its first row."""
    arr = np.array(value, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(np.atleast_1d(arr)), -1).all(axis=1)))
        raise ValueError(f"{name} must be finite: row {row} holds {np.atleast_1d(arr)[row].tolist()}")
    arr.flags.writeable = False
    return arr


def _require_positive(**values) -> None:
    """Reject a parameter that is not positive, naming it."""
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value:g}")


def _require_beta_exponents(**exponents) -> None:
    """Reject Beta prior exponents a, b that are not positive, so small that a - 1 is -1, or whose sum overflows.

    The prior's mean reads psi(a + b), and psi(inf) is not finite.
    """
    _require_positive(**exponents)
    for name, value in exponents.items():
        if not (value - 1.0) + 1.0 > 0.0:
            raise ValueError(
                f"{name} must exceed 2^-54 (about 5.6e-17), at or below which {name} - 1 rounds to -1, got {value:g}"
            )
    (a_name, a), (b_name, b) = exponents.items()
    a, b = float(a), float(b)
    if not math.isfinite(a + b):
        raise ValueError(f"{a_name} + {b_name} must be finite, got {a:g} + {b:g}")


def _require_square_summable(name: str, y) -> float:
    """The sum of squares of ``y``, rejected where it overflows (the log-joint squares ``y``), naming the field."""
    with np.errstate(over="ignore"):
        total = float(np.sum(y * y))
    if not math.isfinite(total):
        largest = float(np.max(np.abs(y)))
        raise ValueError(f"{name} is too large: its sum of squares overflows (largest |{name}| is {largest:g})")
    return total


# --------------------------------------------------------------------------
# data containers
# --------------------------------------------------------------------------


class SimpleMixtureData(expfam._Frozen):
    """One observation under a two-component mixture with known prior weight.

    It holds the indicator's two log terms, ``log_a`` = log(pi0 pa) and
    ``log_b`` = log((1 - pi0) pb), each a sum of logs, so a tiny likelihood
    does not underflow to log 0.
    """

    def __init__(self, pi0: float, pa: float, pb: float):
        _require_finite(pi0=pi0, pa=pa, pb=pb)
        if not 0.0 < pi0 < 1.0:
            raise ValueError(f"pi0 must lie in (0,1), got {pi0}")
        _require_positive(pa=pa, pb=pb)
        log_a, log_b = math.log(pi0) + math.log(pa), math.log1p(-pi0) + math.log(pb)
        vars(self).update(pi0=pi0, pa=pa, pb=pb, log_a=log_a, log_b=log_b)


class _MixtureLogLiks(expfam._Frozen):
    """Per-observation log-likelihoods under components a and b, plus a subclass's prior parameters."""

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, **prior):
        la, lb = _owned_array("log_pa", log_pa), _owned_array("log_pb", log_pb)
        _require_finite(**prior)
        if max(la.ndim, lb.ndim) > 1 or la.size != lb.size or la.size < 1:  # a scalar is one observation
            raise ValueError(
                f"log_pa and log_pb must be equal-length, nonempty vectors, got shapes {la.shape} and {lb.shape}"
            )
        vars(self).update(log_pa=la.reshape(-1), log_pb=lb.reshape(-1), **prior)

    @property
    def n(self) -> int:
        return self.log_pa.size

    def log_liks(self, mus):
        """(log_pa, log_pb), which read no entry."""
        return self.log_pa, self.log_pb

    def component_log_priors(self, mus) -> tuple:
        """No component plate: no component prior terms."""
        return ()


class _BetaWeight:
    """The weight's prior term where that prior is Beta(alpha0, beta0), for data that holds alpha0 and beta0.

    Not a provider: ``TwoLevelProvider`` asks its data for
    ``weight_exponents``, the Beta exponents of the prior's term in the
    weight's coefficient, and ``weight_log_prior``, that term's share of the
    expected log-joint.  The data fixes log B(alpha0, beta0), so its class
    computes it once and holds it as ``weight_log_norm``.
    """

    def weight_exponents(self, mus):
        """(alpha0, beta0): a conjugate prior's exponents read no entry."""
        return self.alpha0, self.beta0

    def weight_log_prior(self, mus) -> float:
        """E_q[log Beta(pi | a, b)] = (a - 1) E[log pi] + (b - 1) E[log(1 - pi)] - log B(a, b) at (alpha0, beta0)."""
        mu0 = mus["pi"][0]
        return float((self.alpha0 - 1.0) * mu0[0] + (self.beta0 - 1.0) * mu0[1] - self.weight_log_norm)


class TwoLevelMixtureData(_BetaWeight, _MixtureLogLiks):
    """Per-observation component log-likelihoods plus a Beta(alpha0, beta0) prior on the weight.

    It holds ``weight_log_norm``, log B(alpha0, beta0).
    """

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, alpha0: float = 1.0, beta0: float = 1.0):
        super().__init__(log_pa, log_pb, alpha0=alpha0, beta0=beta0)
        _require_beta_exponents(alpha0=alpha0, beta0=beta0)
        vars(self).update(weight_log_norm=betaln(alpha0, beta0))


class GMMData(_BetaWeight, expfam._Frozen):
    """Observations y, (N, D) or 1-D as N rows of one column, for the two-component Gaussian mixture with GW priors.

    ``nu0`` defaults to D and ``w0`` to the D x D identity.  It holds what
    the data and the priors fix: ``stats``, each datum's statistics T(y)
    (``_gw_statistics``); ``prior``, the components' Gaussian-Wishart prior
    lambda_0 (zero mean, nu0, gamma0 and W0); ``prior_log_partition``, its
    A(lambda_0); and ``weight_log_norm``, log B(alpha0, beta0).  It gives
    the terms of plate "comp" (comp_a, comp_b), which meet the data only
    through T(y), to ``TwoLevelProvider``.
    """

    def __init__(
        self,
        y: np.ndarray,
        alpha0: float = 1.0,
        beta0: float = 1.0,
        gamma0: float = 1.0,
        nu0: float | None = None,
        w0: np.ndarray | None = None,
    ):
        y = _owned_array("y", y)
        if y.ndim < 2:  # one column, as the CLI reads a one-column CSV
            y = y.reshape(-1, 1)
        if y.ndim != 2 or y.shape[1] < 1:
            raise ValueError(f"y must be a 2-D array with at least one column, got shape {y.shape}")
        d = y.shape[1]
        nu0 = float(d) if nu0 is None else nu0
        _require_finite(alpha0=alpha0, beta0=beta0, gamma0=gamma0, nu0=nu0)
        w0 = _owned_array("w0", np.eye(d) if w0 is None else w0)
        _require_square_summable("y", y)
        if y.shape[0] < 2:
            raise ValueError("GMM needs at least two observations")
        if w0.shape != (d, d):
            raise ValueError(f"W0 must be {d}x{d}")
        _require_beta_exponents(alpha0=alpha0, beta0=beta0)
        _require_positive(gamma0=gamma0)
        if not math.isfinite(d / float(gamma0)):  # the prior's E[quad] holds D / gamma0
            raise ValueError(f"gamma0 is too small: D / gamma0 overflows at D = {d}, got {gamma0:g}")
        if nu0 <= d - 1:
            raise ValueError(f"nu0 must exceed D-1 = {d - 1}, got {nu0:g}")
        # an asymmetric w0 is read as the mean of w0 and w0^T, summed from halves, which cannot overflow
        w0 = w0 if np.array_equal(w0, w0.T) else _owned_array("w0", 0.5 * w0 + 0.5 * w0.T)
        least, largest = np.linalg.eigvalsh(w0)[[0, -1]].tolist()
        if not least > 0.0:
            raise ValueError(f"w0 must be positive definite, got {w0.tolist()}")
        if not math.isfinite(float(nu0) * largest):  # the prior's E[Lambda] is nu0 W0
            raise ValueError(f"w0 is too large: nu0 * w0 overflows at nu0 = {nu0:g}, largest eigenvalue {largest:g}")
        try:  # the prior's lambda: W0^-1 overflows, or w0 has no Cholesky factor
            with np.errstate(over="raise"):
                prior = gw_natural(nu0, gamma0, np.zeros(d), w0)
        except FloatingPointError:
            raise ValueError(f"w0 is too small: its inverse overflows, smallest eigenvalue {least:g}") from None
        except expfam.DomainError:
            raise ValueError(f"w0 must be positive definite, got {w0.tolist()}") from None
        stats = _gw_statistics(y)
        stats.flags.writeable = False  # held read-only, as y is
        vars(self).update(y=y, alpha0=alpha0, beta0=beta0, gamma0=gamma0, nu0=nu0, w0=w0, stats=stats)
        vars(self).update(prior=prior, prior_log_partition=expfam.log_partition(prior))
        vars(self).update(weight_log_norm=betaln(alpha0, beta0))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def log_liks(self, mus):
        """Each datum's T(y) . mu - D log(2 pi) / 2 under comp_a and comp_b, one row each, memoised until "comp" is put."""
        log_liks = lambda: expected_log_component(mus["comp"], self.stats, self.dim).T  # noqa: E731
        return mus.read_off("comp log-likelihoods", self, self, log_liks)

    def component_coefficient(self, mus) -> np.ndarray:
        """Plate "comp"'s coefficient: row 0 weighs each datum's T(y) by r, row 1 by 1 - r."""
        r = mus["z"][:, 0]
        w = np.empty((2, r.size))
        w[0] = r
        np.subtract(1.0, r, out=w[1])
        # the conjugate prior's term in a component's coefficient is its natural parameter;
        # one vector-matrix product per row, so each row is bitwise that of a lone component
        return self.prior.values + (w[:, None, :] @ self.stats)[:, 0]

    def component_log_priors(self, mus) -> list[float]:
        """E_q[log p(comp)] per component: lambda_0 . mu - A(lambda_0)."""
        return [float(self.prior.values @ mu) - self.prior_log_partition for mu in mus["comp"]]


class MatrixFactorizationData(expfam._Frozen):
    """Full data matrix Y fit by K-factor row/column embeddings; it holds ``sum_of_squares``, the sum of y^2."""

    def __init__(self, y: np.ndarray, k: int = 1, delta_u: float = 1.0, delta_v: float = 1.0):
        y = _owned_array("y", y)
        _require_finite(delta_u=delta_u, delta_v=delta_v)
        if y.ndim != 2 or 0 in y.shape:
            raise ValueError(f"y must be 2-D, and y must have at least one row and one column, got shape {y.shape}")
        sum_of_squares = _require_square_summable("y", y)
        _require_count("k (the number of factors)", k, least=1)
        if max(y.shape) * (int(k) + int(k) ** 2) > np.iinfo(np.intp).max // 8:  # the larger plate, in 8-byte floats
            raise ValueError(f"k is too large: {max(y.shape)} rows of k + k^2 floats are more than a numpy array holds")
        _require_positive(delta_u=delta_u, delta_v=delta_v)
        for name, delta in (("delta_u", float(delta_u)), ("delta_v", float(delta_v))):
            if not math.isfinite(1.0 / delta):  # a factor's prior covariance is I / delta
                raise ValueError(f"{name} is too small: the prior variance 1 / {name} overflows, got {delta!r}")
        vars(self).update(y=y, k=k, delta_u=delta_u, delta_v=delta_v, sum_of_squares=sum_of_squares)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]


class LogitNormalMixtureData(_MixtureLogLiks):
    """Two-level mixture data with a logit-normal prior, mean m, on the weight.

    The prior factorizes as h(z) exp(f) with h(z) = 1/(z(1-z)) and
    f = -(t - m)^2 / 2 in the logit t = logit(z); the non-conjugate f enters
    the weight plate's coefficient through its natural gradient, acting as
    a pseudo-conjugate Beta term, so ``TwoLevelProvider`` serves this data
    as it serves a Beta prior's.  For this f the natural gradient and
    E_q[f] are closed form (``logit_normal_natural_gradient``).

    The weight read-off (the natural gradient and E_q[f]) is taken at the
    (a, b) that validation of the weight plate's stacked lambda kept, and
    memoised on the snapshot for this data until "pi" is put: the step, the
    fixed-point residual and the ELBO at one weight state share one
    read-off.  It lives on the snapshot, so a fit sets nothing on the
    provider.
    """

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, m: float = 0.0):
        super().__init__(log_pa, log_pb, m=m)
        _require_square_summable("m", float(m))  # the prior's f squares logit(z) - m

    def _weight_read_off(self, mus):
        """((alpha_hat, beta_hat), E_q[f]) at the lambda of "pi", memoised on the snapshot until "pi" is put."""
        read_off = lambda: _logit_normal_gradient(*mus.lam("pi")._kept[0][0], self.m)  # noqa: E731
        return mus.read_off("pi read-off", self, self, read_off)

    def weight_exponents(self, mus):
        """The pseudo prior's Beta exponents (alpha_hat, beta_hat); h(z) adds (-1, -1), as for a Beta prior."""
        return self._weight_read_off(mus)[0].tolist()  # floats unpack faster than an array

    def weight_log_prior(self, mus) -> float:
        """E_q[log p(pi)] = -E[log pi] - E[log(1 - pi)] - log(2 pi) / 2 + E_q[f]: h(z), the sigma = 1 normalizer, f."""
        mu0 = mus["pi"][0]
        return -float(mu0[0]) - float(mu0[1]) - 0.5 * LOG_2PI + self._weight_read_off(mus)[1]


# --------------------------------------------------------------------------
# Bernoulli indicators of the two-level, GMM and logit-normal models:
# z_i ~ Bernoulli(pi) picks component a (z_i = 1) or b for observation i.
# The indicators form plate "z" and the weight is plate "pi".
# --------------------------------------------------------------------------


def _z_ids(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(n))


def _indicator_plate(ids, lam: np.ndarray) -> Plate:
    """Local Bernoulli plate starting at the log odds ``lam``, one per id; zeros start every q(z_i) at 1/2."""
    return Plate(ids, NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), lam[:, None]), role=LOCAL)


def _indicator_mixture(provider, log_odds: np.ndarray, weight: NaturalParam, *components, order=None) -> ModelSpec:
    """Plate "z" at ``log_odds``, the one-row global plate "pi" at the weight's Beta lambda, then any ``components``.

    The one assembly of the two-level, logit-normal and gmm2 models: each
    builder states only its start; ``order`` is the CAVI sweep order.
    """
    pi = Plate(("pi",), NaturalParam(weight.family, weight.values[None, :]), role=GLOBAL)
    return ModelSpec((_indicator_plate(provider.plates["z"], log_odds), pi, *components), provider, sweep_order=order)


# --------------------------------------------------------------------------
# Model: single-observation mixture
# --------------------------------------------------------------------------


class SimpleMixtureProvider(CoefficientProvider):
    """Single Bernoulli indicator; its coefficient is the prior-weighted log odds."""

    plates = {"z": ("z",)}

    def coefficient(self, plate, mus, data: SimpleMixtureData):
        if plate != "z":
            raise KeyError(plate)
        return np.array([[data.log_a - data.log_b]])

    def expected_log_joint(self, mus, data: SimpleMixtureData):
        return float(mus["z"][0, 0]) * (data.log_a - data.log_b) + data.log_b


def build_simple_mixture(data: SimpleMixtureData, seed: int = 0) -> ModelSpec:
    """q(z) starts at 1/2 and nothing is drawn: no symmetry needs breaking, so ``seed`` is unused."""
    return ModelSpec((_indicator_plate(("z",), np.zeros(1)),), SimpleMixtureProvider())


# --------------------------------------------------------------------------
# Model: two-level mixture with a Beta-distributed weight
# --------------------------------------------------------------------------


class TwoLevelProvider(CoefficientProvider):
    """Bernoulli locals, one Beta global and, given components, their plate "comp": two-level, logit-normal and gmm2.

    What is model-specific is read off the data: ``log_liks``, each datum's
    (expected) component log-likelihoods; ``weight_exponents`` and
    ``weight_log_prior``, the weight prior's Beta exponents and log-prior
    (pseudo-conjugate ones for ``LogitNormalMixtureData``); and
    ``component_coefficient`` and ``component_log_priors``, the components'
    terms.  The coefficient does not depend on the weight plate's base
    measure, which the engine takes from the plate's Beta family.
    """

    def __init__(self, n: int, components: tuple[str, ...] = ()):
        self.plates = {"z": _z_ids(n), "pi": ("pi",)}
        if components:
            self.plates["comp"] = tuple(components)

    def coefficient(self, plate, mus, data: TwoLevelMixtureData | LogitNormalMixtureData | GMMData):
        if plate == "pi":  # the weight's: its prior's Beta exponents plus the indicators' counts
            a, b = data.weight_exponents(mus)
            r = mus["z"][:, 0]
            s = float(np.add.reduce(r))
            return np.array([[a - 1.0 + s, r.size + b - 1.0 - s]])
        if plate == "z":  # log odds; an overflow near the float limit is an infinite target the engine reports
            log_a, log_b = data.log_liks(mus)
            mu0 = mus["pi"][0]
            with np.errstate(over="ignore", invalid="ignore"):
                return ((mu0[0] + log_a) - (mu0[1] + log_b))[:, None]
        return data.component_coefficient(mus)

    def expected_log_joint(self, mus, data: TwoLevelMixtureData | LogitNormalMixtureData | GMMData):
        total = data.weight_log_prior(mus)
        log_a, log_b = data.log_liks(mus)
        r, mu0 = mus["z"][:, 0], mus["pi"][0]
        total += float(r @ (log_a + mu0[0]) + (1.0 - r) @ (log_b + mu0[1]))  # E_q[log p(z | pi) + log p(y | z)]
        for term in data.component_log_priors(mus):
            total += term
        return float(total)


def build_two_level(
    data: TwoLevelMixtureData, seed: int = 0, shifted_beta: bool = False
) -> ModelSpec:
    """Every q(z_i) starts at 1/2, nothing is drawn and ``seed`` is unused; ``shifted_beta`` picks h(z) = 1/(z(1-z))."""
    weight = beta_natural(data.alpha0, data.beta0, base_measure="reciprocal" if shifted_beta else "constant")
    return _indicator_mixture(TwoLevelProvider(data.n), np.zeros(data.n), weight)


# --------------------------------------------------------------------------
# Model: two-component Gaussian mixture with Gaussian-Wishart priors
# --------------------------------------------------------------------------


def _gw_statistics(y: np.ndarray) -> np.ndarray:
    """T(y) = (1/2, -vec(y y^T)/2, y, -1/2) per row of (N, D) data, in the Gaussian-Wishart flat layout."""
    n, d = y.shape
    half = np.full((n, 1), 0.5)
    return np.concatenate([half, (-0.5 * (y[:, :, None] * y[:, None, :])).reshape(n, d * d), y, -half], axis=1)


def expected_log_component(mu_gw: np.ndarray, stats: np.ndarray, d: int):
    """E_q[log N(y | m, S^-1)] = T(y) . mu - D log(2 pi) / 2, per row of the statistics T(y) and column of mu_gw^T.

    ``mu_gw`` is one component's expectations, or (K, flat) rows of them,
    so one product serves every component.
    """
    return stats @ mu_gw.T - 0.5 * d * LOG_2PI


def build_gmm2(data: GMMData, seed: int = 0) -> ModelSpec:
    provider, prior = TwoLevelProvider(data.n, ("comp_a", "comp_b")), data.prior
    p = 0.5 + np.random.default_rng(seed).uniform(-_INIT_JITTER, _INIT_JITTER, size=data.n)
    comp = Plate(provider.plates["comp"], NaturalParam(prior.family, np.tile(prior.values, (2, 1))), role=GLOBAL)
    # Globals first: a locals-first sweep would overwrite the perturbed
    # responsibilities while the components are still identical, freezing the
    # model at the symmetric fixed point.
    order = ("pi", "comp", "z")
    return _indicator_mixture(provider, np.log(p / (1 - p)), beta_natural(data.alpha0, data.beta0), comp, order=order)


# --------------------------------------------------------------------------
# Model: matrix factorization (VMP / PPCA / ALS)
# --------------------------------------------------------------------------


def _split_gauss(mu: np.ndarray, k: int):
    """(E[x], E[x x^T]) per row of a (G, K + K^2) Gaussian plate."""
    return mu[:, :k], mu[:, k:].reshape(-1, k, k)


class MatrixFactorizationProvider(CoefficientProvider):
    """Gaussian row/column factors under an i.i.d. unit-noise likelihood.

    The row factors u0..u{N-1} form plate "u" and the column factors
    v0..v{D-1} plate "v"; each reads only the other plate.  The expected
    log-joint is linear in u's expectations, with u's coefficient as the
    slope, so it is read off as mu_u . coefficient_u, which holds
    y . (U V^T), the E[u u^T] . E[v v^T] sums and delta_u's trace, plus
    the terms that do not read u: -sum y^2 / 2, delta_v's trace and the
    constants.  In a fit the residual has just memoised that coefficient
    on the snapshot; the sum of y^2 is held on the data.
    """

    def __init__(self, data: MatrixFactorizationData):
        self.plates = {
            "u": tuple(f"u{i}" for i in range(data.n)),
            "v": tuple(f"v{j}" for j in range(data.d)),
        }

    def coefficient(self, plate, mus, data: MatrixFactorizationData):
        k = data.k
        if plate == "u":
            other, weights, delta = mus["v"], data.y, data.delta_u
        else:
            other, weights, delta = mus["u"], data.y.T, data.delta_v
        m1, m2 = _split_gauss(other, k)
        prec = np.zeros((k, k))
        prec.flat[:: k + 1] = delta  # delta I, bitwise np.eye's, without its Python wrapper
        prec += np.add.reduce(m2, axis=0)
        out = np.empty((weights.shape[0], k + k * k))
        out[:, :k] = weights @ m1
        out[:, k:] = (-0.5 * prec).reshape(-1)  # every row's one precision block
        return out

    def expected_log_joint(self, mus, data: MatrixFactorizationData):
        k = data.k
        v2 = _split_gauss(mus["v"], k)[1]
        total = float(mus["u"].ravel() @ mus.coefficient(self, "u", data).ravel())
        total -= 0.5 * data.sum_of_squares
        total -= 0.5 * data.n * data.d * LOG_2PI
        total -= 0.5 * data.delta_v * float(np.add.reduce(v2, axis=0).trace())
        total += 0.5 * data.n * k * (math.log(data.delta_u) - LOG_2PI)
        total += 0.5 * data.d * k * (math.log(data.delta_v) - LOG_2PI)
        return total



def build_matfac(
    data: MatrixFactorizationData, mode: str = "vmp", seed: int = 0
) -> ModelSpec:
    """mode: 'vmp' (full posteriors), 'ppca' (delta on columns), 'als' (delta on both)."""
    if mode not in ("vmp", "ppca", "als"):
        raise ValueError(f"unknown matrix-factorization mode {mode!r}")
    rng = np.random.default_rng(seed)
    provider = MatrixFactorizationProvider(data)
    fam = expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=data.k)

    def factors(name: str, delta: float, delta_mode: bool) -> Plate:
        # Zero means are a stationary point of every variant, so initial means
        # get a small seeded perturbation; precisions start at the prior.
        m = 0.1 * rng.standard_normal((len(provider.plates[name]), data.k))
        prec = delta * np.eye(data.k)
        quad = np.broadcast_to((-0.5 * prec).reshape(-1), (m.shape[0], data.k * data.k))
        lam = NaturalParam(fam, np.concatenate([m @ prec.T, quad], axis=1))
        return Plate(provider.plates[name], lam, role=LOCAL, delta_mode=delta_mode)

    plates = (
        factors("u", data.delta_u, mode == "als"),
        factors("v", data.delta_v, mode in ("ppca", "als")),
    )
    return ModelSpec(plates, provider)


def als_objective(plates, data: MatrixFactorizationData) -> float:
    """Regularized squared loss at the factor means of the "u" and "v" plates."""
    u = expfam.gaussian_mean_precision(plates["u"].lam)[0]
    v = expfam.gaussian_mean_precision(plates["v"].lam)[0]
    resid = data.y - u @ v.T
    return 0.5 * float(np.sum(resid * resid)) + 0.5 * data.delta_u * float(
        np.sum(u * u)
    ) + 0.5 * data.delta_v * float(np.sum(v * v))


# --------------------------------------------------------------------------
# Model: non-conjugate (logit-normal) weight prior
# --------------------------------------------------------------------------


@functools.cache
def _legendre(nodes_per_panel: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order on first use."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _walk(logdens, start: float, step: float, floor: float) -> float:
    """The first of start, start + step, start + 2 step, ... where logdens is not above floor.

    The points are summed one step at a time, as a scalar loop would sum
    them, but logdens sees them a block at a time.
    """
    pts, size = np.array([start]), 16
    while True:
        pts = np.add.accumulate(np.concatenate([pts[-1:], np.full(size, step)]))
        below = np.flatnonzero(~(logdens(pts) > floor))  # a NaN stops the walk too
        if below.size:
            return float(pts[below[0]])
        size *= 2


def _beta_logit_rules(a: float, b: float, orders):
    """Quadrature rules for E under Beta(a, b) in the logit domain, one per nodes-per-panel order.

    The substitution t = logit(z) turns the density into the analytic
    exp(a log sig(t) + b log sig(-t) - log B(a, b)), so composite
    Gauss-Legendre panels converge fast even where the unit-interval
    integrands have endpoint log singularities.  The panels span the
    bracket where the density lies within e^-50 of its peak, found once for
    all orders, and are no wider than the density's spread.  Returns one
    (t, stats, weights) triple per order: t holds the logit nodes, stats the
    sufficient statistics (log z, log(1-z)) at them as a (2, nodes) array,
    and the weights have the density absorbed, normalized to unit mass.
    """
    log_norm = betaln(a, b)

    def logdens(t):
        return a * _log_sigmoid(t) + b * _log_sigmoid(-t) - log_norm

    mode = math.log(a / b)
    floor = logdens(mode) - 50.0
    # the logit of a Beta(a, b) spreads about sqrt(1/a + 1/b); a concentrated
    # one is walked and paneled on that scale, not in unit steps
    scale = min(1.0, 10.0 * math.sqrt(1.0 / a + 1.0 / b))
    lo = _walk(logdens, mode, -scale, floor)
    hi = _walk(logdens, mode, scale, floor)
    panels = max(int(math.ceil((hi - lo) / (2.0 * scale))), 1)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    rules = []
    for nodes_per_panel in orders:
        x, w = _legendre(nodes_per_panel)
        t = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
        stats = np.stack([_log_sigmoid(t), _log_sigmoid(-t)])
        wq = (half[:, None] * w[None, :]).reshape(-1) * np.exp(a * stats[0] + b * stats[1] - log_norm)
        rules.append((t, stats, wq / wq.sum()))
    return rules


def _log_sigmoid(t):
    """log sigmoid(t) = -log(1 + e^-t), without overflow for any t."""
    return -np.logaddexp(0.0, -t)


def _require_read_off_ab(a: float, b: float) -> None:
    """Below 0.01 a Beta exponent is a DomainError, on which a step backs off."""
    if a < 1e-2 or b < 1e-2:
        raise expfam.DomainError(f"the weight read-off requires alpha, beta >= 0.01, got ({a:g}, {b:g})")


def beta_natural_gradient(lam, f):
    """Natural gradient of E_q[f] w.r.t. the Beta expectation parameters.

    ``f`` maps an array of logits t = log z - log(1-z) to the array of f at
    those t; it is called once per quadrature rule.  Taking t, not z, keeps
    every node distinct where z itself would round onto 0 or 1.  The
    gradient is F^-1 Cov_q(T, f) with
    T = (log z, log(1-z)) and F = Cov(T, T) the Fisher matrix, all moments by
    quadrature.  Doubling the nodes per panel must change the result by less
    than _QUAD_CHECK_TOL, else the failure is reported.  Returns the pair
    (gradient, E_q[f]); E_q[f] comes from the same pass as the gradient, at
    _QUAD_ORDER nodes per panel.
    """
    a, b = expfam.beta_ab(lam)  # as its validation kept them
    _require_read_off_ab(a, b)
    estimates = []
    for t, t_stats, wq in _beta_logit_rules(a, b, (_QUAD_ORDER, 2 * _QUAD_ORDER)):
        fx = np.asarray(f(t), dtype=float)
        if fx.shape != t.shape:
            raise ValueError(f"f must map an array of t to an array of the same shape, got {fx.shape} for {t.shape}")
        f_mean = fx @ wq
        tc = t_stats - (t_stats @ wq)[:, None]
        fisher = (tc * wq) @ tc.T
        cov_tf = (tc * wq) @ (fx - f_mean)
        estimates.append((np.linalg.solve(fisher, cov_tf), float(f_mean)))
    (g1, f_mean), (g2, _) = estimates
    if not float(np.max(np.abs(g1 - g2))) <= _QUAD_CHECK_TOL:  # a NaN fails too
        raise NumericalError(
            f"quadrature for the natural gradient did not converge: {g1} vs {g2}"
        )
    return g2, f_mean


def logit_normal_natural_gradient(lam, m: float):
    """beta_natural_gradient for the logit-normal core f = -(t - m)^2 / 2, in closed form.

    Under Beta(a, b) the logit t has E[t] = psi(a) - psi(b) and
    Var t = psi'(a) + psi'(b), so with d = E[t] - m,
    E_q[f] = -(d^2 + psi'(a) + psi'(b)) / 2 and its derivative in (a, b) is
    -d (psi'(a), -psi'(b)) - (psi''(a), psi''(b)) / 2.  The Beta Fisher
    matrix F = diag(p, q) - psi'(a + b) 11^T, with p = psi'(a), q = psi'(b),
    maps (1, -1) to (p, -q), so the natural gradient is
    -d (1, -1) - F^-1 (psi''(a), psi''(b)) / 2.  F^-1 is
    diag(1/p, 1/q) + (1/p, 1/q)(1/p, 1/q)^T / k with
    k = 1/psi'(a + b) - 1/p - 1/q > 0: every term has one sign, and k is
    summed from reciprocal-trigamma offsets, so nothing cancels when a and b
    are large.  Returns the pair (gradient, E_q[f]) and checks the domain as
    the quadrature path does, so either serves the same callers.
    """
    return _logit_normal_gradient(*expfam.beta_ab(lam), m)


def _logit_normal_gradient(a: float, b: float, m: float):
    """``logit_normal_natural_gradient`` at the Beta exponents (a, b), Python floats."""
    _require_read_off_ab(a, b)
    d = digamma(a) - digamma(b) - m
    p, q = trigamma(a), trigamma(b)
    k = trigamma_reciprocal_offset(a + b) - trigamma_reciprocal_offset(a) - trigamma_reciprocal_offset(b)
    ra, rb = tetragamma(a) / p, tetragamma(b) / q
    shared = (ra + rb) / k
    gradient = np.array([-d - 0.5 * (ra + shared / p), d - 0.5 * (rb + shared / q)])
    return gradient, -0.5 * (d * d + p + q)


def build_logitnormal(data: LogitNormalMixtureData, seed: int = 0) -> ModelSpec:
    """Every q(z_i) starts at 1/2 and nothing is drawn: no symmetry needs breaking, so ``seed`` is unused."""
    return _indicator_mixture(TwoLevelProvider(data.n), np.zeros(data.n), beta_natural(1.0, 1.0))
