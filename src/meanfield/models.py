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
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expfam
from .engine import GLOBAL, LOCAL, CoefficientProvider, ModelSpec, Plate
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
    "GMMProvider",
    "MatrixFactorizationProvider",
    "LogitNormalProvider",
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
    """Reject NaN and infinite values in a data container's fields, given by name, naming the first that holds one."""
    for name, value in values.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite")


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


def _require_square_summable(name: str, y) -> None:
    """Reject values whose sum of squares overflows where the log-joint squares them, naming the field."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(y * y)):
            largest = float(np.max(np.abs(y)))
            raise ValueError(f"{name} is too large: its sum of squares overflows (largest |{name}| is {largest:g})")


# --------------------------------------------------------------------------
# data containers
# --------------------------------------------------------------------------


class SimpleMixtureData(expfam._Frozen):
    """One observation under a two-component mixture with known prior weight."""

    def __init__(self, pi0: float, pa: float, pb: float):
        _require_finite(pi0=pi0, pa=pa, pb=pb)
        if not 0.0 < pi0 < 1.0:
            raise ValueError(f"pi0 must lie in (0,1), got {pi0}")
        _require_positive(pa=pa, pb=pb)
        vars(self).update(pi0=pi0, pa=pa, pb=pb)


class _MixtureLogLiks(expfam._Frozen):
    """Per-observation log-likelihoods under components a and b, plus a subclass's prior parameters."""

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, **prior):
        _require_finite(log_pa=log_pa, log_pb=log_pb, **prior)
        la, lb = np.asarray(log_pa, dtype=float), np.asarray(log_pb, dtype=float)
        if max(la.ndim, lb.ndim) > 1 or la.size != lb.size or la.size < 1:  # a scalar is one observation
            raise ValueError(
                f"log_pa and log_pb must be equal-length, nonempty vectors, got shapes {la.shape} and {lb.shape}"
            )
        vars(self).update(log_pa=la.reshape(-1), log_pb=lb.reshape(-1), **prior)

    @property
    def n(self) -> int:
        return self.log_pa.size


class TwoLevelMixtureData(_MixtureLogLiks):
    """Per-observation component log-likelihoods plus a Beta(alpha0, beta0) prior on the weight."""

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, alpha0: float = 1.0, beta0: float = 1.0):
        super().__init__(log_pa, log_pb, alpha0=alpha0, beta0=beta0)
        _require_beta_exponents(alpha0=alpha0, beta0=beta0)


class GMMData(expfam._Frozen):
    """Observations for the two-component Gaussian mixture with GW priors.

    ``nu0`` defaults to the dimension D of the observations and ``w0`` to
    the D x D identity.
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
        y = np.atleast_2d(np.asarray(y, dtype=float))
        d = y.shape[1]
        nu0 = float(d) if nu0 is None else nu0
        w0 = np.eye(d) if w0 is None else w0
        _require_finite(y=y, alpha0=alpha0, beta0=beta0, gamma0=gamma0, nu0=nu0, w0=w0)
        _require_square_summable("y", y)
        if y.shape[0] < 2:
            raise ValueError("GMM needs at least two observations")
        w0 = np.atleast_2d(np.asarray(w0, dtype=float))
        if w0.shape != (d, d):
            raise ValueError(f"W0 must be {d}x{d}")
        _require_beta_exponents(alpha0=alpha0, beta0=beta0)
        _require_positive(gamma0=gamma0)
        if not math.isfinite(d / float(gamma0)):  # the prior's E[quad] holds D / gamma0
            raise ValueError(f"gamma0 is too small: D / gamma0 overflows at D = {d}, got {gamma0:g}")
        if nu0 <= d - 1:
            raise ValueError(f"nu0 must exceed D-1 = {d - 1}, got {nu0:g}")
        w0 = 0.5 * (w0 + w0.T)
        least = float(np.linalg.eigvalsh(w0)[0])
        if not least > 0.0:
            raise ValueError(f"w0 must be positive definite, got {w0.tolist()}")
        try:  # the prior's lambda, formed as build_gmm2 forms it: W0^-1 overflows, or w0 has no Cholesky factor
            with np.errstate(over="raise"):
                gw_natural(nu0, gamma0, np.zeros(d), w0)
        except FloatingPointError:
            raise ValueError(f"w0 is too small: its inverse overflows, smallest eigenvalue {least:g}") from None
        except expfam.DomainError:
            raise ValueError(f"w0 must be positive definite, got {w0.tolist()}") from None
        vars(self).update(y=y, alpha0=alpha0, beta0=beta0, gamma0=gamma0, nu0=nu0, w0=w0)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.y.shape[1]


class MatrixFactorizationData(expfam._Frozen):
    """Full data matrix Y fit by K-factor row/column embeddings."""

    def __init__(self, y: np.ndarray, k: int = 1, delta_u: float = 1.0, delta_v: float = 1.0):
        _require_finite(y=y, k=k, delta_u=delta_u, delta_v=delta_v)
        y = np.atleast_2d(np.asarray(y, dtype=float))
        _require_square_summable("y", y)
        if 0 in y.shape:
            raise ValueError(f"y must have at least one row and one column, got shape {y.shape}")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"k (the number of factors) must be an integer >= 1, got {k!r}")
        _require_positive(delta_u=delta_u, delta_v=delta_v)
        for name, delta in (("delta_u", float(delta_u)), ("delta_v", float(delta_v))):
            if not math.isfinite(1.0 / delta):  # a factor's prior covariance is I / delta
                raise ValueError(f"{name} is too small: the prior variance 1 / {name} overflows, got {delta!r}")
        vars(self).update(y=y, k=k, delta_u=delta_u, delta_v=delta_v)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]


class LogitNormalMixtureData(_MixtureLogLiks):
    """Two-level mixture data with a logit-normal prior, mean m, on the weight."""

    def __init__(self, log_pa: np.ndarray, log_pb: np.ndarray, m: float = 0.0):
        super().__init__(log_pa, log_pb, m=m)
        _require_square_summable("m", float(m))  # the prior's f squares logit(z) - m


# --------------------------------------------------------------------------
# Bernoulli indicators shared by the two-level, GMM and logit-normal models:
# z_i ~ Bernoulli(pi) picks component a (z_i = 1) or b for observation i,
# and log_a, log_b are the (expected) component log-likelihoods.  The
# indicators form plate "z" and the weight is plate "pi".
# --------------------------------------------------------------------------


def _z_ids(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(n))


def _indicator_plate(ids, lam: np.ndarray) -> Plate:
    """Local Bernoulli plate starting at the log odds ``lam``, one per id; zeros start every q(z_i) at 1/2."""
    return Plate(ids, NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), lam[:, None]), role=LOCAL)


def _global(node_id: str, lam) -> Plate:
    """A plate of one global node."""
    return Plate((node_id,), NaturalParam(lam.family, lam.values[None, :]), role=GLOBAL)


def _indicator_coefficient(mus, log_a, log_b) -> np.ndarray:
    """Log odds of every indicator, with E[log pi] and E[log(1 - pi)] read off plate "pi".

    Log-likelihoods near the float limit overflow to an infinite target,
    which the engine reports; the overflow itself is not a warning.
    """
    mu0 = mus["pi"][0]
    with np.errstate(over="ignore", invalid="ignore"):
        return ((mu0[0] + log_a) - (mu0[1] + log_b))[:, None]


def _weight_coefficient(a: float, b: float, mus) -> np.ndarray:
    """Coefficient of the weight plate pi when its prior has Beta exponents (a, b)."""
    r = mus["z"][:, 0]
    s = float(np.add.reduce(r))
    return np.array([[a - 1.0 + s, r.size + b - 1.0 - s]])


def _weight_log_prior(mus, data) -> float:
    """E_q[log Beta(pi | a, b)] = (a - 1) E[log pi] + (b - 1) E[log(1 - pi)] - log B(a, b), (a, b) = (alpha0, beta0)."""
    a, b = data.alpha0, data.beta0
    mu0 = mus["pi"][0]
    log_norm = mus.read_off("log B(alpha0, beta0)", None, data, betaln, a, b)
    return float((a - 1.0) * mu0[0] + (b - 1.0) * mu0[1] - log_norm)


def _indicator_log_joint(mus, log_a, log_b) -> float:
    """Sum over i of E_q[log p(z_i | pi) + log p(y_i | z_i)]."""
    r, mu0 = mus["z"][:, 0], mus["pi"][0]
    return float(r @ (log_a + mu0[0]) + (1.0 - r) @ (log_b + mu0[1]))


# --------------------------------------------------------------------------
# Model: single-observation mixture
# --------------------------------------------------------------------------


def _simple_log_terms(data: SimpleMixtureData):
    """log(pi0 pa) and log((1 - pi0) pb), as sums of logs, so a tiny likelihood does not underflow to log 0."""
    return math.log(data.pi0) + math.log(data.pa), math.log1p(-data.pi0) + math.log(data.pb)


class SimpleMixtureProvider(CoefficientProvider):
    """Single Bernoulli indicator; its coefficient is the prior-weighted log odds."""

    plates = {"z": ("z",)}

    def coefficient(self, plate, mus, data: SimpleMixtureData):
        if plate != "z":
            raise KeyError(plate)
        log_a, log_b = _simple_log_terms(data)
        return np.array([[log_a - log_b]])

    def expected_log_joint(self, mus, data: SimpleMixtureData):
        log_a, log_b = _simple_log_terms(data)
        return float(mus["z"][0, 0]) * (log_a - log_b) + log_b


def build_simple_mixture(data: SimpleMixtureData, seed: int = 0) -> ModelSpec:
    """q(z) starts at 1/2 and nothing is drawn: no symmetry needs breaking, so ``seed`` is unused."""
    return ModelSpec((_indicator_plate(("z",), np.zeros(1)),), SimpleMixtureProvider())


# --------------------------------------------------------------------------
# Model: two-level mixture with a Beta-distributed weight
# --------------------------------------------------------------------------


class TwoLevelProvider(CoefficientProvider):
    """Bernoulli locals plus one Beta global.

    The coefficient does not depend on the weight plate's base measure,
    which the engine takes from the plate's Beta family.
    """

    def __init__(self, n: int):
        self.plates = {"z": _z_ids(n), "pi": ("pi",)}

    def coefficient(self, plate, mus, data: TwoLevelMixtureData):
        if plate == "pi":
            return _weight_coefficient(data.alpha0, data.beta0, mus)
        return _indicator_coefficient(mus, data.log_pa, data.log_pb)

    def expected_log_joint(self, mus, data: TwoLevelMixtureData):
        total = _weight_log_prior(mus, data)
        return float(total + _indicator_log_joint(mus, data.log_pa, data.log_pb))


def build_two_level(
    data: TwoLevelMixtureData, seed: int = 0, shifted_beta: bool = False
) -> ModelSpec:
    """Every q(z_i) starts at 1/2, nothing is drawn and ``seed`` is unused; ``shifted_beta`` picks h(z) = 1/(z(1-z))."""
    provider = TwoLevelProvider(data.n)
    base = "reciprocal" if shifted_beta else "constant"
    plates = (
        _indicator_plate(provider.plates["z"], np.zeros(data.n)),
        _global("pi", beta_natural(data.alpha0, data.beta0, base_measure=base)),
    )
    return ModelSpec(plates, provider)


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


def _gw_prior(data: GMMData) -> NaturalParam:
    """The components' Gaussian-Wishart prior: zero mean, nu0, gamma0 and W0."""
    return gw_natural(data.nu0, data.gamma0, np.zeros(data.dim), data.w0)


def _gw_prior_terms(data: GMMData):
    """The prior's natural parameter and -A(prior): a component's prior term is prior . mu - A(prior)."""
    prior = _gw_prior(data)
    return prior.values, -expfam.log_partition(prior)


class GMMProvider(CoefficientProvider):
    """Bernoulli responsibilities, a Beta weight, and a plate of two Gaussian-Wishart components.

    A component meets the data only through each datum's sufficient
    statistics T(y): its expected log-likelihood is T(y) . mu, and its
    coefficient is the prior plus the weighted sum of T(y).  What is read
    off the data alone, T(y) and the prior, is memoised on the snapshot for
    the data object it is read for; the provider holds only its plates, so
    it serves any data of their size.
    """

    def __init__(self, data: GMMData):
        self.plates = {"z": _z_ids(data.n), "pi": ("pi",), "comp": ("comp_a", "comp_b")}

    def _stats(self, mus, data: GMMData) -> np.ndarray:
        """T(y) per datum, memoised on the snapshot for this provider and data: it reads no entry."""
        return mus.read_off("T(y)", self, data, _gw_statistics, data.y)

    def _log_liks(self, mus, data: GMMData):
        """Each datum's expected log-likelihood under comp_a and comp_b, one row each, by one product with T(y).

        Memoised on the snapshot until "comp" is put: the indicators' read-off
        and the ELBO at one component state share one pass over the data.
        """
        log_liks = lambda: expected_log_component(mus["comp"], self._stats(mus, data), data.dim).T  # noqa: E731
        return mus.read_off("comp log-likelihoods", self, data, log_liks)

    def coefficient(self, plate, mus, data: GMMData):
        if plate == "pi":
            return _weight_coefficient(data.alpha0, data.beta0, mus)
        if plate == "comp":  # row 0 weighs each datum by r, row 1 by 1 - r
            r = mus["z"][:, 0]
            w = np.empty((2, r.size))
            w[0] = r
            np.subtract(1.0, r, out=w[1])
            # the conjugate prior's term in a component's coefficient is its natural parameter
            prior = mus.read_off("comp prior", self, data, _gw_prior_terms, data)[0]
            # one vector-matrix product per row, so each row is bitwise that of a lone component
            return prior + (w[:, None, :] @ self._stats(mus, data))[:, 0]
        return _indicator_coefficient(mus, *self._log_liks(mus, data))

    def expected_log_joint(self, mus, data: GMMData):
        total = _weight_log_prior(mus, data)
        total += _indicator_log_joint(mus, *self._log_liks(mus, data))
        prior, prior_const = mus.read_off("comp prior", self, data, _gw_prior_terms, data)
        for mu in mus["comp"]:
            total += float(prior @ mu) + prior_const
        return float(total)



def build_gmm2(data: GMMData, seed: int = 0) -> ModelSpec:
    provider = GMMProvider(data)
    prior = _gw_prior(data)
    p = 0.5 + np.random.default_rng(seed).uniform(-_INIT_JITTER, _INIT_JITTER, size=data.n)
    plates = (
        _indicator_plate(provider.plates["z"], np.log(p / (1 - p))),
        _global("pi", beta_natural(data.alpha0, data.beta0)),
        Plate(provider.plates["comp"], NaturalParam(prior.family, np.tile(prior.values, (2, 1))), role=GLOBAL),
    )
    # Globals first: a locals-first sweep would overwrite the perturbed
    # responsibilities while the components are still identical, freezing the
    # model at the symmetric fixed point.
    order = ("pi", "comp", "z")
    return ModelSpec(plates, provider, sweep_order=order)


# --------------------------------------------------------------------------
# Model: matrix factorization (VMP / PPCA / ALS)
# --------------------------------------------------------------------------


def _split_gauss(mu: np.ndarray, k: int):
    """(E[x], E[x x^T]) per row of a (G, K + K^2) Gaussian plate."""
    return mu[:, :k], mu[:, k:].reshape(-1, k, k)


def _sum_of_squares(y: np.ndarray) -> float:
    """The sum of y^2 over every entry of the data matrix."""
    return float(np.sum(y * y))


class MatrixFactorizationProvider(CoefficientProvider):
    """Gaussian row/column factors under an i.i.d. unit-noise likelihood.

    The row factors u0..u{N-1} form plate "u" and the column factors
    v0..v{D-1} plate "v"; each reads only the other plate.  The expected
    log-joint is linear in u's expectations, with u's coefficient as the
    slope, so it is read off as mu_u . coefficient_u, which holds
    y . (U V^T), the E[u u^T] . E[v v^T] sums and delta_u's trace, plus
    the terms that do not read u: -sum y^2 / 2, delta_v's trace and the
    constants.  In a fit the residual has just memoised that coefficient
    on the snapshot; the sum of y^2 is read off the data alone, memoised
    too.
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
        total -= 0.5 * mus.read_off("sum y^2", self, data, _sum_of_squares, data.y)
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


class LogitNormalProvider(CoefficientProvider):
    """Two-level mixture whose weight prior is logit-normal.

    The prior factorizes as h(z) exp(f) with h(z) = 1/(z(1-z)) and
    f = -(t - m)^2 / 2 in the logit t = logit(z); the non-conjugate f enters
    the weight plate's coefficient through its natural gradient, acting as
    a pseudo-conjugate Beta term.  For this f the natural gradient and
    E_q[f] are closed form (``logit_normal_natural_gradient``).

    The weight read-off (the natural gradient and E_q[f]) is taken at the
    (a, b) that validation of the weight plate's stacked lambda kept, and
    memoised on the snapshot for this provider and data until "pi" is put:
    the step, the fixed-point residual and the ELBO at one weight state
    share one read-off.  The provider holds only its plates; a fit sets
    nothing on it.
    """

    def __init__(self, n: int):
        self.plates = {"z": _z_ids(n), "pi": ("pi",)}

    def _weight_read_off(self, mus, data: LogitNormalMixtureData):
        """((alpha_hat, beta_hat), E_q[f]) at the lambda of "pi", memoised on the snapshot until "pi" is put."""

        def read_off():
            return _logit_normal_gradient(*mus.lam("pi")._kept[0][0], data.m)

        return mus.read_off("pi read-off", self, data, read_off)

    def coefficient(self, plate, mus, data: LogitNormalMixtureData):
        if plate == "pi":
            # the prior's base measure contributes (-1, -1) and the pseudo
            # prior (alpha_hat, beta_hat): Beta exponents of a conjugate term
            ab_hat = self._weight_read_off(mus, data)[0]
            return _weight_coefficient(ab_hat[0], ab_hat[1], mus)
        return _indicator_coefficient(mus, data.log_pa, data.log_pb)

    def expected_log_joint(self, mus, data: LogitNormalMixtureData):
        mu0 = mus["pi"][0]
        total = -float(mu0[0]) - float(mu0[1])  # prior base measure 1/(z(1-z))
        total -= 0.5 * LOG_2PI  # logit-normal (sigma = 1) normalizer
        total += self._weight_read_off(mus, data)[1]
        return float(total + _indicator_log_joint(mus, data.log_pa, data.log_pb))


def build_logitnormal(data: LogitNormalMixtureData, seed: int = 0) -> ModelSpec:
    """Every q(z_i) starts at 1/2 and nothing is drawn: no symmetry needs breaking, so ``seed`` is unused."""
    provider = LogitNormalProvider(data.n)
    plates = (
        _indicator_plate(provider.plates["z"], np.zeros(data.n)),
        _global("pi", beta_natural(1.0, 1.0)),
    )
    return ModelSpec(plates, provider)
