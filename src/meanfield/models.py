"""Coefficient providers for the worked models.

Each provider expands the expected log-joint as a multilinear function of
every node's expectation vector, so the engine can read the update target
for node i straight off the terms multiplying that node's expectations.
All expected-log-joint values include their additive constants (Gaussian
and prior normalizers), so ELBO values are absolute.

Every provider declares its plates: the indicators z0..z{N-1} form plate
"z", the factor rows and columns plates "u" and "v", and each global is a
plate of its own.  Snapshots hold one (G, flat) array per plate, and every
coefficient is returned for a whole plate as a (G, flat) array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import expfam
from .engine import GLOBAL, LOCAL, CoefficientProvider, ModelSpec, Plate
from .expfam import NaturalParam, NumericalError, beta_natural, gw_natural
from .specfun import betaln, gammaln

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
    "build_simple_mixture",
    "build_two_level",
    "build_gmm2",
    "build_matfac",
    "build_logitnormal",
    "als_objective",
]

LOG_2PI = math.log(2.0 * math.pi)

# Symmetry-breaking perturbation applied to Bernoulli initial means.
_INIT_JITTER = 0.05

# Gauss-Legendre nodes per panel of the Beta quadrature; doubling them must
# move the natural gradient by less than _QUAD_CHECK_TOL.
_QUAD_ORDER = 40
_QUAD_CHECK_TOL = 1e-6


def _require_finite(data) -> None:
    """Reject NaN and infinite values in a data container, naming the field."""
    for f in fields(data):
        if not np.all(np.isfinite(np.asarray(getattr(data, f.name), dtype=float))):
            raise ValueError(f"{f.name} must be finite")


def _require_square_summable(y: np.ndarray) -> None:
    """Reject Gaussian observations whose sum of squares overflows; the log-joint squares them."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(y * y)):
            largest = float(np.max(np.abs(y)))
            raise ValueError(f"y is too large: its sum of squares overflows (largest |y| is {largest:g})")


# --------------------------------------------------------------------------
# data containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleMixtureData:
    """One observation under a two-component mixture with known prior weight."""

    pi0: float
    pa: float
    pb: float

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.pi0 < 1.0:
            raise ValueError(f"pi0 must lie in (0,1), got {self.pi0}")
        if self.pa <= 0.0 or self.pb <= 0.0:
            raise ValueError("component likelihood values must be positive")


@dataclass(frozen=True)
class _MixtureLogLiks:
    """Per-observation log-likelihoods under components a and b."""

    log_pa: np.ndarray
    log_pb: np.ndarray

    def __post_init__(self):
        _require_finite(self)
        la = np.asarray(self.log_pa, dtype=float).reshape(-1)
        lb = np.asarray(self.log_pb, dtype=float).reshape(-1)
        if la.size < 1 or la.size != lb.size:
            raise ValueError("log_pa and log_pb must be equal-length, nonempty vectors")
        object.__setattr__(self, "log_pa", la)
        object.__setattr__(self, "log_pb", lb)

    @property
    def n(self) -> int:
        return self.log_pa.size


@dataclass(frozen=True)
class TwoLevelMixtureData(_MixtureLogLiks):
    """Per-observation component log-likelihoods plus a Beta prior on the weight."""

    alpha0: float
    beta0: float

    def __post_init__(self):
        super().__post_init__()
        if self.alpha0 <= 0.0 or self.beta0 <= 0.0:
            raise ValueError("Beta prior parameters must be positive")


@dataclass(frozen=True)
class GMMData:
    """Observations for the two-component Gaussian mixture with GW priors."""

    y: np.ndarray
    alpha0: float
    beta0: float
    gamma0: float
    nu0: float
    w0: np.ndarray

    def __post_init__(self):
        _require_finite(self)
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        _require_square_summable(y)
        if y.shape[0] < 2:
            raise ValueError("GMM needs at least two observations")
        d = y.shape[1]
        w0 = np.atleast_2d(np.asarray(self.w0, dtype=float))
        if w0.shape != (d, d):
            raise ValueError(f"W0 must be {d}x{d}")
        if self.alpha0 <= 0.0 or self.beta0 <= 0.0:
            raise ValueError("Beta prior parameters must be positive")
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.nu0 <= d - 1:
            raise ValueError(f"nu0 must exceed D-1 = {d - 1}")
        np.linalg.cholesky(w0)  # raises on non-SPD
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w0", 0.5 * (w0 + w0.T))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class MatrixFactorizationData:
    """Full data matrix Y fit by K-factor row/column embeddings."""

    y: np.ndarray
    k: int
    delta_u: float
    delta_v: float

    def __post_init__(self):
        _require_finite(self)
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        _require_square_summable(y)
        if self.k < 1:
            raise ValueError("number of factors must be >= 1")
        if self.delta_u <= 0.0 or self.delta_v <= 0.0:
            raise ValueError("regularization weights must be positive")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class LogitNormalMixtureData(_MixtureLogLiks):
    """Two-level mixture data with a logit-normal prior on the weight."""

    m: float


# --------------------------------------------------------------------------
# Bernoulli indicators shared by the two-level, GMM and logit-normal models:
# z_i ~ Bernoulli(pi) picks component a (z_i = 1) or b for observation i,
# and log_a, log_b are the (expected) component log-likelihoods.  The
# indicators form plate "z" and the weight is plate "pi".
# --------------------------------------------------------------------------


def _z_ids(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(n))


def _indicator_plate(ids, rng) -> Plate:
    """Local Bernoulli plate whose initial means are jittered around 1/2."""
    p = 0.5 + rng.uniform(-_INIT_JITTER, _INIT_JITTER, size=len(ids))
    lam = NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.log(p / (1 - p))[:, None])
    return Plate.make(ids, lam, role=LOCAL)


def _global(node_id: str, lam) -> Plate:
    """A plate of one global node."""
    return Plate.make((node_id,), NaturalParam(lam.family, lam.values[None, :]), role=GLOBAL)


def _model_spec(plates: dict[str, Plate], provider, sweep_order=None) -> ModelSpec:
    """The model whose per-id nodes are the rows of the initial plates."""
    nodes = tuple(node for plate in plates.values() for node in plate.nodes())
    return ModelSpec(nodes, provider, sweep_order)


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
    s = float(r.sum())
    return np.array([[a - 1.0 + s, r.size + b - 1.0 - s]])


def _indicator_log_joint(mus, log_a, log_b) -> float:
    """Sum over i of E_q[log p(z_i | pi) + log p(y_i | z_i)]."""
    r, mu0 = mus["z"][:, 0], mus["pi"][0]
    return float(r @ (log_a + mu0[0]) + (1.0 - r) @ (log_b + mu0[1]))


# --------------------------------------------------------------------------
# Model: single-observation mixture
# --------------------------------------------------------------------------


class SimpleMixtureProvider(CoefficientProvider):
    """Single Bernoulli indicator; its coefficient is the prior-weighted log odds."""

    plates = {"z": ("z",)}

    def coefficient(self, plate, mus, data: SimpleMixtureData):
        if plate != "z":
            raise KeyError(plate)
        return np.array(
            [[math.log(data.pi0 * data.pa) - math.log((1.0 - data.pi0) * data.pb)]]
        )

    def expected_log_joint(self, mus, data: SimpleMixtureData):
        mu = float(mus["z"][0, 0])
        odds = math.log(data.pi0 * data.pa) - math.log((1.0 - data.pi0) * data.pb)
        return mu * odds + math.log((1.0 - data.pi0) * data.pb)

    @property
    def conjugate_plates(self):
        return ("z",)


def build_simple_mixture(data: SimpleMixtureData, seed: int = 0) -> ModelSpec:
    plates = {"z": _indicator_plate(("z",), np.random.default_rng(seed))}
    return _model_spec(plates, SimpleMixtureProvider())


# --------------------------------------------------------------------------
# Model: two-level mixture with a Beta-distributed weight
# --------------------------------------------------------------------------


class TwoLevelProvider(CoefficientProvider):
    """Bernoulli locals plus one Beta global.

    With ``shifted_beta`` the global node uses the reciprocal-base-measure
    representation of the Beta family; the coefficient is unchanged and the
    base-measure correction accounts for the (1, 1) shift.
    """

    def __init__(self, n: int, shifted_beta: bool = False):
        self.shifted_beta = shifted_beta
        self.plates = {"z": _z_ids(n), "pi": ("pi",)}

    def coefficient(self, plate, mus, data: TwoLevelMixtureData):
        if plate == "pi":
            return _weight_coefficient(data.alpha0, data.beta0, mus)
        return _indicator_coefficient(mus, data.log_pa, data.log_pb)

    def expected_log_joint(self, mus, data: TwoLevelMixtureData):
        mu0 = mus["pi"][0]
        total = (data.alpha0 - 1.0) * mu0[0] + (data.beta0 - 1.0) * mu0[1]
        total -= betaln(data.alpha0, data.beta0)
        return float(total + _indicator_log_joint(mus, data.log_pa, data.log_pb))

    def base_measure_grad(self, plate):
        if self.shifted_beta and plate == "pi":
            return np.array([[-1.0, -1.0]])
        return None

    @property
    def conjugate_plates(self):
        return ("z", "pi")


def build_two_level(
    data: TwoLevelMixtureData, seed: int = 0, shifted_beta: bool = False
) -> ModelSpec:
    provider = TwoLevelProvider(data.n, shifted_beta)
    base = "reciprocal" if shifted_beta else "constant"
    plates = {
        "z": _indicator_plate(provider.plates["z"], np.random.default_rng(seed)),
        "pi": _global("pi", beta_natural(data.alpha0, data.beta0, base_measure=base)),
    }
    return _model_spec(plates, provider)


# --------------------------------------------------------------------------
# Model: two-component Gaussian mixture with Gaussian-Wishart priors
# --------------------------------------------------------------------------


def expected_log_component(mu_gw: np.ndarray, y: np.ndarray, d: int):
    """E_q[log N(y | m, S^-1)] for one observation y of shape (D,) or per row of (N, D)."""
    mu1 = float(mu_gw[0])
    e_s = mu_gw[1 : 1 + d * d].reshape(d, d)
    e_sm = mu_gw[1 + d * d : 1 + d * d + d]
    mu4 = float(mu_gw[-1])
    return 0.5 * mu1 - 0.5 * ((y @ e_s) * y).sum(-1) + y @ e_sm - 0.5 * mu4 - 0.5 * d * LOG_2PI


class GMMProvider(CoefficientProvider):
    """Bernoulli responsibilities, a Beta weight, and two Gaussian-Wishart components."""

    def __init__(self, data: GMMData):
        self.d = data.dim
        self.plates = {"z": _z_ids(data.n), "pi": ("pi",), "comp_a": ("comp_a",), "comp_b": ("comp_b",)}
        # The conjugate prior's term in a component's coefficient is its natural parameter.
        self._prior = gw_natural(data.nu0, data.gamma0, np.zeros(self.d), data.w0).values
        self._yy = np.einsum("ni,nj->nij", data.y, data.y)
        # Wishart prior log-normalizer, plus the Gaussian layer's constants.
        d = self.d
        log_b = (
            -0.5 * data.nu0 * float(np.linalg.slogdet(data.w0)[1])
            - 0.5 * data.nu0 * d * math.log(2.0)
            - 0.25 * d * (d - 1) * math.log(math.pi)
            - sum(gammaln(0.5 * (data.nu0 + 1 - k)) for k in range(1, d + 1))
        )
        self._prior_const = 0.5 * d * math.log(data.gamma0) - 0.5 * d * LOG_2PI + log_b

    def coefficient(self, plate, mus, data: GMMData):
        if plate == "pi":
            return _weight_coefficient(data.alpha0, data.beta0, mus)
        if plate in ("comp_a", "comp_b"):
            r = mus["z"][:, 0]
            w = r if plate == "comp_a" else 1.0 - r
            s = float(w.sum())
            yy = -0.5 * np.einsum("n,nij->ij", w, self._yy).reshape(-1)
            return (self._prior + np.concatenate([[0.5 * s], yy, w @ data.y, [-0.5 * s]]))[None, :]
        ea = expected_log_component(mus["comp_a"][0], data.y, self.d)
        eb = expected_log_component(mus["comp_b"][0], data.y, self.d)
        return _indicator_coefficient(mus, ea, eb)

    def expected_log_joint(self, mus, data: GMMData):
        mu0 = mus["pi"][0]
        total = (data.alpha0 - 1.0) * mu0[0] + (data.beta0 - 1.0) * mu0[1]
        total -= betaln(data.alpha0, data.beta0)
        ea = expected_log_component(mus["comp_a"][0], data.y, self.d)
        eb = expected_log_component(mus["comp_b"][0], data.y, self.d)
        total += _indicator_log_joint(mus, ea, eb)
        for comp in ("comp_a", "comp_b"):
            total += float(self._prior @ mus[comp][0]) + self._prior_const
        return float(total)

    @property
    def conjugate_plates(self):
        return ("z", "pi", "comp_a", "comp_b")


def build_gmm2(data: GMMData, seed: int = 0) -> ModelSpec:
    provider = GMMProvider(data)
    prior = gw_natural(data.nu0, data.gamma0, np.zeros(data.dim), data.w0)
    plates = {
        "z": _indicator_plate(provider.plates["z"], np.random.default_rng(seed)),
        "pi": _global("pi", beta_natural(data.alpha0, data.beta0)),
        "comp_a": _global("comp_a", prior),
        "comp_b": _global("comp_b", prior),
    }
    # Globals first: a locals-first sweep would overwrite the perturbed
    # responsibilities while the components are still identical, freezing the
    # model at the symmetric fixed point.
    order = ("pi", "comp_a", "comp_b", "z")
    return _model_spec(plates, provider, sweep_order=order)


# --------------------------------------------------------------------------
# Model: matrix factorization (VMP / PPCA / ALS)
# --------------------------------------------------------------------------


def _split_gauss(mu: np.ndarray, k: int):
    """(E[x], E[x x^T]) per row of a (G, K + K^2) Gaussian plate."""
    return mu[:, :k], mu[:, k:].reshape(-1, k, k)


class MatrixFactorizationProvider(CoefficientProvider):
    """Gaussian row/column factors under an i.i.d. unit-noise likelihood.

    The row factors u0..u{N-1} form plate "u" and the column factors
    v0..v{D-1} plate "v"; each reads only the other plate.
    """

    def __init__(self, data: MatrixFactorizationData):
        self.n = data.n
        self.d = data.d
        self.k = data.k
        self.plates = {
            "u": tuple(f"u{i}" for i in range(self.n)),
            "v": tuple(f"v{j}" for j in range(self.d)),
        }

    def coefficient(self, plate, mus, data: MatrixFactorizationData):
        k = self.k
        if plate == "u":
            other, weights, delta = mus["v"], data.y, data.delta_u
        else:
            other, weights, delta = mus["u"], data.y.T, data.delta_v
        m1, m2 = _split_gauss(other, k)
        prec = delta * np.eye(k) + m2.sum(axis=0)
        quad = np.broadcast_to((-0.5 * prec).reshape(-1), (weights.shape[0], k * k))
        return np.concatenate([weights @ m1, quad], axis=1)

    def expected_log_joint(self, mus, data: MatrixFactorizationData):
        k = self.k
        u1, u2 = _split_gauss(mus["u"], k)
        v1, v2 = _split_gauss(mus["v"], k)
        total = -0.5 * float(np.sum(data.y * data.y))
        total += float(np.sum(data.y * (u1 @ v1.T)))
        total -= 0.5 * float(np.einsum("nab,dab->", u2, v2))
        total -= 0.5 * self.n * self.d * LOG_2PI
        total -= 0.5 * data.delta_u * float(np.trace(u2.sum(axis=0)))
        total -= 0.5 * data.delta_v * float(np.trace(v2.sum(axis=0)))
        total += 0.5 * self.n * k * (math.log(data.delta_u) - LOG_2PI)
        total += 0.5 * self.d * k * (math.log(data.delta_v) - LOG_2PI)
        return total

    @property
    def conjugate_plates(self):
        return ("u", "v")


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
        return Plate.make(provider.plates[name], lam, role=LOCAL, delta_mode=delta_mode)

    plates = {
        "u": factors("u", data.delta_u, mode == "als"),
        "v": factors("v", data.delta_v, mode in ("ppca", "als")),
    }
    return _model_spec(plates, provider)


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
    all orders.  Returns one (stats, weights) pair per order: stats holds
    the sufficient statistics (log z, log(1-z)) at the nodes as a (2, nodes)
    array, and the weights have the density absorbed, normalized to unit
    mass.
    """
    log_norm = betaln(a, b)

    def logdens(t):
        return a * _log_sigmoid(t) + b * _log_sigmoid(-t) - log_norm

    mode = math.log(a / b)
    floor = logdens(mode) - 50.0
    lo = _walk(logdens, mode, -1.0, floor)
    hi = _walk(logdens, mode, 1.0, floor)
    panels = max(int(math.ceil((hi - lo) / 2.0)), 1)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    rules = []
    for nodes_per_panel in orders:
        x, w = _legendre(nodes_per_panel)
        t = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
        stats = np.stack([_log_sigmoid(t), _log_sigmoid(-t)])
        wq = (half[:, None] * w[None, :]).reshape(-1) * np.exp(a * stats[0] + b * stats[1] - log_norm)
        rules.append((stats, wq / wq.sum()))
    return rules


def _log_sigmoid(t):
    """log sigmoid(t) = -log(1 + e^-t), without overflow for any t."""
    return -np.logaddexp(0.0, -t)


def _f_at_nodes(f, log_z: np.ndarray) -> np.ndarray:
    """f(z) at the quadrature nodes z = exp(log_z), clamped into the open interval.

    f is called once, on the array of nodes.  Beyond |logit z| ~ 37 the
    float z rounds onto {0, 1}; the quadrature weight there is below e^-37,
    so the clamp is invisible in the integrals and only keeps f(z) finite at
    the tail nodes.
    """
    z = np.clip(np.exp(log_z), 1e-300, 1.0 - 1e-16)
    fx = np.asarray(f(z), dtype=float)
    if fx.shape != z.shape:
        raise ValueError(f"f must map an array of z to an array of the same shape, got {fx.shape} for {z.shape}")
    return fx


def _beta_from_mean(mu0: np.ndarray):
    """Beta natural parameters of the weight node's expectations (E[log z], E[log(1-z)])."""
    return expfam.mean_to_nat(expfam.ExpectationParam(expfam.FamilyDescriptor(expfam.BETA), mu0))


def beta_natural_gradient(lam, f):
    """Natural gradient of E_q[f(z)] w.r.t. the Beta expectation parameters.

    ``f`` maps an array of z in (0, 1) to the array of f(z); it is called
    once per quadrature rule.  The gradient is F^-1 Cov_q(T, f) with
    T = (log z, log(1-z)) and F = Cov(T, T) the Fisher matrix, all moments by
    quadrature.  Doubling the nodes per panel must change the result by less
    than _QUAD_CHECK_TOL, else the failure is reported.  Returns the pair
    (gradient, E_q[f]); E_q[f] comes from the same pass as the gradient, at
    _QUAD_ORDER nodes per panel.
    """
    a, b = expfam.beta_ab(lam)
    if a < 1e-2 or b < 1e-2:
        raise expfam.DomainError(f"quadrature requires alpha, beta >= 0.01, got ({a:g}, {b:g})")
    estimates = []
    for t_stats, wq in _beta_logit_rules(a, b, (_QUAD_ORDER, 2 * _QUAD_ORDER)):
        fx = _f_at_nodes(f, t_stats[0])
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


class LogitNormalProvider(CoefficientProvider):
    """Two-level mixture whose weight prior is logit-normal.

    The prior factorizes as h(z) exp(f(z)) with h(z) = 1/(z(1-z)) and
    f(z) = -(logit(z) - m)^2 / 2; the non-conjugate f enters the weight
    node's coefficient through its quadrature natural gradient, acting as a
    pseudo-conjugate Beta term.  ``log_prior_core`` may override f (used by
    the conjugate cross-checks); like f it maps an array of z to an array.

    The weight read-off (the Beta natural parameters of the weight's
    expectations, the natural gradient and E_q[f]) is done once per weight
    state: the step, the fixed-point residual and the ELBO at the same
    expectations of "pi", and the same f, share one quadrature pass.
    """

    def __init__(self, n: int, log_prior_core=None):
        self.log_prior_core = log_prior_core
        self.plates = {"z": _z_ids(n), "pi": ("pi",)}
        self._read_off_key = None
        self._read_off = None

    def _f(self, data: LogitNormalMixtureData):
        """(what f depends on, f): log_prior_core itself, or the default f's mean m."""
        if self.log_prior_core is not None:
            return self.log_prior_core, self.log_prior_core
        m = data.m
        return m, lambda z: -0.5 * (np.log(z / (1.0 - z)) - m) ** 2

    def _weight_read_off(self, mu0: np.ndarray, data: LogitNormalMixtureData):
        """((alpha_hat, beta_hat), E_q[f]) at the weight expectations mu0, kept for the last mu0 and f."""
        depends_on, f = self._f(data)
        key = (mu0.tobytes(), depends_on)
        if key != self._read_off_key:
            ab_hat, f_mean = beta_natural_gradient(_beta_from_mean(mu0), f)
            ab_hat.flags.writeable = False
            self._read_off_key, self._read_off = key, (ab_hat, f_mean)
        return self._read_off

    def pseudo_prior(self, mu0: np.ndarray, data: LogitNormalMixtureData) -> np.ndarray:
        """(alpha_hat, beta_hat): natural gradient of the non-conjugate term (read-only)."""
        return self._weight_read_off(mu0, data)[0]

    def coefficient(self, plate, mus, data: LogitNormalMixtureData):
        if plate == "pi":
            # the prior's base measure contributes (-1, -1) and the pseudo
            # prior (alpha_hat, beta_hat): Beta exponents of a conjugate term
            ab_hat = self.pseudo_prior(mus["pi"][0], data)
            return _weight_coefficient(ab_hat[0], ab_hat[1], mus)
        return _indicator_coefficient(mus, data.log_pa, data.log_pb)

    def expected_log_joint(self, mus, data: LogitNormalMixtureData):
        mu0 = mus["pi"][0]
        total = -float(mu0[0]) - float(mu0[1])  # prior base measure 1/(z(1-z))
        total -= 0.5 * LOG_2PI  # logit-normal (sigma = 1) normalizer
        total += self._weight_read_off(mu0, data)[1]
        return float(total + _indicator_log_joint(mus, data.log_pa, data.log_pb))

    @property
    def conjugate_plates(self):
        return ("z",)  # the weight node is non-conjugate


def build_logitnormal(data: LogitNormalMixtureData, seed: int = 0) -> ModelSpec:
    provider = LogitNormalProvider(data.n)
    plates = {
        "z": _indicator_plate(provider.plates["z"], np.random.default_rng(seed)),
        "pi": _global("pi", beta_natural(1.0, 1.0)),
    }
    return _model_spec(plates, provider)
