"""Fixed-point update engine.

Each latent node keeps a natural-parameter / expectation-parameter pair.
A model supplies a coefficient provider that, given a snapshot of all
expectation parameters, returns the vector multiplying each node's
expectations inside the expected log-joint.  The damped update

    lam_i <- (1 - rho_i) lam_i + rho_i * g_i

drives every node toward the stationary point where lam_i equals its
coefficient.  rho = 1 coordinate-wise gives CAVI/VMP; a decaying global
rate gives SVI; rho < 1 on a frozen snapshot gives the parallel damped
scheme.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from . import expfam
from .expfam import DomainError, ExpectationParam, NaturalParam, nat_to_mean

__all__ = [
    "CAVI",
    "SVI",
    "PARALLEL_BLR",
    "ConfigurationError",
    "NodeState",
    "Schedule",
    "CoefficientProvider",
    "ModelSpec",
    "FitTrace",
    "TraceRecord",
    "delta_moment",
    "mu_snapshot",
    "blr_step",
    "cavi_sweep",
    "svi_step",
    "fit",
    "elbo",
    "fixed_point_residual",
]

CAVI = "cavi"
SVI = "svi"
PARALLEL_BLR = "parallel"

LOCAL = "local"
GLOBAL = "global"

# A rejected damped step is retried with half the rate this many times
# before the failure propagates.
_MAX_RATE_HALVINGS = 10


class ConfigurationError(ValueError):
    """The model/schedule combination is not runnable."""


@dataclass(frozen=True)
class NodeState:
    """One latent node: family, current lambda, cached mu."""

    id: str
    lam: NaturalParam
    mu: ExpectationParam
    role: str = LOCAL
    delta_mode: bool = False

    def __post_init__(self):
        if self.role not in (LOCAL, GLOBAL):
            raise ConfigurationError(f"node role must be 'local' or 'global', got {self.role!r}")
        if self.delta_mode and self.lam.family.kind != expfam.GAUSSIAN:
            raise ConfigurationError("delta_mode is only supported on Gaussian nodes")

    @staticmethod
    def make(node_id: str, lam: NaturalParam, role: str = LOCAL, delta_mode: bool = False):
        return NodeState(node_id, lam, nat_to_mean(lam), role, delta_mode)

    def with_lambda(self, lam: NaturalParam) -> "NodeState":
        return replace(self, lam=lam, mu=nat_to_mean(lam))

    @property
    def family(self):
        return self.lam.family


class CoefficientProvider(ABC):
    """Per-model read-off of the vector multiplying each node's expectations."""

    @abstractmethod
    def coefficient(self, node_id: str, mus: dict[str, np.ndarray], data) -> np.ndarray:
        """Gradient of the expected log-joint w.r.t. node_id's expectation vector."""

    @abstractmethod
    def expected_log_joint(self, mus: dict[str, np.ndarray], data) -> float:
        """E_q[log p(y, z)] including all additive constants."""

    def base_measure_grad(self, node_id: str):
        """Gradient of E_q[log h_i] for nodes with a nonconstant base measure."""
        return None

    @property
    def conjugate_node_ids(self) -> tuple[str, ...]:
        """Nodes whose coefficient must not depend on their own expectations."""
        return ()


@dataclass(frozen=True)
class ModelSpec:
    """Initial node states plus the coefficient provider driving them.

    ``sweep_order`` overrides the default locals-then-globals coordinate
    order for models whose convergence depends on it.
    """

    nodes: tuple[NodeState, ...]
    provider: CoefficientProvider
    sweep_order: tuple[str, ...] | None = None

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate node ids in model")
        if self.sweep_order is not None and sorted(self.sweep_order) != sorted(ids):
            raise ConfigurationError("sweep_order must be a permutation of the node ids")

    @property
    def local_ids(self) -> list[str]:
        return [n.id for n in self.nodes if n.role == LOCAL]

    @property
    def global_ids(self) -> list[str]:
        return [n.id for n in self.nodes if n.role == GLOBAL]


@dataclass(frozen=True)
class Schedule:
    """Update schedule: CAVI, SVI, or parallel damped steps.

    The SVI global rate follows rho_t = (t + tau)^(-kappa) with t counted
    from zero.
    """

    kind: str = CAVI
    rho_local: float = 1.0
    kappa: float = 0.7
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (CAVI, SVI, PARALLEL_BLR):
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.rho_local <= 1.0:
            raise ConfigurationError("rho_local must lie in (0, 1]")
        if not 0.5 < self.kappa <= 1.0:
            raise ConfigurationError("kappa must lie in (0.5, 1]")
        if self.tau < 0.0:
            raise ConfigurationError("tau must be nonnegative")

    def global_rate(self, t: int) -> float:
        return float((t + self.tau) ** (-self.kappa))


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    elbo: float
    residual: float
    wall_time: float


@dataclass
class FitTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    state: dict[str, NodeState] = field(default_factory=dict)

    @property
    def elbos(self) -> np.ndarray:
        return np.array([r.elbo for r in self.records])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])


# --------------------------------------------------------------------------
# node-level operations
# --------------------------------------------------------------------------


def delta_moment(node: NodeState) -> ExpectationParam:
    """Point-mass expectations (m, m m^T) for a delta-flagged Gaussian node."""
    if node.family.kind != expfam.GAUSSIAN:
        raise DomainError("delta_moment requires a Gaussian node")
    if not node.delta_mode:
        raise DomainError(f"node {node.id!r} is not delta-flagged")
    m, _ = expfam.gaussian_mean_precision(node.lam)
    return ExpectationParam(node.family, np.concatenate([m, np.outer(m, m).reshape(-1)]))


def _moments(node: NodeState) -> np.ndarray:
    """The expectation vector other nodes see: delta-substituted where flagged."""
    return (delta_moment(node) if node.delta_mode else node.mu).values


def mu_snapshot(state: dict[str, NodeState]) -> dict[str, np.ndarray]:
    """Flat expectation vectors per node, delta-substituted where flagged."""
    return {nid: _moments(n) for nid, n in state.items()}


def blr_step(node: NodeState, g: np.ndarray, rho: float, base_grad=None) -> NodeState:
    """One damped natural-parameter step toward the coefficient vector."""
    if not 0.0 < rho <= 1.0:
        raise ConfigurationError(f"rho must lie in (0, 1], got {rho}")
    target = np.asarray(g, dtype=float)
    if base_grad is not None:
        target = target - np.asarray(base_grad, dtype=float)
    new_values = (1.0 - rho) * node.lam.values + rho * target
    return node.with_lambda(NaturalParam(node.family, new_values))


def _target(model: ModelSpec, nid: str, snap: dict[str, np.ndarray], data) -> np.ndarray:
    """Where a full step lands node nid: its coefficient minus the base-measure gradient."""
    target = np.asarray(model.provider.coefficient(nid, snap, data), dtype=float)
    base = model.provider.base_measure_grad(nid)
    return target if base is None else target - np.asarray(base, dtype=float)


def _step_with_backoff(node: NodeState, target: np.ndarray, rho: float) -> NodeState:
    for _ in range(_MAX_RATE_HALVINGS):
        try:
            return blr_step(node, target, rho)
        except DomainError:
            rho *= 0.5
    raise DomainError(
        f"update of node {node.id!r} left the parameter domain even after "
        f"{_MAX_RATE_HALVINGS} rate halvings"
    )


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------


def _sweep(model: ModelSpec, state: dict[str, NodeState], data, steps, frozen: bool = False):
    """Damped steps, one per (node id, rate) in order: the single update path.

    Each target reads the expectation snapshot, which is refreshed after
    every step unless ``frozen`` holds it at its pre-sweep value.
    """
    snap = mu_snapshot(state)
    for nid, rho in steps:
        state[nid] = _step_with_backoff(state[nid], _target(model, nid, snap, data), rho)
        if not frozen:
            snap[nid] = _moments(state[nid])
    return state


def cavi_sweep(
    model: ModelSpec, state: dict[str, NodeState], data, order=None
) -> dict[str, NodeState]:
    """One full sweep with rho = 1, each node seeing the freshest expectations."""
    order = order or model.sweep_order or (model.local_ids + model.global_ids)
    return _sweep(model, state, data, [(nid, 1.0) for nid in order])


def svi_step(
    model: ModelSpec, state: dict[str, NodeState], data, i: str, rho_t: float
) -> dict[str, NodeState]:
    """Full step on local node i, then a damped step on the single global node."""
    globals_ = model.global_ids
    if len(globals_) != 1:
        raise ConfigurationError(f"SVI requires exactly one global node, model has {len(globals_)}")
    if i not in model.local_ids:
        raise ConfigurationError(f"SVI local update target {i!r} is not a local node")
    return _sweep(model, state, data, [(i, 1.0), (globals_[0], rho_t)])


def _parallel_step(model: ModelSpec, state: dict[str, NodeState], data, rho: float):
    """Every node steps toward its target on the pre-iteration snapshot."""
    return _sweep(model, state, data, [(nid, rho) for nid in state], frozen=True)


# --------------------------------------------------------------------------
# diagnostics and the outer loop
# --------------------------------------------------------------------------


def elbo(model: ModelSpec, state: dict[str, NodeState], data) -> float:
    """Expected log-joint plus entropies; delta-flagged nodes contribute no entropy."""
    snap = mu_snapshot(state)
    total = model.provider.expected_log_joint(snap, data)
    for node in state.values():
        if not node.delta_mode:
            total += expfam.entropy(node.lam)
    return total


def fixed_point_residual(model: ModelSpec, state: dict[str, NodeState], data) -> float:
    """Max over nodes of the infinity-norm gap between lambda and its coefficient."""
    snap = mu_snapshot(state)
    worst = 0.0
    for nid, node in state.items():
        gap = np.abs(node.lam.values - _target(model, nid, snap, data))
        worst = max(worst, float(np.max(gap)))
    return worst


def fit(
    model: ModelSpec,
    data,
    schedule: Schedule | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> FitTrace:
    """Iterate the chosen schedule until the fixed-point residual drops below tol.

    Non-convergence at max_iter is reported through FitTrace.converged, not
    raised.
    """
    schedule = schedule or Schedule()
    if tol <= 0.0:
        raise ConfigurationError("tol must be positive")
    if max_iter < 0:
        raise ConfigurationError("max_iter must be nonnegative")
    state = {n.id: n for n in model.nodes}
    rng = np.random.default_rng(schedule.seed)
    start = time.perf_counter()
    trace = FitTrace()

    def record(it: int) -> float:
        res = fixed_point_residual(model, state, data)
        trace.records.append(
            TraceRecord(it, elbo(model, state, data), res, time.perf_counter() - start)
        )
        return res

    residual = record(0)
    for t in range(1, max_iter + 1):
        if residual < tol:
            break
        if schedule.kind == CAVI:
            cavi_sweep(model, state, data)
        elif schedule.kind == SVI:
            i = model.local_ids[int(rng.integers(len(model.local_ids)))]
            svi_step(model, state, data, i, schedule.global_rate(t - 1))
        else:
            _parallel_step(model, state, data, schedule.rho_local)
        residual = record(t)
    trace.converged = residual < tol
    trace.state = state
    return trace
