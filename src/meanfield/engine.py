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

State is held in plates.  A plate is a group of node ids of one family,
role and delta mode whose rows do not read each other's expectations, so
one block step of the whole plate gives the same values as stepping its
nodes one after another.  Its lam and mu are (G, flat) arrays; a single
global node is a plate with G = 1.  The provider declares the plates and
reads every coefficient off per plate, as a (G, flat) array, so a sweep
does a fixed amount of Python work per plate whatever the number of data.

The per-node view stays: ``ModelSpec`` takes one ``NodeState`` per id and
groups them, ``FitTrace.state`` maps every id to its ``NodeState``, and
the diagnostics and sweeps accept a per-id state as well as a plate state.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from . import expfam
from .expfam import DomainError, ExpectationParam, NaturalParam, NumericalError, nat_to_mean

__all__ = [
    "CAVI",
    "SVI",
    "PARALLEL_BLR",
    "ConfigurationError",
    "NodeState",
    "Plate",
    "Schedule",
    "CoefficientProvider",
    "ModelSpec",
    "FitTrace",
    "TraceRecord",
    "delta_moment",
    "mu_snapshot",
    "to_plates",
    "to_nodes",
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


class _Factor:
    """What a node and a plate share: a (lam, mu) pair, a role and a delta mode."""

    __slots__ = ()

    def __post_init__(self):
        if self.role not in (LOCAL, GLOBAL):
            raise ConfigurationError(f"node role must be 'local' or 'global', got {self.role!r}")
        if self.delta_mode and self.lam.family.kind != expfam.GAUSSIAN:
            raise ConfigurationError("delta_mode is only supported on Gaussian nodes")

    def with_lambda(self, lam: NaturalParam):
        return replace(self, lam=lam, mu=nat_to_mean(lam))

    @property
    def family(self):
        return self.lam.family


@dataclass(frozen=True, slots=True)
class NodeState(_Factor):
    """One latent node: family, current lambda, cached mu."""

    id: str
    lam: NaturalParam
    mu: ExpectationParam
    role: str = LOCAL
    delta_mode: bool = False

    @staticmethod
    def make(node_id: str, lam: NaturalParam, role: str = LOCAL, delta_mode: bool = False):
        return NodeState(node_id, lam, nat_to_mean(lam), role, delta_mode)

    @property
    def ids(self) -> tuple[str]:
        return (self.id,)


@dataclass(frozen=True, slots=True)
class Plate(_Factor):
    """Nodes of one family, role and delta mode, held as (G, flat) lam and mu rows."""

    ids: tuple[str, ...]
    lam: NaturalParam
    mu: ExpectationParam
    role: str = LOCAL
    delta_mode: bool = False

    @staticmethod
    def make(ids, lam: NaturalParam, role: str = LOCAL, delta_mode: bool = False):
        """A plate from row-stacked natural parameters, one row per id."""
        return Plate(tuple(ids), lam, nat_to_mean(lam), role, delta_mode)

    def nodes(self) -> list[NodeState]:
        """One NodeState per row, viewing the plate's arrays."""
        lams, mus = expfam.split_rows(self.lam), expfam.split_rows(self.mu)
        return [
            NodeState(nid, lam, mu, self.role, self.delta_mode)
            for nid, lam, mu in zip(self.ids, lams, mus)
        ]


class CoefficientProvider(ABC):
    """Per-model read-off of the vector multiplying each node's expectations.

    ``plates`` maps each plate name to its node ids in row order.  Snapshots
    map plate names to (G, flat) expectation arrays.
    """

    plates: dict[str, tuple[str, ...]]

    @abstractmethod
    def coefficient(self, plate: str, mus: dict[str, np.ndarray], data) -> np.ndarray:
        """Gradient of the expected log-joint w.r.t. each row's expectations, shape (G, flat)."""

    @abstractmethod
    def expected_log_joint(self, mus: dict[str, np.ndarray], data) -> float:
        """E_q[log p(y, z)] including all additive constants."""

    def base_measure_grad(self, plate: str):
        """Gradient of E_q[log h] for plates with a nonconstant base measure."""
        return None

    @property
    def conjugate_plates(self) -> tuple[str, ...]:
        """Plates whose coefficient must not depend on their own expectations."""
        return ()


def _group(layout: dict[str, tuple[str, ...]], nodes: dict[str, NodeState]) -> dict[str, Plate]:
    """Stack per-id nodes into the plates of a layout; plates with no node present are left out."""
    plates = {}
    for name, ids in layout.items():
        present = [nid in nodes for nid in ids]
        if not any(present):
            continue
        if not all(present):
            missing = ids[present.index(False)]
            raise ConfigurationError(f"plate {name!r} is missing node {missing!r}")
        rows = [nodes[nid] for nid in ids]
        first = rows[0]
        for node in rows:
            if (node.family, node.role, node.delta_mode) != (first.family, first.role, first.delta_mode):
                raise ConfigurationError(
                    f"node {node.id!r} differs from {first.id!r} in family, role or delta mode"
                )
        lam = NaturalParam(first.family, np.stack([n.lam.values for n in rows]))
        mu = ExpectationParam(first.family, np.stack([n.mu.values for n in rows]))
        plates[name] = Plate(tuple(ids), lam, mu, first.role, first.delta_mode)
    return plates


@dataclass(frozen=True)
class ModelSpec:
    """Initial node states plus the coefficient provider driving them.

    The nodes are grouped once into the provider's plates.  ``sweep_order``
    overrides the default locals-then-globals order of the CAVI sweep; each
    entry names a plate (all of its rows step at once) or a node id (its row
    steps alone), and together they must name every node exactly once.
    """

    nodes: tuple[NodeState, ...]
    provider: CoefficientProvider
    sweep_order: tuple[str, ...] | None = None
    plates: dict[str, Plate] = field(init=False, repr=False, compare=False)
    local_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    global_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    row_of: dict[str, tuple[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ConfigurationError("duplicate node ids in model")
        plates = _group(self.provider.plates, by_id)
        row_of = {nid: (name, r) for name, p in plates.items() for r, nid in enumerate(p.ids)}
        if len(row_of) != len(self.nodes):
            stray = next(nid for nid in by_id if nid not in row_of)
            raise ConfigurationError(f"node {stray!r} is in none of the provider's plates")
        if self.sweep_order is not None:
            named = [nid for key in self.sweep_order for nid in (plates[key].ids if key in plates else (key,))]
            if sorted(named) != sorted(row_of):
                raise ConfigurationError("sweep_order must name every node once, by plate or by node id")
        object.__setattr__(self, "plates", plates)
        object.__setattr__(self, "row_of", row_of)
        for role, attr in ((LOCAL, "local_ids"), (GLOBAL, "global_ids")):
            ids = tuple(nid for p in plates.values() if p.role == role for nid in p.ids)
            object.__setattr__(self, attr, ids)

    def default_order(self) -> tuple[str, ...]:
        """Local plates, then global plates."""
        return tuple(sorted(self.plates, key=lambda name: self.plates[name].role != LOCAL))


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
# node- and plate-level operations
# --------------------------------------------------------------------------


def to_plates(model: ModelSpec, state: dict) -> dict[str, Plate]:
    """The plate state of a per-id state (one NodeState per id); a plate state is returned as is."""
    if all(isinstance(v, Plate) for v in state.values()):
        return state
    return _group({name: p.ids for name, p in model.plates.items()}, state)


def to_nodes(state: dict[str, Plate]) -> dict[str, NodeState]:
    """The per-id view of a plate state, in plate and row order."""
    return {node.id: node for plate in state.values() for node in plate.nodes()}


def delta_moment(node):
    """Point-mass expectations (m, m m^T) of a delta-flagged Gaussian node or plate, per row."""
    if node.family.kind != expfam.GAUSSIAN:
        raise DomainError("delta_moment requires a Gaussian node")
    if not node.delta_mode:
        raise DomainError(f"node {node.ids[0]!r} is not delta-flagged")
    m, _ = expfam.gaussian_mean_precision(node.lam)
    outer = (m[..., :, None] * m[..., None, :]).reshape(m.shape[:-1] + (-1,))
    return ExpectationParam(node.family, np.concatenate([m, outer], axis=-1))


def _moments(node) -> np.ndarray:
    """The expectations other nodes see: delta-substituted where flagged."""
    return (delta_moment(node) if node.delta_mode else node.mu).values


def mu_snapshot(state: dict) -> dict[str, np.ndarray]:
    """Expectation arrays per plate (or per node id), delta-substituted where flagged."""
    return {key: _moments(n) for key, n in state.items()}


def blr_step(node, g: np.ndarray, rho, base_grad=None):
    """One damped natural-parameter step of a node or plate toward the coefficient.

    ``rho`` is one rate, or one rate per row of a plate.
    """
    rate = np.asarray(rho, dtype=float)
    if not np.all((0.0 < rate) & (rate <= 1.0)):
        raise ConfigurationError(f"rho must lie in (0, 1], got {rho}")
    target = np.asarray(g, dtype=float)
    if base_grad is not None:
        target = target - np.asarray(base_grad, dtype=float)
    if rate.ndim:
        rate = rate[:, None]
    new_values = (1.0 - rate) * node.lam.values + rate * target
    return node.with_lambda(NaturalParam(node.family, new_values))


def _target(model: ModelSpec, plate: str, snap: dict[str, np.ndarray], data) -> np.ndarray:
    """Where a full step lands each row of a plate: its coefficient minus the base-measure gradient."""
    target = np.asarray(model.provider.coefficient(plate, snap, data), dtype=float)
    base = model.provider.base_measure_grad(plate)
    return target if base is None else target - np.asarray(base, dtype=float)


def _step_with_backoff(node, target: np.ndarray, rho: float, rows=None):
    """Damped step of the given rows of a node or plate (all rows by default).

    A non-finite target is a NumericalError.  A row whose step leaves the
    parameter domain retries at half its rate, the other rows keep theirs.
    """
    lam = node.lam.values
    goal = np.array(target, dtype=float).reshape(-1, lam.shape[-1])
    rates = np.full(goal.shape[0], float(rho))
    if rows is not None:
        # a rate-1 step onto its own lambda leaves a row exactly as it is
        keep = np.ones(len(rates), dtype=bool)
        keep[rows] = False
        goal[keep] = lam.reshape(goal.shape)[keep]
        rates[keep] = 1.0
    finite = np.isfinite(goal).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise NumericalError(f"update target of node {node.ids[r]!r} is not finite: {goal[r]}")
    goal = goal.reshape(lam.shape)
    for _ in range(_MAX_RATE_HALVINGS):
        try:
            return blr_step(node, goal, rates if lam.ndim == 2 else rates[0])
        except DomainError as exc:
            failed = exc.rows if exc.rows is not None else np.arange(len(rates))
            rates[failed] *= 0.5
    raise DomainError(
        f"update of node {node.ids[int(failed[0])]!r} left the parameter domain even after "
        f"{_MAX_RATE_HALVINGS} rate halvings"
    )


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------


def _runs(model: ModelSpec, plates: dict, steps):
    """(plate, rows, rate) per step; consecutive node ids of one plate at one rate merge into one step.

    Rows of a plate do not read each other, so stepping a run of them at once
    gives the values of stepping them one after another.  A run takes rows in
    increasing order only, so a repeated row still steps twice.
    """
    out = []
    for key, rho in steps:
        if key in plates:
            out.append((key, None, rho))
            continue
        name, row = model.row_of[key]
        last = out[-1] if out else None
        if last and last[0] == name and last[1] and last[1][-1] < row and last[2] == rho:
            last[1].append(row)
        else:
            out.append((name, [row], rho))
    return out


def _sweep(model: ModelSpec, state: dict, data, steps, frozen: bool = False):
    """Damped steps, one per (plate or node id, rate) in order: the single update path.

    A plate name steps all of its rows; a node id steps its row alone.  Each
    target reads the expectation snapshot, which is refreshed after every
    step unless ``frozen`` holds it at its pre-sweep value.  A per-id state
    is grouped first and its moved nodes are written back.
    """
    plates = to_plates(model, state)
    snap = mu_snapshot(plates)
    for name, rows, rho in _runs(model, plates, steps):
        target = _target(model, name, snap, data)
        plates[name] = _step_with_backoff(plates[name], target, rho, rows)
        if not frozen:
            snap[name] = _moments(plates[name])
    if plates is not state:
        state.update(to_nodes(plates))
    return state


def cavi_sweep(model: ModelSpec, state: dict, data, order=None) -> dict:
    """One full sweep with rho = 1, each plate seeing the freshest expectations."""
    order = order or model.sweep_order or model.default_order()
    return _sweep(model, state, data, [(key, 1.0) for key in order])


def svi_step(model: ModelSpec, state: dict, data, i: str, rho_t: float) -> dict:
    """Full step on local node i (its row alone), then a damped step on the single global node."""
    globals_ = model.global_ids
    if len(globals_) != 1:
        raise ConfigurationError(f"SVI requires exactly one global node, model has {len(globals_)}")
    if i not in model.row_of or model.plates[model.row_of[i][0]].role != LOCAL:
        raise ConfigurationError(f"SVI local update target {i!r} is not a local node")
    return _sweep(model, state, data, [(i, 1.0), (model.row_of[globals_[0]][0], rho_t)])


def _parallel_step(model: ModelSpec, state: dict, data, rho: float):
    """Every plate steps toward its target on the pre-iteration snapshot."""
    return _sweep(model, state, data, [(name, rho) for name in model.plates], frozen=True)


# --------------------------------------------------------------------------
# diagnostics and the outer loop
# --------------------------------------------------------------------------


def elbo(model: ModelSpec, state: dict, data) -> float:
    """Expected log-joint plus entropies; delta-flagged nodes contribute no entropy."""
    plates = to_plates(model, state)
    total = model.provider.expected_log_joint(mu_snapshot(plates), data)
    for plate in plates.values():
        if not plate.delta_mode:
            total += float(np.sum(expfam.entropy(plate.lam, plate.mu)))
    return total


def fixed_point_residual(model: ModelSpec, state: dict, data) -> float:
    """Max over nodes of the infinity-norm gap between lambda and its coefficient."""
    plates = to_plates(model, state)
    snap = mu_snapshot(plates)
    worst = 0.0
    for name, plate in plates.items():
        gap = np.abs(plate.lam.values - _target(model, name, snap, data))
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
    raised.  The per-id ``FitTrace.state`` is built once, after the last
    record.
    """
    schedule = schedule or Schedule()
    if tol <= 0.0:
        raise ConfigurationError("tol must be positive")
    if max_iter < 0:
        raise ConfigurationError("max_iter must be nonnegative")
    state = dict(model.plates)
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
    trace.state = to_nodes(state)
    return trace
