"""Fixed-point update engine.

Each latent node keeps a natural-parameter / expectation-parameter pair.
A model supplies a coefficient provider that, given a snapshot of all
expectation parameters, returns the vector multiplying each node's
expectations inside the expected log-joint.  The damped update

    lam_i <- (1 - rho_i) lam_i + rho_i * g_i,  g_i = coefficient_i - grad_mu E_q[log h_i],

drives every node toward the stationary point where lam_i equals g_i; the
base measure h_i is the node's family's (``expfam.base_measure_grad``).
rho = 1 coordinate-wise gives CAVI/VMP; a decaying global rate gives SVI;
rho < 1 on a frozen snapshot gives the parallel damped scheme.

State is held in plates.  A plate is a group of node ids of one family,
role and delta mode whose rows do not read each other's expectations, so
one block step of the whole plate gives the same values as stepping its
nodes one after another.  Its lam and mu are (G, flat) arrays; a single
global node is a plate with G = 1.  The provider declares the plates and
reads every coefficient off per plate, so a sweep does a fixed amount of
Python work per plate whatever the number of data.

A fit's state is one ``Snapshot``, which a provider reads: per plate, the
plate, its lambda and the expectations the others see, set together after
each step.  A snapshot holds plates only: its one setter, ``Snapshot.put``,
rejects anything else, so a sweep checks no more than that the model's
plate names are there, and the ELBO and residual read the model's plates,
not every entry.  A non-conjugate term reads its natural gradient off the
lambda directly, as in conjugate-computation VI, not off mu solved back to
lambda.

``fit`` passes its one snapshot to every sweep, fixed-point residual and
ELBO, which read and update it in place.  Given a plate dict, they build a
snapshot of it and run the same code, and a sweep writes its steps back
into the dict.  The snapshot's one memo, ``Snapshot.read_off``, records
the entries a read-off touches and holds its value until one of them is
put, which drops it: nothing is declared.  A plate's coefficient is such a
value, as are the read-offs it shares with the ELBO and the values read
off the data alone.
As in variational message passing, a coefficient is read off again only
once a plate in its Markov blanket has moved: the residual's target serves
the first step of the next CAVI sweep and every step of a parallel one,
and a plate that does not read itself keeps its target through its own
step, so the last step's target serves the residual.
``checks.suite_multilinearity`` tests that moving an entry outside a
plate's recorded reads leaves its coefficient bitwise unchanged.

Plates are the only state from build to result: the builders hand their
plates to ``ModelSpec``, orders name plates, the SVI local step is one row
of the local plate, and ``fit`` hands its final plates back as
``FitTrace.plates``.  Per-id access (``ModelSpec.nodes``, ``FitTrace.state``)
is a ``NodeView``: a read-only lookup from id to (plate, row) that copies
and validates nothing.  It is no state for a snapshot, whose ``put``
refuses its nodes; the diagnostics take it by reading its plates.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from abc import ABC, abstractmethod
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import expfam
from .expfam import DomainError, ExpectationParam, NaturalParam, NumericalError, nat_to_mean

__all__ = [
    "CAVI",
    "SVI",
    "PARALLEL_BLR",
    "ConfigurationError",
    "NodeState",
    "NodeView",
    "Plate",
    "Schedule",
    "CoefficientProvider",
    "ModelSpec",
    "Snapshot",
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


class _Factor(expfam._Frozen):
    """What a node and a plate share: a (lam, mu) pair, a role and a delta mode.

    Each checks its role and delta mode in its own constructor, so that the
    plate a damped step builds costs no call beyond that constructor and the
    ``nat_to_mean`` it derives mu with.
    """

    @property
    def family(self):
        return self.lam.family


class NodeState(_Factor):
    """One latent node: family, current lambda, cached mu."""

    def __init__(self, id: str, lam: NaturalParam, mu: ExpectationParam, role: str = LOCAL, delta_mode: bool = False):
        if role not in (LOCAL, GLOBAL):
            raise ConfigurationError(f"node role must be 'local' or 'global', got {role!r}")
        if delta_mode and lam.family.kind != expfam.GAUSSIAN:
            raise ConfigurationError("delta_mode is only supported on Gaussian nodes")
        vars(self).update(id=id, lam=lam, mu=mu, role=role, delta_mode=delta_mode)

    @staticmethod
    def make(node_id: str, lam: NaturalParam, role: str = LOCAL, delta_mode: bool = False):
        return NodeState(node_id, lam, nat_to_mean(lam), role, delta_mode)

    @property
    def ids(self) -> tuple[str]:
        return (self.id,)


class Plate(_Factor):
    """Nodes of one family, role and delta mode, held as (G, flat) lam and mu rows.

    ``lam`` holds one row per id, and ``mu`` is derived from it, so a plate's
    expectations are always its own lambda's.  A lambda that is not 2-D, or
    whose row count is not the number of ids, is a ConfigurationError.
    """

    def __init__(self, ids, lam: NaturalParam, role: str = LOCAL, delta_mode: bool = False):
        ids = tuple(ids)
        if role not in (LOCAL, GLOBAL):
            raise ConfigurationError(f"node role must be 'local' or 'global', got {role!r}")
        if delta_mode and lam.family.kind != expfam.GAUSSIAN:
            raise ConfigurationError("delta_mode is only supported on Gaussian nodes")
        if lam.values.ndim != 2 or len(lam.values) != len(ids):
            raise ConfigurationError(
                f"a plate needs a 2-D lambda with one row per id: "
                f"{len(ids)} ids, {len(lam.values)} rows, shape {lam.values.shape}"
            )
        vars(self).update(ids=ids, lam=lam, mu=nat_to_mean(lam), role=role, delta_mode=delta_mode)


class NodeView(Mapping):
    """Read-only per-id view of a plate state: id -> one-row NodeState, in plate then row order.

    A lookup views its plate's row; nothing is copied or validated, and the
    length is counted off the plates without making any node.
    """

    def __init__(self, plates: dict[str, Plate]):
        self.plates = plates
        self._where = None  # id -> (plate name, row), built on the first lookup

    def __getitem__(self, node_id: str) -> NodeState:
        if self._where is None:
            self._where = {nid: (name, r) for name, p in self.plates.items() for r, nid in enumerate(p.ids)}
        name, r = self._where[node_id]
        p = self.plates[name]
        return NodeState(node_id, expfam.row_view(p.lam, r), expfam.row_view(p.mu, r), p.role, p.delta_mode)

    def __iter__(self):
        return (nid for p in self.plates.values() for nid in p.ids)

    def __len__(self) -> int:
        return sum(len(p.ids) for p in self.plates.values())


class Snapshot:
    """The state of a fit: each plate, the expectations it shows the others, and what is read off them.

    A snapshot is indexed by plate name: ``snap[name]`` is plate ``name``'s
    (G, flat) expectation array, delta-substituted where flagged.
    ``snap.lam(name)`` is the plate's row-stacked
    NaturalParam, and ``snap.plates`` a read-only view of the plates
    themselves.  ``put`` is the only setter: it sets a plate, its lambda and
    its expectations together, so no expectation is paired with a stale
    lambda, and drops every memoised value that read the entry; it admits
    nothing but a plate.
    ``read_off`` is the one memo: it holds a value until an entry it read
    through ``snap[...]`` or ``snap.lam(...)`` is put.  ``coefficient`` is a
    plate's coefficient memoised by it, and ``reads`` the entries that
    read; a read through ``snap.plates`` is not recorded.
    """

    __slots__ = ("_plates", "plates", "_mus", "_read", "_memo")

    def __init__(self):
        self._plates: dict[str, Plate] = {}
        self.plates = MappingProxyType(self._plates)  # what the entries were set from, read-only
        self._mus: dict[str, np.ndarray] = {}
        self._read: set[str] = set()  # entries read by the read-off under way
        self._memo: dict = {}  # slot -> (owner, data, entries read, value); see read_off

    def __getitem__(self, name: str) -> np.ndarray:
        mu = self._mus[name]
        self._read.add(name)
        return mu

    def lam(self, name: str) -> NaturalParam:
        """The natural parameters of plate ``name``, one row per node."""
        lam = self._plates[name].lam
        self._read.add(name)
        return lam

    def put(self, name: str, plate: Plate) -> None:
        """Set the entry of ``name`` from a plate, and drop every memoised value that read it.

        Anything but a ``Plate`` (a per-id ``NodeState``, say) is a
        ConfigurationError naming ``name``.  The expectations set are
        delta-substituted where the plate is flagged.
        """
        if not isinstance(plate, Plate):
            raise ConfigurationError(f"state entry {name!r} is not a Plate: pass dict(model.plates) or trace.plates")
        self._plates[name] = plate
        self._mus[name] = (delta_moment(plate) if plate.delta_mode else plate.mu).values
        self._memo = {slot: held for slot, held in self._memo.items() if name not in held[2]}

    def read_off(self, slot, owner, data, fn, *args):
        """``fn(*args)``, held in ``slot`` until ``owner`` or ``data`` is another object or an entry it read is put.

        Only reads through ``snap[...]`` and ``snap.lam(...)`` count, and
        they count toward any read-off under way too, whether this one hits
        or misses.  A value that reads no entry holds for as long as the same
        owner and data ask for it.  A provider names its own slots apart
        from its plates, whose slots hold the coefficients.
        """
        held = self._memo.get(slot)
        if held is not None and held[0] is owner and held[1] is data:
            self._read.update(held[2])
            return held[3]
        outer, self._read = self._read, set()
        try:
            value = fn(*args)
        finally:
            reads, self._read = self._read, outer
        outer.update(reads)
        self._memo[slot] = (owner, data, reads, value)
        return value

    def coefficient(self, provider, plate: str, data) -> np.ndarray:
        """``provider.coefficient(plate, self, data)``, read-only, memoised by ``read_off`` in slot ``plate``."""
        return self.read_off(plate, provider, data, _read_only_coefficient, provider, plate, self, data)

    def reads(self, plate: str) -> frozenset[str]:
        """The entries the memoised coefficient of ``plate`` read: its Markov blanket as observed.

        Only a held coefficient has reads: once a put of an entry it read
        drops it, this is a KeyError until the coefficient is read off again.
        """
        return frozenset(self._memo[plate][2])


def _read_only_coefficient(provider, plate: str, snap: Snapshot, data) -> np.ndarray:
    """A view of the provider's coefficient as floats that cannot be written through.

    A coefficient whose shape is not its plate's lambda's is a ConfigurationError naming the plate.
    """
    value = np.asarray(provider.coefficient(plate, snap, data), dtype=float).view()
    shape = snap._plates[plate].lam.values.shape
    if value.shape != shape:
        raise ConfigurationError(f"coefficient of plate {plate!r} has shape {value.shape}, not its lambda's {shape}")
    value.flags.writeable = False
    return value


class CoefficientProvider(ABC):
    """Per-model read-off of the vector multiplying each node's expectations.

    ``plates`` maps each plate name to its node ids in row order.  A snapshot
    is indexed by plate name (see ``Snapshot``).  The base measure is the
    plate's family's, which the engine subtracts (see ``_target``).
    """

    plates: dict[str, tuple[str, ...]]

    @abstractmethod
    def coefficient(self, plate: str, mus: Snapshot, data) -> np.ndarray:
        """Gradient of the expected log-joint w.r.t. each row's expectations, shape (G, flat)."""

    @abstractmethod
    def expected_log_joint(self, mus: Snapshot, data) -> float:
        """E_q[log p(y, z)] including all additive constants."""


def _group(layout: dict[str, tuple[str, ...]], factors) -> dict[str, Plate]:
    """Stack factors, whole plates or one-row nodes, into the plates of a layout.

    A plate factor holding exactly a layout plate's ids, in order, is taken
    as it is; any other layout plate stacks its rows' lambdas into a new
    plate.  Every plate of the layout must be whole, and every factor's ids
    must lie in it.  Where the factors are the layout's plates, one per entry
    and in its order, no id-to-row map is built: only the layout's ids are
    checked for repeats.
    """
    if len(factors) == len(layout) and all(
        isinstance(f, Plate) and f.ids == ids for f, ids in zip(factors, layout.values())
    ):
        if len(set(itertools.chain.from_iterable(layout.values()))) != sum(map(len, layout.values())):
            raise ConfigurationError("duplicate node ids in model")
        return dict(zip(layout, factors))
    where = {nid: (f, r) for f in factors for r, nid in enumerate(f.ids)}
    if len(where) != sum(len(f.ids) for f in factors):
        raise ConfigurationError("duplicate node ids in model")
    plates = {}
    for name, ids in layout.items():
        rows = [where[nid] for nid in ids if nid in where]
        if len(rows) != len(ids):
            missing = next(nid for nid in ids if nid not in where)
            raise ConfigurationError(f"plate {name!r} is missing node {missing!r}")
        first = rows[0][0]
        if isinstance(first, Plate) and first.ids == ids:
            plates[name] = first
            continue
        for nid, (f, _) in zip(ids, rows):
            if (f.family, f.role, f.delta_mode) != (first.family, first.role, first.delta_mode):
                raise ConfigurationError(f"node {nid!r} differs from {ids[0]!r} in family, role or delta mode")
        lam = NaturalParam(first.family, np.stack([f.lam.values.reshape(len(f.ids), -1)[r] for f, r in rows]))
        plates[name] = Plate(ids, lam, first.role, first.delta_mode)
    if sum(len(p.ids) for p in plates.values()) != len(where):
        placed = {nid for ids in layout.values() for nid in ids}
        stray = next(nid for nid in where if nid not in placed)
        raise ConfigurationError(f"node {stray!r} is in none of the provider's plates")
    return plates


class ModelSpec(expfam._Frozen):
    """The provider's plates, grouped once from the initial factors, plus the provider driving them.

    A factor is a whole ``Plate`` (what the builders pass) or a one-row
    ``NodeState``.  The factors are not kept: the plates they are grouped
    into are the model's working state, and ``nodes`` is a read-only per-id
    view of them.  ``sweep_order`` overrides the default locals-then-globals
    order of the CAVI sweep; it must name every plate exactly once.
    """

    def __init__(self, factors, provider: CoefficientProvider, sweep_order: tuple[str, ...] | None = None):
        plates = _group(provider.plates, tuple(factors))
        if sweep_order is not None and sorted(sweep_order) != sorted(plates):
            raise ConfigurationError(
                f"sweep_order must name every plate once ({', '.join(plates)}), got {sweep_order}"
            )
        vars(self).update(provider=provider, sweep_order=sweep_order, plates=plates)

    @property
    def nodes(self):
        """The initial state per id: one NodeState per row, in plate then row order."""
        return NodeView(self.plates).values()

    @functools.cached_property
    def _svi_plates(self) -> tuple[str, str]:
        """The names of the one local plate and the one single-node global plate SVI steps, found once."""
        local = [name for name, p in self.plates.items() if p.role == LOCAL]
        global_ = [name for name, p in self.plates.items() if p.role == GLOBAL]
        if len(local) != 1 or len(global_) != 1 or len(self.plates[global_[0]].ids) != 1:
            raise ConfigurationError(
                f"SVI requires one local plate and one single-node global plate, got {local} and {global_}"
            )
        return local[0], global_[0]


def _require_count(name: str, value) -> None:
    """Reject a value that is not a nonnegative Python or numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigurationError(f"{name} must be a nonnegative integer, got {value!r}")


def _require_number(name: str, value) -> None:
    """Reject a value that is not a Python or numpy real number (a bool is not one); NaN passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")


def _require_tol(tol) -> None:
    """Reject a tol that is not a finite positive number; a NaN is named as not positive, as one not above 0 is."""
    _require_number("tol", tol)
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tol must be positive{' and finite' if tol > 0.0 else ''}, got {tol}")


class Schedule(expfam._Frozen):
    """Update schedule: CAVI, SVI, or parallel damped steps.

    Only the parallel schedule reads ``rho``, the damping of its steps.  The
    SVI global rate follows rho_t = (t + tau)^(-kappa) with t counted from
    zero, so SVI needs tau >= 1.
    """

    def __init__(self, kind: str = CAVI, rho: float = 0.5, kappa: float = 0.7, tau: float = 1.0, seed: int = 0):
        if kind not in (CAVI, SVI, PARALLEL_BLR):
            raise ConfigurationError(f"unknown schedule kind {kind!r}")
        for name, value in (("rho", rho), ("kappa", kappa), ("tau", tau)):
            _require_number(name, value)
        if not 0.0 < rho <= 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1], got {rho:g}")
        if not 0.5 < kappa <= 1.0:
            raise ConfigurationError(f"kappa must lie in (0.5, 1], got {kappa}")
        least = 1.0 if kind == SVI else 0.0  # the first SVI rate, tau^-kappa, must not exceed 1
        if not least <= tau < float("inf"):
            raise ConfigurationError(f"tau must be finite and at least {least:g}, got {tau:g}")
        _require_count("seed", seed)
        vars(self).update(kind=kind, rho=rho, kappa=kappa, tau=tau, seed=seed)

    def global_rate(self, t: int) -> float:
        return float((t + self.tau) ** (-self.kappa))


class TraceRecord(expfam._Frozen):
    """One iteration of a fit: its ELBO and fixed-point residual, and the wall time since the fit began."""

    def __init__(self, iteration: int, elbo: float, residual: float, wall_time: float):
        vars(self).update(iteration=iteration, elbo=elbo, residual=residual, wall_time=wall_time)


class FitTrace:
    """The per-iteration records and the final plate state of a fit."""

    def __init__(
        self, records: list[TraceRecord] | None = None, converged: bool = False, plates: dict[str, Plate] | None = None
    ):
        self.records = [] if records is None else records
        self.converged = converged
        self.plates = {} if plates is None else plates

    @functools.cached_property
    def state(self) -> NodeView:
        """Read-only per-id view of the final plates."""
        return NodeView(self.plates)

    @property
    def elbos(self) -> np.ndarray:
        return np.array([r.elbo for r in self.records])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])


# --------------------------------------------------------------------------
# node- and plate-level operations
# --------------------------------------------------------------------------


def delta_moment(plate):
    """Point-mass expectations (m, m m^T) of a delta-flagged Gaussian plate, per row."""
    if plate.family.kind != expfam.GAUSSIAN:
        raise DomainError("delta_moment requires a Gaussian node")
    if not plate.delta_mode:
        raise DomainError(f"node {plate.ids[0]!r} is not delta-flagged")
    m = plate.mu.values[..., : plate.family.dim]  # off the plate's mu
    return expfam._derived_mean(plate.family, expfam._Gaussian.moments(plate.family, m))


def mu_snapshot(state: Mapping) -> Snapshot:
    """A new snapshot of the given plates: each one's expectations, delta-substituted where flagged, and lambda.

    An entry that is not a ``Plate`` is a ConfigurationError naming its key (see ``Snapshot.put``).
    """
    snap = Snapshot()
    for name, factor in state.items():
        snap.put(name, factor)
    return snap


def blr_step(plate, target: np.ndarray, rho):
    """One damped natural-parameter step of a plate toward its target.

    ``rho`` is one rate, or one rate per row of the plate; the two give
    bitwise the same step where every row has the same rate.
    """
    if isinstance(rho, (int, float)):
        rate = float(rho)
        valid = 0.0 < rate <= 1.0
    else:
        rate = np.asarray(rho, dtype=float)
        valid = bool(np.all((0.0 < rate) & (rate <= 1.0)))
        if rate.ndim:
            rate = rate[:, None]
    if not valid:
        raise ConfigurationError(f"rho must lie in (0, 1], got {rho}")
    new_values = (1.0 - rate) * plate.lam.values + rate * np.asarray(target, dtype=float)
    return Plate(plate.ids, NaturalParam(plate.lam.family, new_values), plate.role, plate.delta_mode)


def _target(model: ModelSpec, plate: str, snap: Snapshot, data) -> np.ndarray:
    """Where a full step lands each row of a plate: lambda = coefficient - grad_mu E_q[log h].

    The coefficient is the snapshot's memoised, read-only read-off (see
    ``Snapshot.coefficient``), and h the plate's family's base measure.
    """
    coefficient = snap.coefficient(model.provider, plate, data)
    base = expfam.base_measure_grad(snap.plates[plate].lam.family)
    return coefficient if base is None else coefficient - base


def _check_target(plate: Plate, goal: np.ndarray) -> None:
    """Raise NumericalError naming the first row of a plate's target that is not finite."""
    if not np.logical_and.reduce(np.isfinite(goal), axis=None):  # one pass; the row is located only on failure
        r = int(np.argmin(np.isfinite(goal).all(axis=1)))
        raise NumericalError(f"update target of node {plate.ids[r]!r} is not finite: {goal[r]}")


def _step_with_backoff(plate: Plate, target: np.ndarray, rho: float, rows=None):
    """Damped step of the given rows of a plate (all rows by default).

    A non-finite target is a NumericalError naming its first such row.  It
    is caught where it makes the new lambda non-finite, which ``NaturalParam``
    rejects with a DomainError: the handler checks the target before it
    halves any rate, so a finite target costs no pass of its own.  Every
    row steps at rate ``rho``, passed as one scalar; a row whose step leaves
    the parameter domain retries at half its rate, the other rows keep theirs.
    ``rows`` given, those rows alone step, at rate 1 whatever ``rho``, as
    ``svi_step`` steps its row: the other rows step onto their own lambda,
    which at rate 1 leaves them exactly as they are.
    """
    lam = plate.lam.values
    goal = np.asarray(target, dtype=float)
    rate = float(rho) if rows is None else 1.0
    if rows is not None:
        goal, spliced = lam.copy(), goal
        goal[rows] = spliced[rows]
    for _ in range(_MAX_RATE_HALVINGS):
        try:
            return blr_step(plate, goal, rate)
        except DomainError as exc:
            _check_target(plate, goal)
            rate = np.full(len(plate.ids), rate) if np.ndim(rate) == 0 else rate
            failed = exc.rows
            rate[failed] *= 0.5
            reason = exc
    raise DomainError(
        f"update of node {plate.ids[int(failed[0])]!r} left the parameter domain even after "
        f"{_MAX_RATE_HALVINGS} rate halvings: {reason}"
    )


# --------------------------------------------------------------------------
# schedules
# --------------------------------------------------------------------------


def _snapshot(model: ModelSpec, state) -> Snapshot:
    """``state`` itself if it is a snapshot, else a new one of a plate dict; either must name every plate.

    Only the names are checked: ``Snapshot.put`` admits nothing but a plate,
    so a snapshot holds plates only, and a new one of a dict that holds
    anything else is refused as it is built.  Entries beyond the model's
    plates may be there; the sweeps and diagnostics read only the model's.
    """
    plates = state.plates if isinstance(state, Snapshot) else state
    if not model.plates.keys() <= plates.keys():
        missing = next(name for name in model.plates if name not in plates)
        raise ConfigurationError(f"state has no plate {missing!r}: pass dict(model.plates) or trace.plates")
    return mu_snapshot(state) if plates is state else state


def _sweep(model: ModelSpec, state, data, steps, frozen: bool = False):
    """Damped steps of the plate state, one per (plate, rate, rows) in order: the single update path.

    ``rows`` None steps every row, a list those rows alone.  Each target reads
    the snapshot (``state`` itself, or a new one of a plate dict), whose
    entry of a plate is put after its step; ``frozen`` holds every entry at
    its pre-sweep value until the last step.  The state is updated in place.
    """
    snap = _snapshot(model, state)
    stepped = {}
    for name, rho, rows in steps:
        stepped[name] = _step_with_backoff(snap.plates[name], _target(model, name, snap, data), rho, rows)
        if not frozen:
            snap.put(name, stepped[name])
    if frozen:
        for name, plate in stepped.items():
            snap.put(name, plate)
    if state is not snap:
        state.update(stepped)
    return state


def cavi_sweep(model: ModelSpec, state, data, order=None):
    """One rho = 1 sweep over the named plates (default: the model's order), each seeing the freshest expectations."""
    if order is None:
        order = model.sweep_order or tuple(sorted(model.plates, key=lambda n: model.plates[n].role != LOCAL))
    unknown = [name for name in order if name not in model.plates]
    if unknown:
        raise ConfigurationError(f"sweep order names {unknown[0]!r}, which is not a plate of the model")
    return _sweep(model, state, data, [(name, 1.0, None) for name in order])


def svi_step(model: ModelSpec, state, data, row: int, rho_t: float):
    """Full (rate 1) step on one row of the local plate, then a damped step on the global node."""
    local, global_ = model._svi_plates
    if not 0 <= row < len(model.plates[local].ids):
        raise ConfigurationError(f"SVI row {row} is outside local plate {local!r}")
    return _sweep(model, state, data, [(local, 1.0, [row]), (global_, rho_t, None)])


def _parallel_step(model: ModelSpec, state, data, rho: float):
    """Every plate steps toward its target on the pre-iteration snapshot."""
    return _sweep(model, state, data, [(name, rho, None) for name in model.plates], frozen=True)


# --------------------------------------------------------------------------
# diagnostics and the outer loop
# --------------------------------------------------------------------------


def elbo(model: ModelSpec, state, data) -> float:
    """Expected log-joint plus entropies; delta-flagged nodes contribute no entropy.

    ``state`` is a plate dict, its NodeView or a snapshot.  The entropies are
    of the model's plates; any other entry of the state adds none.
    """
    snap = _snapshot(model, state.plates if isinstance(state, NodeView) else state)
    total = model.provider.expected_log_joint(snap, data)
    for plate in (snap.plates[name] for name in model.plates):
        if not plate.delta_mode:
            total += float(np.add.reduce(expfam.entropy(plate.lam, plate.mu), axis=None))
    return total


def fixed_point_residual(model: ModelSpec, state, data) -> float:
    """Max over nodes of the infinity-norm gap between lambda and its coefficient.

    ``state`` is a plate dict, its NodeView or a snapshot, of which only the
    model's plates are read.  A non-finite coefficient is a NumericalError
    naming its node, as in a step.
    """
    snap = _snapshot(model, state.plates if isinstance(state, NodeView) else state)
    worst = 0.0
    for name in model.plates:
        plate = snap.plates[name]
        target = _target(model, name, snap, data)
        gap = float(np.maximum.reduce(np.abs(plate.lam.values - target), axis=None))
        if not math.isfinite(gap):  # a finite lambda: the target is the cause, unless the gap overflowed
            _check_target(plate, target)
        worst = max(worst, gap)
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
    raised.  The fit's state is one snapshot of the model's plates, which
    every sweep, residual and ELBO reads and updates; its final plates are
    ``FitTrace.plates``.
    """
    schedule = schedule or Schedule()
    _require_tol(tol)
    _require_count("max_iter", max_iter)
    if schedule.kind == SVI:  # a model SVI cannot step fails before the first record
        rows = len(model.plates[model._svi_plates[0]].ids)
        rng = np.random.default_rng(schedule.seed)  # only SVI draws; CAVI and parallel steps are deterministic
    start = time.perf_counter()
    trace = FitTrace()
    snap = mu_snapshot(model.plates)

    def record(it: int) -> float:
        res = fixed_point_residual(model, snap, data)
        trace.records.append(TraceRecord(it, elbo(model, snap, data), res, time.perf_counter() - start))
        return res

    residual = record(0)
    for t in range(1, max_iter + 1):
        if residual < tol:
            break
        if schedule.kind == CAVI:
            cavi_sweep(model, snap, data)
        elif schedule.kind == SVI:
            svi_step(model, snap, data, int(rng.integers(rows)), schedule.global_rate(t - 1))
        else:
            _parallel_step(model, snap, data, schedule.rho)
        residual = record(t)
    trace.converged = residual < tol
    trace.plates = dict(snap.plates)
    return trace
