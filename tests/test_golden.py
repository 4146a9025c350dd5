"""Differential test of whole fits against recorded golden outputs.

Each case fits one model under one schedule on a small fixed input for at
most ``MAX_ITER`` iterations and compares, with the recorded run: the
number of trace records, the ``converged`` flag, every per-iteration ELBO
and fixed-point residual, and the final lambda of every node.  Values
agree to ``RTOL`` relative, measured against max(|recorded|, 1) so that
residuals near zero are compared on the scale of the lambdas they are
differences of.

The fixture file was written by the engine as it stood before the update
path and the mixture providers were refactored; the three plate-sized
cases (``gmm2_n60``, ``matfac_ppca_12x8``, ``two_level_n50``) were added
by the engine as it stood before nodes were grouped into plates.
Regenerate it only for a change that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py

The simple, two-level and logit-normal builders start every q(z_i) at 1/2
and draw nothing, while the fixture was recorded from a jittered start.  A
case of those models is fitted from that recorded start, rebuilt from its
builder's seed (``_recorded_start``), so the fixture stays a fixed check of
the engine; ``test_the_half_start_reaches_the_recorded_final_elbo`` checks
the builders' own start against it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from meanfield import engine, expfam, models

FIXTURE = Path(__file__).resolve().parent / "golden" / "engine_fits.json"
MAX_ITER = 60
TOL = 1e-10
RTOL = 1e-12

SCHEDULES = {
    "cavi": engine.Schedule(engine.CAVI),
    "parallel": engine.Schedule(engine.PARALLEL_BLR, rho=0.5),
    "svi": engine.Schedule(engine.SVI, kappa=0.7, tau=1.0, seed=3),
}


def _mixture_log_liks(seed: int, n: int):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.6, rng.normal(-1.5, 1.0, n), rng.normal(1.5, 1.0, n))
    log_pa = -0.5 * (y + 1.5) ** 2 - 0.5 * math.log(2.0 * math.pi)
    log_pb = -0.5 * (y - 1.5) ** 2 - 0.5 * math.log(2.0 * math.pi)
    return log_pa, log_pb


def _simple():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    return models.build_simple_mixture(data, seed=1), data


def _two_level(shifted: bool, n: int = 9):
    def build():
        data = models.TwoLevelMixtureData(*_mixture_log_liks(11, n), 2.0, 3.0)
        return models.build_two_level(data, seed=2, shifted_beta=shifted), data

    return build


def _gmm2(n: int = 12):
    def build():
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 2, size=n)
        y = np.array([[-2.0, 0.0], [2.0, 0.0]])[labels] + rng.standard_normal((n, 2))
        data = models.GMMData(y, 1.0, 1.0, 1.0, 3.0, np.eye(2))
        return models.build_gmm2(data, seed=3), data

    return build


def _matfac(mode: str, n: int = 6, d: int = 4):
    def build():
        rng = np.random.default_rng(13)
        y = rng.standard_normal((n, 2)) @ rng.standard_normal((d, 2)).T
        data = models.MatrixFactorizationData(y + 0.3 * rng.standard_normal((n, d)), 2, 1.0, 1.0)
        return models.build_matfac(data, mode, seed=4), data

    return build


def _logitnormal():
    data = models.LogitNormalMixtureData(*_mixture_log_liks(14, 8), 0.4)
    return models.build_logitnormal(data, seed=5), data


BUILDERS = {
    "simple": (_simple, ("cavi", "parallel")),
    "two_level_constant": (_two_level(False), ("cavi", "parallel", "svi")),
    "two_level_reciprocal": (_two_level(True), ("cavi", "parallel", "svi")),
    "gmm2": (_gmm2(), ("cavi", "parallel")),
    "matfac_vmp": (_matfac("vmp"), ("cavi", "parallel")),
    "matfac_ppca": (_matfac("ppca"), ("cavi", "parallel")),
    "matfac_als": (_matfac("als"), ("cavi", "parallel")),
    "logitnormal": (_logitnormal, ("cavi", "parallel", "svi")),
    # Plate-sized groups of locals, where the order of block sums can matter.
    "gmm2_n60": (_gmm2(60), ("cavi",)),
    "matfac_ppca_12x8": (_matfac("ppca", 12, 8), ("cavi", "parallel")),
    "two_level_n50": (_two_level(False, 50), ("svi",)),
}
CASES = [f"{model}/{sched}" for model, (_, scheds) in BUILDERS.items() for sched in scheds]

# The seed each of these cases' builders was given, from which its "z" plate
# was drawn when the fixture was recorded.
RECORDED_START_SEED = {
    "simple": 1,
    "two_level_constant": 2,
    "two_level_reciprocal": 2,
    "logitnormal": 5,
    "two_level_n50": 2,
}


def _recorded_start(model: engine.ModelSpec, seed: int) -> engine.ModelSpec:
    """``model`` with q(z_i) = 1/2 + U(-0.05, 0.05), drawn from ``seed`` as the builders drew it for the fixture."""
    z = model.plates["z"]
    p = 0.5 + np.random.default_rng(seed).uniform(-0.05, 0.05, size=len(z.ids))
    lam = expfam.NaturalParam(z.family, np.log(p / (1 - p))[:, None])
    plates = dict(model.plates, z=engine.Plate(z.ids, lam, z.role, z.delta_mode))
    return engine.ModelSpec(plates.values(), model.provider, model.sweep_order)


def build_case(model_name: str):
    """The case's model and data, from the start its fixture entry was recorded from."""
    model, data = BUILDERS[model_name][0]()
    if model_name in RECORDED_START_SEED:
        model = _recorded_start(model, RECORDED_START_SEED[model_name])
    return model, data


def run_case(case: str) -> dict:
    model_name, sched = case.split("/")
    model, data = build_case(model_name)
    trace = engine.fit(model, data, SCHEDULES[sched], tol=TOL, max_iter=MAX_ITER)
    return {
        "converged": trace.converged,
        "elbo": [r.elbo for r in trace.records],
        "residual": [r.residual for r in trace.records],
        "lambda": {nid: node.lam.values.tolist() for nid, node in trace.state.items()},
    }


def _assert_close(got, want, what: str):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    gap = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert np.all(gap <= RTOL), f"{what}: relative gap {gap.max():.3g} > {RTOL:g}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_golden(case, golden):
    want = golden[case]
    got = run_case(case)
    assert len(got["elbo"]) == len(want["elbo"])
    assert got["converged"] == want["converged"]
    _assert_close(got["elbo"], want["elbo"], f"{case} elbo")
    _assert_close(got["residual"], want["residual"], f"{case} residual")
    assert list(got["lambda"]) == list(want["lambda"])
    for nid, lam in want["lambda"].items():
        _assert_close(got["lambda"][nid], lam, f"{case} lambda of {nid}")


@pytest.mark.parametrize("case", CASES)
def test_live_snapshot_records_match_a_fresh_snapshot(case):
    """A record's residual and ELBO, read off the fit's one live snapshot, equal those of a fresh snapshot."""
    model_name, sched = case.split("/")
    for max_iter in (0, 1, 2, 5):
        model, data = build_case(model_name)
        trace = engine.fit(model, data, SCHEDULES[sched], tol=TOL, max_iter=max_iter)
        last = trace.records[-1]
        assert last.residual == engine.fixed_point_residual(model, trace.plates, data)
        assert last.elbo == engine.elbo(model, trace.plates, data)


def _converged_half_start_cases() -> list[str]:
    """The CAVI and parallel cases of the models built at q(z_i) = 1/2 whose recorded run converged."""
    recorded = json.loads(FIXTURE.read_text())
    return [
        case
        for case in (f"{m}/{s}" for m in RECORDED_START_SEED for s in ("cavi", "parallel"))
        if case in recorded and recorded[case]["converged"]
    ]


@pytest.mark.parametrize("case", _converged_half_start_cases())
def test_the_half_start_reaches_the_recorded_final_elbo(case, golden):
    """Started at q(z_i) = 1/2, as built, a case ends at its recorded final ELBO to 10 digits."""
    want = golden[case]
    model_name, sched = case.split("/")
    model, data = BUILDERS[model_name][0]()
    assert np.all(model.plates["z"].lam.values == 0.0)
    trace = engine.fit(model, data, SCHEDULES[sched], tol=TOL, max_iter=MAX_ITER)
    assert trace.converged
    got, final = trace.records[-1].elbo, want["elbo"][-1]
    assert abs(got - final) <= 1e-10 * max(abs(final), 1.0), (got, final)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n")
