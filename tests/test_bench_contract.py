"""The benchmark's outside-in layer trace still fits the program.

``bench/worker.py`` wraps public functions of the meanfield modules by name,
where their callers look them up, and patches ``engine.TraceRecord`` to time
each iteration.  A rename or an inlined call would make the benchmark fail or
silently count nothing, so this test runs the worker's own code on smoke-size
inputs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from meanfield import cli, engine, models

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def worker():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(BENCH))  # worker.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    mp.undo()


def _config(tmp_path, model: str, rows, extra: str) -> str:
    data = tmp_path / f"{model}.csv"
    data.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    cfg = tmp_path / f"{model}.cfg"
    out = tmp_path / f"{model}.trace"
    cfg.write_text(f"model={model}\ndata_path={data}\noutput_path={out}\nmax_iter=4\n{extra}")
    return str(cfg)


def test_every_wrapped_name_is_called_on_the_fit_path(worker, tmp_path):
    """Each wrapped name exists, is reached through the name the worker patched, and is restored."""
    rng = np.random.default_rng(0)
    configs = [
        _config(tmp_path, "gmm2", rng.normal(size=(8, 2)) * 2.0, "nu0=3\n"),
        _config(tmp_path, "logitnormal", rng.normal(size=(5, 2)), "schedule=svi\n"),
        _config(tmp_path, "two_level", rng.normal(size=(5, 2)), "schedule=parallel\n"),
    ]
    originals = (engine.fit, engine.elbo, engine.blr_step, models.beta_natural_gradient, cli.load_csv)
    with worker.SpanRecorder() as rec:
        worker.install_layer_trace(rec, with_cli=True)
        for cfg in configs:
            assert cli.main(["fit", "--config", cfg]) == cli.EXIT_NO_CONVERGENCE
    assert (engine.fit, engine.elbo, engine.blr_step, models.beta_natural_gradient, cli.load_csv) == originals
    never_called = [name for name, row in rec.summary().items() if row["calls"] == 0]
    # The Beta mean_to_nat solve stays in expfam's public API, off the fit
    # path, and trigamma is called through expfam by the mean_to_nat solves
    # alone.  The logit-normal weight is read off in closed form, so the
    # quadrature serves a user's log_prior_core only.
    assert never_called == ["specfun.trigamma", "expfam.mean_to_nat", "models.beta_natural_gradient"]


@pytest.mark.parametrize("workload", ["gmm2_cavi", "matfac_ppca_cavi", "logitnormal_svi"])
def test_traced_smoke_fit_passes(worker, workload):
    out = worker.job_fit({"workload": workload, "seed": 5, "size": "smoke", "trace": True})
    assert out["failures"] == []
    # fit looks engine.TraceRecord up per record: one calibration unit each
    assert len(out["cal_units"]) == out["iters"] + 1
    layers = out["layers"]
    for name in (
        "expfam.nat_to_mean.calls",
        "expfam.param_init.calls",
        "expfam.entropy.calls",
        "models.coefficient.calls",
        "models.expected_log_joint.calls",
        "engine.blr_step.calls",
        "engine.mu_snapshot.calls",
    ):
        assert layers[name] > 0, name
    assert layers["engine.sweep.self_s"] > 0.0
    assert 0.0 < layers["engine.diagnostics_share"] < 1.0


def _smoke_fit(worker, workload, seed=5):
    size = worker.SIZES[workload]["smoke"]
    raw = worker.generate(workload, seed, size)
    data, model, schedule, tol, max_iter = worker.build(workload, raw, seed, size)
    return raw, data, model, engine.fit(model, data, schedule, tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("workload", ["gmm2_cavi", "matfac_ppca_cavi", "logitnormal_svi"])
def test_per_id_surface_the_worker_reads(worker, workload):
    """Node counts, the gates, the lambda digest and the truth-start refit work on per-id state."""
    seed = 5
    raw, data, model, trace = _smoke_fit(worker, workload, seed)
    n_nodes = sum(len(ids) for ids in model.provider.plates.values())
    assert len(model.nodes) == n_nodes
    assert len(trace.state) == n_nodes
    assert all(isinstance(n.id, str) and n.role in (engine.LOCAL, engine.GLOBAL) for n in model.nodes)
    assert list(trace.state) == [nid for ids in model.provider.plates.values() for nid in ids]
    assert worker.gate(workload, raw, seed, data, model, trace) == []
    assert worker.lam_digest(trace.state) == worker.lam_digest(_smoke_fit(worker, workload, seed)[3].state)
    if workload == "gmm2_cavi":
        assert np.ndim(trace.state["z3"].mu.values[0]) == 0
        assert trace.state["pi"].lam.values.shape == (2,)
        best = worker.truth_start_elbo(raw["labels"], data, model)
        assert np.isfinite(best) and best >= trace.elbos[-1] - 1e-6 * abs(trace.elbos[-1])
