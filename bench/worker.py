"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage (internal):  python3 bench/worker.py '<json job spec>'

A job is one of:

* ``fit``: import meanfield, generate the workload's inputs from the seed,
  build the model, run ``engine.fit`` once untraced, check the result and,
  with ``trace``, fit once more under the span recorder;
* ``setup``: the timed set-up alone, followed by a calibration;
* ``prepare``: write the CSV and config of the CLI workload;
* ``cli``: act as the ``meanfield fit`` process for the CLI workload, with
  ``cli.main`` called in this interpreter so that its phases can be timed.

The untraced fit runs with one calibration unit between iterations (see
``calibrated_iterations``) and no other wrapper.  Set-up is the import,
the data container and ``build_*`` (config, CSV and build for the CLI);
generating the inputs is not part of it.  The job prints one JSON object
as its last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager

from spans import SpanRecorder

# Sizes per workload; "smoke" is the tiny variant the self-tests use.
SIZES = {
    "gmm2_cavi": {"full": {"n": 300}, "smoke": {"n": 40}},
    "matfac_ppca_cavi": {"full": {"n": 40, "d": 25}, "smoke": {"n": 8, "d": 6}},
    "logitnormal_svi": {"full": {"n": 40, "steps": 400}, "smoke": {"n": 10, "steps": 200}},
    "cli_two_level": {"full": {"n": 2000}, "smoke": {"n": 200}},
}

TOL = 1e-8
# Generous cap: gmm2 needs 110-470 sweeps on seeds 0-15 and the cap must
# not turn a slow seed into a failed run.
MAX_ITER = 2000
# Slack of the ELBO monotonicity check, as in checks.suite_monotonicity.
MONOTONE_SLACK = 1e-10
# Share of gmm2 labels the fit must recover, up to a swap of the components.
# With clusters 4 sd apart the Bayes rate is about 0.977.  CAVI from a random
# start may stop in a poorer local optimum instead (seed 103 does); that is
# accepted only when a fit started at the true labels ends at a higher ELBO.
GMM_MIN_ACCURACY = 0.9
# Largest relative gap between the SVI and the CAVI lambda of the global
# weight node after the fixed step budget.  Over seeds 100-299 the gap has
# median 0.0015 and maximum 0.034: z nodes last visited early leave a tail.
SVI_MAX_REL_GAP = 0.1
LOGITNORMAL_M = 0.3
LOG_2PI = math.log(2.0 * math.pi)
# Calibration units run right after a set-up, see calibrate().
SETUP_CALIBRATION_UNITS = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_unit() -> float:
    """Fixed work shaped like the program's: small arrays, validation, scalar math."""
    import numpy as np

    eye = np.eye(2)
    s = 0.0
    for i in range(20):
        v = np.asarray([i, 1.0], dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ArithmeticError("calibration input is not finite")
        s += float(np.linalg.cholesky(eye * (i + 1.0))[0, 0]) + math.exp(-0.1 * i)
    for i in range(300):
        s += math.log(i + 1.0)
    return s


def calibrate(units: int) -> float:
    """Mean seconds per calibration unit: how fast this CPU runs just now.

    On a shared machine other tenants slow the CPU down by up to about
    two times, for tenths of a second to minutes; run.py divides the time
    of the work next to a calibration by the calibration's time.
    """
    t0 = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return (time.perf_counter() - t0) / units


@contextmanager
def calibrated_iterations(engine, units: list[float]):
    """Time one calibration unit each time engine.fit builds a TraceRecord.

    fit reads the clock for an iteration just before it builds the record,
    so each unit runs between two iterations and its time is inside the
    next iteration's delta; run.py subtracts it again.
    """
    original = engine.TraceRecord

    def record(*args, **kwargs):
        units.append(calibrate(1))
        return original(*args, **kwargs)

    engine.TraceRecord = record
    try:
        yield
    finally:
        engine.TraceRecord = original


def timed(fn, box: dict):
    """Wrap fn so that each call stores its wall time, CPU time and result in box."""

    def run(*args, **kwargs):
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        box.update(wall=time.perf_counter() - t0, cpu=time.process_time() - c0, result=out)
        return out

    return run


def iteration_deltas(trace) -> list[float]:
    """Wall time of the initial diagnostics, then of each iteration."""
    walls = [r.wall_time for r in trace.records]
    return [walls[0]] + [b - a for a, b in zip(walls, walls[1:])]


def lam_digest(state) -> str:
    h = hashlib.sha256()
    for nid, node in state.items():
        h.update(nid.encode())
        h.update(node.lam.values.tobytes())
    return h.hexdigest()


def elbo_drops(elbos) -> int:
    return sum(
        1
        for a, b in zip(elbos, elbos[1:])
        if b - a < -MONOTONE_SLACK * max(1.0, abs(a))
    )


# --------------------------------------------------------------------------
# workload inputs, builds and correctness gates
# --------------------------------------------------------------------------


def mixture_log_liks(y, loc):
    return (-0.5 * (y + loc) ** 2 - 0.5 * LOG_2PI, -0.5 * (y - loc) ** 2 - 0.5 * LOG_2PI)


def generate(workload: str, seed: int, size: dict) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    n = size["n"]
    if workload == "gmm2_cavi":
        centers = np.array([[-2.0, 0.0], [2.0, 0.0]])  # 4 sd apart
        labels = rng.integers(0, 2, size=n)
        return {"y": centers[labels] + rng.standard_normal((n, 2)), "labels": labels}
    if workload == "matfac_ppca_cavi":
        u = rng.standard_normal((n, 3))
        v = rng.standard_normal((size["d"], 3))
        return {"y": u @ v.T + 0.3 * rng.standard_normal((n, size["d"]))}
    if workload == "logitnormal_svi":
        first = rng.random(n) < 1.0 / (1.0 + math.exp(-LOGITNORMAL_M))
        y = np.where(first, rng.normal(-1.5, 1.0, n), rng.normal(1.5, 1.0, n))
        log_pa, log_pb = mixture_log_liks(y, 1.5)
        return {"log_pa": log_pa, "log_pb": log_pb}
    labels = rng.integers(0, 2, size=n)
    y = np.where(labels == 1, rng.normal(2.0, 1.0, n), rng.normal(-2.0, 1.0, n))
    log_pa, log_pb = mixture_log_liks(y, 2.0)
    return {"log_pa": log_pa, "log_pb": log_pb}


def build(workload: str, raw: dict, seed: int, size: dict):
    """Data container, model, schedule and fit keywords; this is timed set-up."""
    import numpy as np
    from meanfield import engine, models

    if workload == "gmm2_cavi":
        data = models.GMMData(raw["y"], 1.0, 1.0, 1.0, 3.0, np.eye(2))
        return data, models.build_gmm2(data, seed=seed), engine.Schedule(), TOL, MAX_ITER
    if workload == "matfac_ppca_cavi":
        data = models.MatrixFactorizationData(raw["y"], 3, 1.0, 1.0)
        model = models.build_matfac(data, "ppca", seed=seed)
        return data, model, engine.Schedule(), TOL, MAX_ITER
    data = models.LogitNormalMixtureData(raw["log_pa"], raw["log_pb"], LOGITNORMAL_M)
    schedule = engine.Schedule(kind=engine.SVI, kappa=0.7, tau=1.0, seed=seed)
    # tol below any reachable residual: the run is a fixed step budget
    return data, models.build_logitnormal(data, seed=seed), schedule, 1e-300, size["steps"]


def gate(workload: str, raw: dict, seed: int, data, model, trace) -> list[str]:
    """Correctness failures of one untraced fit; empty when it is correct."""
    import numpy as np
    from meanfield import engine, models

    bad = []
    if workload in ("gmm2_cavi", "matfac_ppca_cavi"):
        if not trace.converged:
            bad.append(f"did not converge in {MAX_ITER} iterations")
        drops = elbo_drops(list(trace.elbos))
        if drops:
            bad.append(f"ELBO decreased at {drops} iterations")
    if workload == "gmm2_cavi":
        resp = np.array([trace.state[f"z{i}"].mu.values[0] for i in range(len(raw["labels"]))])
        agree = float(np.mean((resp > 0.5) == (raw["labels"] == 1)))
        acc = max(agree, 1.0 - agree)
        if acc < GMM_MIN_ACCURACY:
            best = truth_start_elbo(raw["labels"], data, model)
            if not trace.elbos[-1] < best:
                bad.append(
                    f"label accuracy {acc:.3f} < {GMM_MIN_ACCURACY} at ELBO {trace.elbos[-1]:.6g},"
                    f" not below the ELBO {best:.6g} of a fit started at the true labels"
                )
    elif workload == "matfac_ppca_cavi":
        res = engine.fixed_point_residual(model, trace.state, data)
        if not res < TOL:
            bad.append(f"recomputed fixed-point residual {res:g} >= tol {TOL:g}")
    elif workload == "logitnormal_svi":
        ref = engine.fit(models.build_logitnormal(data, seed=seed), data, tol=1e-10, max_iter=1000)
        if not ref.converged:
            bad.append("reference CAVI fit did not converge")
        want = ref.state["pi"].lam.values
        got = trace.state["pi"].lam.values
        gap = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
        if not gap <= SVI_MAX_REL_GAP:
            bad.append(f"SVI weight lambda off the CAVI fixed point by {gap:.3g} (bound {SVI_MAX_REL_GAP})")
    return bad


def truth_start_elbo(labels, data, model) -> float:
    """Final ELBO of a CAVI fit whose responsibilities start at the true labels."""
    from meanfield import engine, expfam

    start = {f"z{i}": expfam.bernoulli_natural(4.0 if lab else -4.0) for i, lab in enumerate(labels)}
    nodes = tuple(
        engine.NodeState.make(n.id, start[n.id], n.role) if n.id in start else n
        for n in model.nodes
    )
    spec = engine.ModelSpec(nodes, model.provider, model.sweep_order)
    return float(engine.fit(spec, data, tol=TOL, max_iter=MAX_ITER).elbos[-1])


# --------------------------------------------------------------------------
# the layer trace
# --------------------------------------------------------------------------


def install_layer_trace(rec: SpanRecorder, with_cli: bool) -> None:
    """Wrap every public layer boundary where its caller looks it up."""
    from meanfield import engine, expfam, models

    dom = (expfam.DomainError,)
    for fn in ("digamma", "trigamma", "gammaln", "betaln"):
        rec.wrap(expfam, fn, f"specfun.{fn}")
    for fn in ("gammaln", "betaln"):
        rec.wrap(models, fn, f"specfun.{fn}")
    rec.wrap(engine, "nat_to_mean", "expfam.nat_to_mean", dom, "expfam.domain_errors")
    rec.wrap(expfam, "mean_to_nat", "expfam.mean_to_nat", dom, "expfam.domain_errors")
    rec.wrap(expfam, "entropy", "expfam.entropy", dom, "expfam.domain_errors")
    for cls in (expfam.NaturalParam, expfam.ExpectationParam):
        rec.wrap(cls, "__post_init__", "expfam.param_init", dom, "expfam.domain_errors")
    providers = [
        obj
        for obj in vars(models).values()
        if isinstance(obj, type)
        and issubclass(obj, engine.CoefficientProvider)
        and obj is not engine.CoefficientProvider
    ]
    for cls in providers:
        rec.wrap(cls, "coefficient", "models.coefficient")
        rec.wrap(cls, "expected_log_joint", "models.expected_log_joint")
    rec.wrap(models, "beta_natural_gradient", "models.beta_natural_gradient")
    rec.wrap(engine, "blr_step", "engine.blr_step", dom, "engine.blr_step.rejected")
    rec.wrap(engine, "mu_snapshot", "engine.mu_snapshot")
    for fn in ("cavi_sweep", "svi_step", "_parallel_step"):
        rec.wrap(engine, fn, "engine.sweep")
    rec.wrap(engine, "elbo", "engine.elbo")
    rec.wrap(engine, "fixed_point_residual", "engine.fixed_point_residual")
    rec.wrap(engine, "fit", "engine.fit")
    if with_cli:
        wrap_cli_phases(rec)


def wrap_cli_phases(rec: SpanRecorder) -> None:
    from meanfield import cli

    rec.wrap(cli, "parse_config", "cli.parse_config")
    rec.wrap(cli, "load_csv", "cli.load_csv")
    rec.wrap(cli, "_build", "cli.build")
    rec.wrap(cli, "write_trace", "cli.write_trace")


def layer_metrics(rec: SpanRecorder, untraced_fit_s: float) -> dict[str, float]:
    """Per-layer counts and times from one traced fit."""
    s = rec.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    specfun_names = [n for n in s if n.startswith("specfun.")]
    blr_calls = get("engine.blr_step", "calls")
    rejected = rec.errors.get("engine.blr_step.rejected", 0)
    accepted = blr_calls - rejected
    diag = get("engine.elbo", "incl_s") + get("engine.fixed_point_residual", "incl_s")
    fit_incl = get("engine.fit", "incl_s")
    out = {
        "specfun.calls": sum(get(n, "calls") for n in specfun_names),
        "specfun.digamma.calls": get("specfun.digamma", "calls"),
        "specfun.trigamma.calls": get("specfun.trigamma", "calls"),
        "specfun.self_s": sum(get(n, "self_s") for n in specfun_names),
        "expfam.domain_errors": rec.errors.get("expfam.domain_errors", 0),
        "engine.blr_step.calls": blr_calls,
        "engine.blr_step.rejected": rejected,
        "engine.step_accept_ratio": accepted / blr_calls if blr_calls else 0.0,
        "models.coefficient_per_update": (
            get("models.coefficient", "calls") / accepted if accepted else 0.0
        ),
        "engine.sweep.self_s": get("engine.sweep", "self_s"),
        "engine.diagnostics_s": diag,
        "engine.diagnostics_share": diag / fit_incl if fit_incl else 0.0,
        "cli.parse_config_s": get("cli.parse_config", "incl_s"),
        "cli.load_csv.s": get("cli.load_csv", "incl_s"),
        "cli.build_s": get("cli.build", "incl_s"),
        "cli.write_trace.s": get("cli.write_trace", "incl_s"),
        "trace.overhead_s": fit_incl - untraced_fit_s,
    }
    for name in (
        "expfam.nat_to_mean",
        "expfam.param_init",
        "expfam.mean_to_nat",
        "expfam.entropy",
        "models.coefficient",
        "models.expected_log_joint",
        "models.beta_natural_gradient",
        "engine.mu_snapshot",
    ):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    return out


def dump_spans(rec: SpanRecorder, spec: dict) -> None:
    if spec.get("spans_path"):
        os.makedirs(os.path.dirname(spec["spans_path"]), exist_ok=True)
        rec.dump(spec["spans_path"])


# --------------------------------------------------------------------------
# jobs
# --------------------------------------------------------------------------


def library_setup(spec: dict):
    """Timed import and build around the untimed input generation."""
    t0 = time.perf_counter()
    from meanfield import engine, models  # noqa: F401

    import_s = time.perf_counter() - t0
    size = SIZES[spec["workload"]][spec["size"]]
    raw = generate(spec["workload"], spec["seed"], size)
    t1 = time.perf_counter()
    built = build(spec["workload"], raw, spec["seed"], size)
    return import_s + time.perf_counter() - t1, raw, built


def job_setup(spec: dict) -> dict:
    """Set-up only: import, data container and build (config, CSV and build for the CLI)."""
    if spec["workload"] != "cli_two_level":
        setup_s = library_setup(spec)[0]
        return {"setup_s": setup_s, "cal_s": calibrate(SETUP_CALIBRATION_UNITS)}
    t0 = time.perf_counter()
    from meanfield import cli

    cli._build(cli.parse_config("run.cfg"))
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "cal_s": calibrate(SETUP_CALIBRATION_UNITS)}


def job_fit(spec: dict) -> dict:
    from meanfield import engine

    workload, seed = spec["workload"], spec["seed"]
    _, raw, (data, model, schedule, tol, max_iter) = library_setup(spec)
    box: dict = {}
    units: list[float] = []
    with calibrated_iterations(engine, units):
        trace = timed(engine.fit, box)(model, data, schedule, tol=tol, max_iter=max_iter)
    rss = peak_rss_mb()
    iters = trace.records[-1].iteration
    per_iter = 2 if schedule.kind == engine.SVI else len(model.nodes)
    out = {
        "fit_wall_s": box["wall"] - sum(units),
        "fit_cpu_s": box["cpu"] - sum(units),
        "deltas": iteration_deltas(trace),
        "cal_units": units,
        "iters": iters,
        "node_updates": per_iter * iters,
        "peak_rss_mb": rss,
        "lam_digest": lam_digest(trace.state),
        "failures": gate(workload, raw, seed, data, model, trace),
    }
    if spec["trace"]:
        with SpanRecorder() as rec:
            install_layer_trace(rec, with_cli=False)
            traced = engine.fit(model, data, schedule, tol=tol, max_iter=max_iter)
        out["layers"] = layer_metrics(rec, out["fit_wall_s"])
        if lam_digest(traced.state) != out["lam_digest"] or list(traced.elbos) != list(trace.elbos):
            out["failures"].append("traced fit differs from the untraced fit")
        dump_spans(rec, spec)
    return out


def job_prepare(spec: dict) -> dict:
    size = SIZES[spec["workload"]][spec["size"]]
    raw = generate(spec["workload"], spec["seed"], size)
    with open(os.path.join(spec["dir"], "data.csv"), "w") as fh:
        for a, b in zip(raw["log_pa"], raw["log_pb"]):
            fh.write(f"{a:.17g},{b:.17g}\n")
    with open(os.path.join(spec["dir"], "run.cfg"), "w") as fh:
        fh.write(
            "model=two_level\ndata_path=data.csv\noutput_path=trace.txt\n"
            f"schedule=cavi\nseed={spec['seed']}\n"
        )
    return {}


def job_cli(spec: dict) -> dict:
    """Run ``meanfield fit --config run.cfg`` in this process, cwd = the job dir."""
    t0 = time.perf_counter()
    from meanfield import cli, engine

    import_s = time.perf_counter() - t0
    argv = ["fit", "--config", "run.cfg"]
    box: dict = {}
    units: list[float] = []
    fit = engine.fit
    engine.fit = timed(fit, box)
    try:
        with SpanRecorder() as phases, calibrated_iterations(engine, units):
            wrap_cli_phases(phases)
            code = cli.main(argv)
        rss = peak_rss_mb()
    finally:
        engine.fit = fit
    main_done = time.perf_counter()
    trace = box["result"]
    out = {
        "exit_code": code,
        "fit_wall_s": box["wall"] - sum(units),
        "fit_cpu_s": box["cpu"] - sum(units),
        "deltas": iteration_deltas(trace),
        "cal_units": units,
        "iters": trace.records[-1].iteration,
        "node_updates": len(trace.state) * trace.records[-1].iteration,
        "peak_rss_mb": rss,
        "failures": [],
    }
    if spec["trace"]:
        with open("trace.txt", "rb") as fh:
            untraced_bytes = fh.read()
        with SpanRecorder() as rec:
            install_layer_trace(rec, with_cli=True)
            cli.main(argv)
        layers = layer_metrics(rec, out["fit_wall_s"])
        layers["cli.import_s"] = import_s
        layers["cli.load_csv.bytes"] = os.path.getsize("data.csv")
        layers["cli.write_trace.bytes"] = os.path.getsize("trace.txt")
        out["layers"] = layers
        with open("trace.txt", "rb") as fh:
            if fh.read() != untraced_bytes:
                out["failures"].append("traced CLI run wrote a different trace file")
        dump_spans(rec, spec)
    # run.py takes this and the calibration off the process wall time
    out["after_main_s"] = time.perf_counter() - main_done
    return out


JOBS = {"fit": job_fit, "setup": job_setup, "prepare": job_prepare, "cli": job_cli}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = JOBS[spec["job"]](spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
