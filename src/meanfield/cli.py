"""Batch front end: load data, run a fit, write a trace; run invariant suites.

Usage:
    meanfield fit --config run.cfg
    meanfield check <suite>

Config files are flat key=value text; unknown keys are errors.  Data files
are plain CSV, one observation per row, every cell a finite number.  Traces
are line-delimited records with a fixed field order and 17-significant-digit
floats, so two runs with the same config and seed produce byte-identical files.

Exit codes: 0 converged / all checks pass, 1 input error (non-finite data,
or Gaussian observations whose squares overflow, included) or numerical
failure, 2 hit max_iter without converging, 64 usage error.

The MEANFIELD_LOG env var ("debug", "info", "warning") controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checks, engine, models
from .expfam import NumericalError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64

log = logging.getLogger("meanfield")

_MODELS = (
    "simple_mixture",
    "two_level",
    "gmm2",
    "matfac_vmp",
    "matfac_ppca",
    "matfac_als",
    "logitnormal",
)

_COMMON_KEYS = {
    "model",
    "schedule",
    "rho",
    "kappa",
    "tau",
    "tol",
    "max_iter",
    "seed",
    "data_path",
    "output_path",
}
_MODEL_KEYS = {
    "simple_mixture": set(),
    "two_level": {"alpha0", "beta0"},
    "gmm2": {"alpha0", "beta0", "gamma0", "nu0", "w0_scale"},
    "matfac_vmp": {"k", "delta_u", "delta_v"},
    "matfac_ppca": {"k", "delta_u", "delta_v"},
    "matfac_als": {"k", "delta_u", "delta_v"},
    "logitnormal": {"m"},
}


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    model: str
    data_path: str
    output_path: str
    schedule: str = "cavi"
    rho: float = 0.5
    kappa: float = 0.7
    tau: float = 1.0
    tol: float = 1e-8
    max_iter: int = 1000
    seed: int = 0
    extras: dict | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise InputError(f"unknown model {self.model!r}")
        if self.tol <= 0.0:
            raise InputError("tol must be positive")
        if self.max_iter < 0:
            raise InputError("max_iter must be nonnegative")


def parse_config(path: str) -> RunConfig:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key in values:
                    raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = val
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc

    model = values.get("model")
    if model not in _MODELS:
        raise InputError(f"config must set model to one of {', '.join(_MODELS)}")
    allowed = _COMMON_KEYS | _MODEL_KEYS[model]
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise InputError(f"unknown config keys for model {model}: {', '.join(unknown)}")
    for required in ("data_path", "output_path"):
        if required not in values:
            raise InputError(f"config must set {required}")

    def fval(key, default):
        return float(values[key]) if key in values else default

    try:
        cfg = RunConfig(
            model=model,
            data_path=values["data_path"],
            output_path=values["output_path"],
            schedule=values.get("schedule", "cavi"),
            rho=fval("rho", 0.5),
            kappa=fval("kappa", 0.7),
            tau=fval("tau", 1.0),
            tol=fval("tol", 1e-8),
            max_iter=int(values.get("max_iter", 1000)),
            seed=int(values.get("seed", 0)),
            extras={k: float(values[k]) for k in _MODEL_KEYS[model] if k in values},
        )
    except ValueError as exc:
        raise InputError(f"bad config value: {exc}") from exc
    return cfg


def load_csv(path: str, expected_cols: int | None = None) -> np.ndarray:
    """Strict CSV reader; names the offending row on malformed input."""
    rows = []
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if expected_cols is not None and len(cells) != expected_cols:
            raise InputError(
                f"{path}: row {lineno} has {len(cells)} fields, expected {expected_cols}"
            )
        if rows and len(cells) != len(rows[0]):
            raise InputError(
                f"{path}: row {lineno} has {len(cells)} fields, expected {len(rows[0])}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise InputError(f"{path}: row {lineno}: {exc}") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise InputError(f"{path}: row {lineno}: every cell must be a finite number")
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows)


def _build(cfg: RunConfig):
    x = cfg.extras or {}
    if cfg.model == "simple_mixture":
        arr = load_csv(cfg.data_path, expected_cols=3)
        if arr.shape[0] != 1:
            raise InputError("simple_mixture expects a single data row: pi0,pa,pb")
        data = models.SimpleMixtureData(*arr[0])
        return models.build_simple_mixture(data, seed=cfg.seed), data
    if cfg.model == "two_level":
        arr = load_csv(cfg.data_path, expected_cols=2)
        data = models.TwoLevelMixtureData(
            arr[:, 0], arr[:, 1], x.get("alpha0", 1.0), x.get("beta0", 1.0)
        )
        return models.build_two_level(data, seed=cfg.seed), data
    if cfg.model == "gmm2":
        arr = load_csv(cfg.data_path)
        d = arr.shape[1]
        data = models.GMMData(
            arr,
            x.get("alpha0", 1.0),
            x.get("beta0", 1.0),
            x.get("gamma0", 1.0),
            x.get("nu0", float(d)),
            x.get("w0_scale", 1.0) * np.eye(d),
        )
        return models.build_gmm2(data, seed=cfg.seed), data
    if cfg.model.startswith("matfac"):
        arr = load_csv(cfg.data_path)
        data = models.MatrixFactorizationData(
            arr, int(x.get("k", 1)), x.get("delta_u", 1.0), x.get("delta_v", 1.0)
        )
        mode = cfg.model.split("_")[1]
        return models.build_matfac(data, mode, seed=cfg.seed), data
    arr = load_csv(cfg.data_path, expected_cols=2)
    data = models.LogitNormalMixtureData(arr[:, 0], arr[:, 1], x.get("m", 0.0))
    return models.build_logitnormal(data, seed=cfg.seed), data


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace(path: str, trace: engine.FitTrace) -> None:
    with open(path, "w") as fh:
        for rec in trace.records:
            fh.write(f"iter={rec.iteration} elbo={_fmt(rec.elbo)} residual={_fmt(rec.residual)}\n")
        fh.write(f"converged={'true' if trace.converged else 'false'} ")
        fh.write(f"iterations={trace.records[-1].iteration}\n")
        for nid, node in trace.state.items():
            lam = " ".join(_fmt(v) for v in node.lam.values)
            mu = " ".join(_fmt(v) for v in node.mu.values)
            fh.write(f"param {nid} lambda {lam}\n")
            fh.write(f"param {nid} mu {mu}\n")


def cmd_fit(args) -> int:
    try:
        cfg = parse_config(args.config)
        model, data = _build(cfg)
        schedule = engine.Schedule(
            kind=cfg.schedule, rho_local=cfg.rho, kappa=cfg.kappa, tau=cfg.tau, seed=cfg.seed
        )
        trace = engine.fit(model, data, schedule, tol=cfg.tol, max_iter=cfg.max_iter)
        write_trace(cfg.output_path, trace)
    except (InputError, ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    log.info("finished: converged=%s iterations=%d", trace.converged, trace.records[-1].iteration)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    try:
        results = checks.run_suite(args.suite)
    except KeyError:
        known = ", ".join(sorted(checks.SUITES) + ["all"])
        print(f"error: unknown suite {args.suite!r} (choose from: {known})", file=sys.stderr)
        return EXIT_USAGE
    total_failed = 0
    for name, passed, failed, msgs in results:
        print(f"suite={name} passed={passed} failed={failed}")
        for msg in msgs:
            print(f"  {msg}")
        total_failed += failed
    return EXIT_OK if total_failed == 0 else EXIT_INPUT


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MEANFIELD_LOG", "warning").upper())
    parser = argparse.ArgumentParser(prog="meanfield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_fit = sub.add_parser("fit", help="run a model fit from a config file")
    p_fit.add_argument("--config", required=True)
    p_fit.set_defaults(func=cmd_fit)
    p_check = sub.add_parser("check", help="run an invariant suite")
    p_check.add_argument("suite")
    p_check.set_defaults(func=cmd_check)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
