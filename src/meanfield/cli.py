"""Batch front end: load data, run a fit, write a trace; run invariant suites.

Usage:
    meanfield fit --config run.cfg
    meanfield check <suite>

Config files are flat key=value text; a line that starts with # is a
comment (a # inside a value is part of it), and unknown keys are errors.
Data files are plain CSV, one observation per row, every cell a finite
number; blank lines and lines that start with # are skipped.  numpy's reader
takes a well-formed data file in one pass, after its leading blank and #
lines (a header, say); a file it rejects, one with a # line after the first
data row among them, is read again by a strict line-by-line reader, whose
error names the offending row.
Traces are line-delimited records with a fixed field order and
17-significant-digit floats, so two runs with the same config and seed
produce byte-identical files.

Exit codes: 0 converged / all checks pass, 1 input error (non-finite data,
Gaussian observations whose squares overflow, or a prior whose normaliser is
not finite, as gmm2's at nu0=1e308, included), numerical failure (a record
whose ELBO or residual is not finite among them) or a model too large for
memory, 2 hit max_iter without converging, 64 usage error.  Every input
error is a ``ValueError``: the CLI's own (a config or data file it cannot
read or parse), the engine's and the data classes' (a value out of its
domain); ``fit`` prints it as one ``error:`` line that names the key, row or
file at fault.  A numerical failure is one ``error:`` line too, naming the
node or term, and no trace is written.  numpy's floating-point state is the
engine's to set: ``engine.fit`` sets it for the fit, and the CLI sets none.

Config and data files are read as UTF-8; a leading byte-order mark is
skipped.

The MEANFIELD_LOG env var controls verbosity: a logging level name such as
"debug", "info" or "warning", in any case, configures the root logger at
that level on every call of ``main``.  Unset or empty means "warning", at
which meanfield logs nothing, so no logging is configured (or imported) and
an in-process ``main`` leaves the root logger alone.  Any other value is a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

import numpy as np

from . import engine, models
from .expfam import NumericalError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64

# One row per model: its CSV column count (None: any), data class, builder and
# config keys.  A key left unset takes the data class's default.  The data
# class takes the CSV's columns, or the whole array where any count goes.
_TABLE = {
    "simple_mixture": (3, models.SimpleMixtureData, models.build_simple_mixture, ()),
    "two_level": (2, models.TwoLevelMixtureData, models.build_two_level, ("alpha0", "beta0")),
    "gmm2": (None, models.GMMData, models.build_gmm2, ("alpha0", "beta0", "gamma0", "nu0", "w0_scale")),
    **{
        f"matfac_{mode}": (
            None,
            models.MatrixFactorizationData,
            functools.partial(models.build_matfac, mode=mode),
            ("k", "delta_u", "delta_v"),
        )
        for mode in ("vmp", "ppca", "als")
    },
    "logitnormal": (2, models.LogitNormalMixtureData, models.build_logitnormal, ("m",)),
}
_MODELS = tuple(_TABLE)
# Every config value is a number, except those of the text keys.
_TEXT_KEYS = {"model", "schedule", "data_path", "output_path"}
_INT_KEYS = {"max_iter", "seed", "k"}
_COMMON_KEYS = _TEXT_KEYS | {"rho", "kappa", "tau", "tol", "max_iter", "seed"}


class RunConfig:
    """A parsed config; ``stop`` holds the ``tol`` and ``max_iter`` it sets, for ``engine.fit`` to default the rest."""

    def __init__(
        self, model: str, data_path: str, output_path: str, schedule: engine.Schedule, stop: dict, extras: dict
    ):
        self.model, self.data_path, self.output_path = model, data_path, output_path
        self.schedule, self.stop, self.extras = schedule, stop, extras


def _read_lines(path: str, what: str) -> list[str]:
    """The stripped lines of a UTF-8 file, a leading byte-order mark skipped; a line that is not UTF-8 is named."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [ln.strip() for ln in fh]
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError:
        # Name the first line that does not decode.  Lines split at \n, \r and \r\n,
        # as the text read splits them, and no such byte falls inside a UTF-8 character.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(keepends=True), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    byte = f"0x{raw[exc.start]:02x}"
                    raise ValueError(f"{path}: line {lineno} is not UTF-8 text (byte {byte}: {exc.reason})") from None


def parse_config(path: str) -> RunConfig:
    values: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path, "config"), start=1):
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not (eq and key):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val

    model = values.get("model")
    if model not in _MODELS:
        if model is not None:
            raise ValueError(f"unknown model {model!r} (choose from: {', '.join(_MODELS)})")
        raise ValueError(f"config must set model to one of {', '.join(_MODELS)}")
    keys = _TABLE[model][3]
    unknown = sorted(set(values) - _COMMON_KEYS.union(keys))
    if unknown:
        raise ValueError(f"unknown config keys for model {model}: {', '.join(unknown)}")
    for required in ("data_path", "output_path"):
        if required not in values:
            raise ValueError(f"config must set {required}")

    numbers = {k: _number(k, v) for k, v in values.items() if k not in _TEXT_KEYS}
    extras = {k: numbers.pop(k) for k in keys if k in numbers}
    stop = {k: numbers.pop(k) for k in ("tol", "max_iter") if k in numbers}
    # engine.fit checks tol and max_iter only once the data is loaded, so they are checked here.
    if "tol" in stop:
        engine._require_tol(stop["tol"])
    if "max_iter" in stop:
        engine._require_count("max_iter", stop["max_iter"])
    kind = {"kind": values["schedule"]} if "schedule" in values else {}
    schedule = engine.Schedule(**kind, **numbers)  # and rho, kappa, tau and seed where set
    return RunConfig(model, values["data_path"], values["output_path"], schedule, stop, extras)


def _number(key: str, text: str):
    """A config value as an int for the integer keys, else as a float; a bad value names its key."""
    try:
        return int(text) if key in _INT_KEYS else float(text)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ValueError(f"{key} must be {kind}, got {text!r}") from None


def load_csv(path: str, expected_cols: int | None = None) -> np.ndarray:
    """The data rows of a CSV as a float array; on malformed input the error names the first offending row.

    numpy's reader takes a well-formed file in one pass, after the leading
    blank and # lines, which are skipped here as the strict reader skips
    them.  A file it does not take, or takes with no rows, the wrong column
    count or a non-finite cell, is read again by the strict reader, which
    names the row.
    """
    try:
        # The handle is opened here, not by loadtxt, so that a path is never read as a URL or an archive.
        with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            start = fh.tell()
            for line in iter(fh.readline, ""):
                if line.strip()[:1] not in ("", "#"):
                    break
                start = fh.tell()
            fh.seek(start)
            warnings.simplefilter("ignore")  # an empty file's "input contained no data"
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except Exception:
        arr = None
    if arr is not None and arr.shape[0] and arr.shape[1] == (expected_cols or arr.shape[1]) and np.isfinite(arr).all():
        return arr
    return _load_csv_strictly(path, expected_cols)


def _load_csv_strictly(path: str, expected_cols: int | None) -> np.ndarray:
    """Strict CSV reader, line by line: blank and # lines are skipped, and the first offending row is named."""
    rows, linenos = [], []
    for lineno, line in enumerate(_read_lines(path, "data file"), start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        want = expected_cols or (len(rows[0]) if rows else len(cells))
        if len(cells) != want:
            _require_finite_rows(path, rows, linenos)  # a non-finite row above is named first
            raise ValueError(f"{path}: row {lineno} has {len(cells)} fields, expected {want}")
        try:
            # str.strip, as numpy's reader, also strips the bytes \x1c-\x1f around a cell, which float keeps.
            rows.append([float(c.strip()) for c in cells])
        except ValueError as exc:
            _require_finite_rows(path, rows, linenos)
            raise ValueError(f"{path}: row {lineno}: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return _require_finite_rows(path, rows, linenos)


def _require_finite_rows(path: str, rows: list, linenos: list) -> np.ndarray:
    """The parsed rows as an array, checked for finiteness in one pass; the first bad row is located on failure."""
    arr = np.array(rows)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ValueError(f"{path}: row {linenos[bad]}: every cell must be a finite number")
    return arr


def _build(cfg: RunConfig):
    columns, data_class, build, _ = _TABLE[cfg.model]
    arr = load_csv(cfg.data_path, expected_cols=columns)
    if cfg.model == "simple_mixture":
        if arr.shape[0] != 1:
            raise ValueError("simple_mixture expects a single data row: pi0,pa,pb")
        arr = arr[0]
    extras = dict(cfg.extras)
    scale = extras.pop("w0_scale", None)
    if scale is not None:  # the config's form of w0 = w0_scale * I
        # named here and below: the data class checks w0 and would name w0, which no config sets
        if not (0.0 < scale and 0.0 < 1.0 / scale < np.inf):
            raise ValueError(f"w0_scale must be positive and finite, and so must 1 / w0_scale, got {scale!r}")
        extras["w0"] = scale * np.eye(arr.shape[1])
    try:
        data = data_class(*(arr.T if columns else [arr]), **extras)
    except ValueError as exc:  # an error on w0, which only w0_scale sets, is named by w0_scale
        raise ValueError(f"w0_scale={scale!r} sets w0 = w0_scale * I, and {exc}") if str(exc).startswith("w0 ") else exc
    return build(data, seed=cfg.schedule.seed), data


# Rows of a plate formatted per write of the trace, so the trace is never held whole.
_TRACE_CHUNK = 32768


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace(path: str, trace: engine.FitTrace) -> None:
    head = [f"iter={rec.iteration} elbo={_fmt(rec.elbo)} residual={_fmt(rec.residual)}\n" for rec in trace.records]
    head.append(f"converged={'true' if trace.converged else 'false'} iterations={trace.records[-1].iteration}\n")
    try:
        with open(path, "w") as fh:
            fh.write("".join(head))
            for plate in trace.plates.values():
                for chunk in _plate_lines(plate):
                    fh.write(chunk)
    except OSError as exc:
        raise ValueError(f"cannot write trace {path}: {exc}") from exc


def _plate_lines(plate: engine.Plate):
    """A plate's ``param`` lines, in chunks of at most ``_TRACE_CHUNK`` rows, each chunk one % of a row template."""
    lam, mu = plate.lam.values, plate.mu.values
    k, j = lam.shape[1], mu.shape[1]
    row = "param %s lambda" + " %.17g" * k + "\nparam %s mu" + " %.17g" * j + "\n"
    for start in range(0, len(plate.ids), _TRACE_CHUNK):
        ids = plate.ids[start : start + _TRACE_CHUNK]
        cells = np.empty((len(ids), 2 + k + j), dtype=object)  # each row: id, lambda, id, mu, as Python objects
        cells[:, 0] = cells[:, k + 1] = ids
        cells[:, 1 : k + 1] = lam[start : start + len(ids)]
        cells[:, k + 2 :] = mu[start : start + len(ids)]
        yield row * len(ids) % tuple(cells.ravel().tolist())


def cmd_fit(args, log=None) -> int:
    """Run the fit the config names; ``log``, where MEANFIELD_LOG sets one, gets one INFO line at the end."""
    try:
        cfg = parse_config(args.config)
        model, data = _build(cfg)
        trace = engine.fit(model, data, cfg.schedule, **cfg.stop)
        write_trace(cfg.output_path, trace)
    except (ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_INPUT
    if log is not None:
        log.info("finished: converged=%s iterations=%d", trace.converged, trace.records[-1].iteration)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_check(args) -> int:
    from . import checks  # only ``meanfield check`` runs the suites, so ``meanfield fit`` does not import them

    if args.suite != "all" and args.suite not in checks.SUITES:  # looked up first: a suite's own KeyError propagates
        known = ", ".join(sorted(checks.SUITES) + ["all"])
        print(f"error: unknown suite {args.suite!r} (choose from: {known})", file=sys.stderr)
        return EXIT_USAGE
    total_failed = 0
    for name, passed, failed, msgs in checks.run_suite(args.suite):
        print(f"suite={name} passed={passed} failed={failed}")
        for msg in msgs:
            print(f"  {msg}")
        total_failed += failed
    return EXIT_OK if total_failed == 0 else EXIT_INPUT


def _logger(name: str):
    """Set the root logger to level ``name`` and return the "meanfield" logger; None where no level has that name.

    ``basicConfig`` adds the root's stderr handler, and sets its level, only
    where the root has no handler yet, so the level is set here on every call.
    """
    import logging  # only a run that sets MEANFIELD_LOG pays for it

    level = logging.getLevelName(name.upper())  # the level number of a known name, else a string
    if not isinstance(level, int):
        return None
    logging.basicConfig(level=level)
    logging.getLogger().setLevel(level)  # which basicConfig leaves as it is once the root has a handler
    return logging.getLogger("meanfield")


def main(argv=None) -> int:
    name = os.environ.get("MEANFIELD_LOG")
    log = None  # unset or empty: "warning", at which meanfield logs nothing
    if name:
        log = _logger(name)
        if log is None:
            message = f"error: MEANFIELD_LOG must be a logging level name such as debug or info, got {name!r}"
            print(message, file=sys.stderr)
            return EXIT_USAGE
    parser = argparse.ArgumentParser(prog="meanfield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_fit = sub.add_parser("fit", help="run a model fit from a config file")
    p_fit.add_argument("--config", required=True)
    p_fit.set_defaults(func=functools.partial(cmd_fit, log=log))
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
