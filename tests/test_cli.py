"""The batch front end: config parsing, CSV loading, trace output, exit codes."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanfield
from meanfield import cli, engine, expfam, models


def _write(path, text):
    path.write_text(text)
    return str(path)


def _fit_config(tmp_path, data_text, extra="", model="two_level"):
    data = _write(tmp_path / "data.csv", data_text)
    out = str(tmp_path / "trace.txt")
    cfg = _write(
        tmp_path / "run.cfg",
        f"model={model}\ndata_path={data}\noutput_path={out}\n{extra}",
    )
    return cfg, out


def test_simple_mixture_run_recovers_bayes_posterior(tmp_path):
    cfg, out = _fit_config(tmp_path, "0.3,0.8,0.2\n", model="simple_mixture")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[-1].startswith("param z mu ")
    assert float(lines[-1].split()[-1]) == pytest.approx(0.24 / 0.38, abs=1e-12)
    conv = [ln for ln in lines if ln.startswith("converged")][0]
    assert conv == "converged=true iterations=1"


def test_simple_mixture_with_a_likelihood_at_the_float_minimum_converges(tmp_path, capsys):
    """pi0 * pa underflows to 0 for pa = 5e-324; log pi0 + log pa does not."""
    cfg, out = _fit_config(tmp_path, "0.3,5e-324,0.5\n", model="simple_mixture")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    lines = open(out).read().splitlines()
    assert "converged=true iterations=1" in lines
    assert float(lines[-1].split()[-1]) <= 1e-300  # the mean of z, at the Bernoulli clip


def test_two_level_trace_monotone_elbo(tmp_path):
    rng = np.random.default_rng(2)
    rows = "\n".join(
        f"{a},{b}" for a, b in zip(rng.normal(-1, 1, 10), rng.normal(1, 1, 10))
    )
    cfg, out = _fit_config(tmp_path, rows + "\n", extra="alpha0=2\nbeta0=2\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    elbos = [
        float(ln.split()[1].split("=")[1])
        for ln in open(out)
        if ln.startswith("iter=")
    ]
    assert len(elbos) >= 2
    assert np.all(np.diff(elbos) >= -1e-10)


def test_identical_runs_are_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(6, 2)))
    cfg, out = _fit_config(tmp_path, rows + "\n", extra="seed=7\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    first = open(out, "rb").read()
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    assert open(out, "rb").read() == first


def test_max_iter_zero_writes_initial_record_and_exits_2(tmp_path):
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n", extra="max_iter=0\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_NO_CONVERGENCE
    iters = [ln for ln in open(out) if ln.startswith("iter=")]
    assert len(iters) == 1 and iters[0].startswith("iter=0 ")


def test_malformed_row_names_row_and_arity(tmp_path, capsys):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n0.2\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "row 2" in err and "expected 2" in err


def test_non_numeric_cell_rejected(tmp_path, capsys):
    cases = [
        ("0.1,oops\n", 1),
        ("0.1,0.4\n0.2,nan\n", 2),
        ("0.1,0.4\n0.2,0.3\ninf,0.5\n", 3),
        ("-inf,0.4\n", 1),
    ]
    for rows, bad_row in cases:
        cfg, _ = _fit_config(tmp_path, rows)
        assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
        assert f"row {bad_row}" in capsys.readouterr().err


def test_the_first_bad_row_is_named_whatever_its_fault(tmp_path, capsys):
    """Finiteness is checked once per file, yet a non-finite row is named before a later malformed one."""
    cases = [
        ("0.1,0.4\n0.2,nan\n0.3\n", "row 2: every cell must be a finite number"),
        ("0.1,0.4\n0.2,inf\n0.3,x\n", "row 2: every cell must be a finite number"),
        ("0.1,0.4\n0.2\n0.3,inf\n", "row 2 has 1 fields, expected 2"),
        ("# header\n\n0.1,0.4\n-inf,0.2\n", "row 4: every cell must be a finite number"),
    ]
    for rows, message in cases:
        cfg, _ = _fit_config(tmp_path, rows)
        assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err


def _run_python(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, so its output holds everything a user would see."""
    src = str(Path(meanfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def _run_cli(cfg: str) -> subprocess.CompletedProcess:
    """meanfield fit as a subprocess."""
    return _run_python("-m", "meanfield.cli", "fit", "--config", cfg)


def test_cli_import_loads_no_scipy():
    """scipy serves the oracle cross-checks only; importing it would slow every CLI start."""
    proc = _run_python(
        "-c", "import sys, meanfield.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_all_and_a_fit_run_without_scipy(tmp_path):
    """scipy is a test dependency only: with its import blocked, the checks and a fit still run."""
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n0.5,-0.1\n")
    no_scipy = "import sys; sys.modules['scipy'] = None; from meanfield import cli; sys.exit(cli.main(sys.argv[1:]))"
    check = _run_python("-c", no_scipy, "check", "all")
    assert check.returncode == cli.EXIT_OK, check.stderr
    assert check.stdout.splitlines() == [
        "suite=roundtrip passed=400 failed=0",
        "suite=multilinearity passed=403 failed=0",
        "suite=monotonicity passed=6 failed=0",
    ]
    fit = _run_python("-c", no_scipy, "fit", "--config", cfg)
    assert fit.returncode == cli.EXIT_OK, fit.stderr
    assert "converged=true" in open(out).read()


@pytest.mark.parametrize(
    "value, code",
    [("bogus", cli.EXIT_USAGE), ("5", cli.EXIT_USAGE), ("", cli.EXIT_OK), ("Debug", cli.EXIT_OK)],
    ids=["bogus", "number", "empty", "mixed-case"],
)
def test_meanfield_log_is_a_level_name_or_a_usage_error(tmp_path, value, code):
    """An empty MEANFIELD_LOG is unset; a name logging does not know is one error line naming it."""
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n")
    proc = _run_python("-m", "meanfield.cli", "fit", "--config", cfg, MEANFIELD_LOG=value)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == cli.EXIT_USAGE:
        assert proc.stderr.splitlines() == [
            f"error: MEANFIELD_LOG must be a logging level name such as debug or info, got {value!r}"
        ]
        assert not os.path.exists(out)


def test_cli_import_loads_no_check_suites():
    """Only ``meanfield check`` runs the invariant suites, so ``meanfield fit`` does not import them."""
    proc = _run_python("-c", "import sys, meanfield.cli; print('meanfield.checks' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_extreme_prior_mean_exits_without_traceback(tmp_path):
    """A logit-normal prior mean far out in the tail (m = 30) drives the weight's alpha to ~1e13.

    The default core's read-off is closed form, so nothing fails to
    converge: the fit ends with a trace and no traceback.
    """
    rng = np.random.default_rng(0)
    rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(10, 2)))
    cfg, out = _fit_config(tmp_path, rows + "\n", extra="m=30\n", model="logitnormal")
    proc = _run_cli(cfg)
    assert proc.returncode in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE), proc.stderr
    assert "Traceback" not in proc.stderr
    pi = [ln.split() for ln in open(out) if ln.startswith("param pi lambda ")][0]
    assert float(pi[3]) > 1e12 and 0.0 < float(pi[4]) < 1.0


def test_non_finite_target_names_node_without_warning(tmp_path):
    """Finite log-likelihoods whose difference overflows fail fast on the node they feed."""
    cfg, _ = _fit_config(tmp_path, "1e308,-1e308\n")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert "'z0'" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_prior_prints_one_error_line_and_no_warning(tmp_path):
    """A huge nu0 overflows the expectations; the engine's non-finite check is the one line printed."""
    cfg, _ = _fit_config(tmp_path, "0.1,0.2\n-1,0.5\n2,2\n0.3,-0.2\n", extra="nu0=1e308\n", model="gmm2")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "is not finite" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "model, rows",
    [
        ("gmm2", "0.5,0.2\n1e200,1e200\n-0.3,0.1\n1.0,-0.5\n"),
        ("matfac_vmp", "0.5,0.2,0.1\n1e200,0.3,0.2\n-0.3,0.1,0.4\n"),
    ],
)
def test_huge_finite_gaussian_data_rejected_without_warning(tmp_path, model, rows):
    """Observations whose squares overflow are rejected on entry, naming the field."""
    cfg, _ = _fit_config(tmp_path, rows, extra="k=1\n" if model.startswith("matfac") else "", model=model)
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("error: y is too large")
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gmm2_outlier_names_the_component_it_breaks(tmp_path):
    """One outlier makes a component's W^-1 numerically indefinite; the error names the node and W^-1."""
    cfg, _ = _fit_config(tmp_path, "0.1,0.2\n-1,0.5\n1e20,1e20\n0.3,-0.2\n", model="gmm2")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: update of node 'comp_")
    assert "W^-1 must be symmetric positive-definite, got [[" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gmm2_moderate_outlier_fits(tmp_path):
    """A W^-1 that passes its Cholesky check converts through that factor, however ill-conditioned."""
    cfg, out = _fit_config(tmp_path, "0.1,0.2\n-1,0.5\n1e8,1e8\n0.3,-0.2\n", model="gmm2")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n", extra="turbo=yes\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert "unknown config keys" in capsys.readouterr().err


def test_unknown_model_rejected(tmp_path):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n", model="deep_transformer")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT


def test_duplicate_config_key_rejected(tmp_path):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n", extra="seed=1\nseed=2\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT


@pytest.mark.parametrize("line", ["=5", " = "])
def test_a_config_line_with_an_empty_key_is_named(tmp_path, capsys, line):
    """A line whose key is empty is no key=value line: the error names the file, the line and its text."""
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n", extra=f"{line}\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {cfg}:4: expected key=value, got {line.strip()!r}\n"
    assert not os.path.exists(out)


def test_missing_data_file_rejected(tmp_path):
    cfg = _write(
        tmp_path / "run.cfg",
        f"model=two_level\ndata_path={tmp_path}/nope.csv\noutput_path={tmp_path}/t.txt\n",
    )
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT


@pytest.mark.parametrize("kind", ["config", "data"])
def test_a_latin_1_line_is_named_as_not_utf_8(tmp_path, capsys, kind):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n")
    path = cfg if kind == "config" else str(tmp_path / "data.csv")
    first, *rest = open(path, "rb").read().splitlines(keepends=True)
    with open(path, "wb") as fh:
        fh.write(b"".join([first, "# café\n".encode("latin-1"), *rest]))
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 2 is not UTF-8 text (byte 0xe9: invalid continuation byte)\n"


@pytest.mark.parametrize("kind", ["config", "data"])
def test_a_utf_8_byte_order_mark_is_skipped(tmp_path, capsys, kind):
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    plain = open(out, "rb").read()
    path = cfg if kind == "config" else str(tmp_path / "data.csv")
    text = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8-sig") as fh:
        fh.write(text)
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert open(out, "rb").read() == plain


@pytest.mark.parametrize("where", ["missing/trace.txt", "."])
def test_unwritable_output_path_is_named(tmp_path, where):
    """A trace path in a missing directory, or one that is a directory, is one error line naming it."""
    data, out = _write(tmp_path / "data.csv", "0.1,0.4\n"), str(tmp_path / where)
    cfg = _write(tmp_path / "run.cfg", f"model=two_level\ndata_path={data}\noutput_path={out}\n")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith(f"error: cannot write trace {out}: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_gmm_fit_via_cli(tmp_path):
    rng = np.random.default_rng(5)
    y = np.concatenate(
        [rng.normal(-3, 0.5, (15, 2)), rng.normal(3, 0.5, (15, 2))]
    )
    rows = "\n".join(f"{a},{b}" for a, b in y)
    cfg, out = _fit_config(
        tmp_path, rows + "\n", model="gmm2", extra="nu0=3\nmax_iter=300\n"
    )
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_OK
    assert any(ln.startswith("param comp_a lambda") for ln in open(out))


_TWO_COLUMNS = "0.1,0.4\n-0.3,0.2\n0.5,-0.1\n"
_GMM_ROWS = "-2,0.1\n-2.3,-0.2\n-1.8,0.3\n-2.1,0\n2,0.2\n2.2,-0.1\n1.9,0.1\n2.1,-0.3\n"
_MATRIX = "0.5,-1.2,0.3\n1.1,0.4,-0.7\n-0.2,0.9,1.5\n0.8,-0.3,0.1\n"
_CSV = {"simple_mixture": "0.3,0.8,0.2\n", "two_level": _TWO_COLUMNS, "gmm2": _GMM_ROWS, "logitnormal": _TWO_COLUMNS}


def _by_hand(model: str, y: np.ndarray):
    """The model and data the Python API builds from the CSV's array with the data class's defaults."""
    if model == "simple_mixture":
        data = models.SimpleMixtureData(*y[0])
        return models.build_simple_mixture(data), data
    if model == "two_level":
        data = models.TwoLevelMixtureData(y[:, 0], y[:, 1])
        return models.build_two_level(data), data
    if model == "gmm2":
        data = models.GMMData(y)
        return models.build_gmm2(data), data
    if model == "logitnormal":
        data = models.LogitNormalMixtureData(y[:, 0], y[:, 1])
        return models.build_logitnormal(data), data
    data = models.MatrixFactorizationData(y)
    return models.build_matfac(data, model.split("_")[1]), data


def _same_trace_by_hand(tmp_path, model, csv_text, extra, schedule):
    cfg, out = _fit_config(tmp_path, csv_text, extra=extra, model=model)
    code = cli.main(["fit", "--config", cfg])
    trace = engine.fit(*_by_hand(model, np.loadtxt(io.StringIO(csv_text), delimiter=",", ndmin=2)), schedule)
    cli.write_trace(str(tmp_path / "by_hand.txt"), trace)
    assert code == (cli.EXIT_OK if trace.converged else cli.EXIT_NO_CONVERGENCE)
    assert Path(out).read_bytes() == (tmp_path / "by_hand.txt").read_bytes()


@pytest.mark.parametrize("model", cli._MODELS)
def test_a_config_with_no_model_keys_fits_the_data_class_defaults(tmp_path, model):
    _same_trace_by_hand(tmp_path, model, _CSV.get(model, _MATRIX), "", engine.Schedule())  # the matfac models take _MATRIX


@pytest.mark.parametrize("model, csv_text", [("two_level", _TWO_COLUMNS), ("gmm2", _GMM_ROWS)], ids=["two_level", "gmm2"])
def test_a_parallel_config_with_no_rho_fits_the_schedule_default(tmp_path, model, csv_text):
    _same_trace_by_hand(tmp_path, model, csv_text, "schedule=parallel\n", engine.Schedule(engine.PARALLEL_BLR))


@pytest.mark.parametrize("max_iter", ["0", "5"])
def test_an_svi_config_for_a_model_svi_cannot_step_is_one_error_line_and_no_trace(tmp_path, capsys, max_iter):
    cfg, out = _fit_config(tmp_path, _GMM_ROWS, extra=f"schedule=svi\nmax_iter={max_iter}\n", model="gmm2")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: SVI requires one local plate and one single-node global plate, got ['z'] and ['pi', 'comp']\n"
    )
    assert not os.path.exists(out)


def test_check_known_suites(capsys):
    assert cli.main(["check", "roundtrip"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "suite=roundtrip" in out and "failed=0" in out


def test_check_all_aggregates(capsys):
    assert cli.main(["check", "all"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for name in ("roundtrip", "multilinearity", "monotonicity"):
        assert f"suite={name}" in out


def test_check_unknown_suite_is_usage_error(capsys):
    assert cli.main(["check", "spectral"]) == cli.EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


def test_a_failed_round_trip_is_counted_and_named_by_check(monkeypatch, capsys):
    """One conversion off by 1 in lambda_0: ``check`` prints the counts, then that trial's message, and exits 1."""
    real, calls = expfam.mean_to_nat, []

    def off_on_the_third_call(mu):
        lam = real(mu)
        calls.append(None)
        if len(calls) != 3:
            return lam
        values = lam.values.copy()
        values[0] += 1.0
        return expfam.NaturalParam(lam.family, values)

    monkeypatch.setattr(expfam, "mean_to_nat", off_on_the_third_call)
    assert cli.main(["check", "roundtrip"]) == cli.EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suite=roundtrip passed=399 failed=1"
    assert len(lines) == 2 and re.fullmatch(r"  roundtrip bernoulli trial 2: relative error \S+", lines[1]), lines


def test_an_elbo_drop_is_counted_and_named_by_check(monkeypatch, capsys):
    """A fit whose ELBO falls at sweep 2: ``check`` prints the counts, then the model and sweep, and exits 1."""
    real = engine.fit

    def falling_for_simple_mixture(model, data, *args, **kwargs):
        trace = real(model, data, *args, **kwargs)
        if isinstance(model.provider, models.SimpleMixtureProvider):
            trace.records = [engine.TraceRecord(t, elbo, 1.0, 0.0) for t, elbo in enumerate([-3.0, -2.0, -2.5])]
        return trace

    monkeypatch.setattr(engine, "fit", falling_for_simple_mixture)
    assert cli.main(["check", "monotonicity"]) == cli.EXIT_INPUT
    assert capsys.readouterr().out == (
        "suite=monotonicity passed=5 failed=1\n  monotonicity simple_mixture: ELBO decreased at sweep 2\n"
    )


def test_bad_arguments_are_usage_errors(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["fit"]) == cli.EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, key",
    [
        ("tol=nan\n", "tol"),
        ("tau=inf\nschedule=svi\n", "tau"),
        ("tau=nan\nschedule=svi\n", "tau"),
        ("tau=0\nschedule=svi\n", "tau"),
        ("tau=0.5\nschedule=svi\n", "tau"),
        ("max_iter=2.5\n", "max_iter"),
        ("seed=1.5\n", "seed"),
        ("seed=-1\n", "seed"),
        ("rho=fast\n", "rho"),
        ("rho=0\n", "rho"),
        ("alpha0=0\n", "alpha0"),
        ("beta0=-1\n", "beta0"),
        ("alpha0=1e-300\n", "alpha0"),
        ("beta0=1e-300\n", "beta0"),
        ("k=0\n", "k"),
        ("delta_u=0\n", "delta_u"),
        ("delta_v=-2\n", "delta_v"),
        ("kappa=0.3\n", "kappa"),
        ("max_iter=-1\n", "max_iter"),
        ("nu0=0.5\n", "nu0"),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, extra, key):
    """The one error line names the key and ends with the value it got, quoted or not."""
    model = "matfac_vmp" if key in ("k", "delta_u", "delta_v") else "gmm2" if key == "nu0" else "two_level"
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n", extra=extra, model=model)
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith(f"error: {key} ") and proc.stderr.count("\n") == 1
    value = extra.splitlines()[0].partition("=")[2]
    assert proc.stderr.rstrip().replace("'", "").endswith(f"got {value}")
    assert "Traceback" not in proc.stderr


_KNOWN_MODELS = "simple_mixture, two_level, gmm2, matfac_vmp, matfac_ppca, matfac_als, logitnormal"


@pytest.mark.parametrize(
    "text, line",
    [
        ("model=gmm3\n", f"error: unknown model 'gmm3' (choose from: {_KNOWN_MODELS})\n"),
        ("model=gmm2  # not a comment\n", f"error: unknown model 'gmm2  # not a comment' (choose from: {_KNOWN_MODELS})\n"),
        ("# model=gmm2\n", f"error: config must set model to one of {_KNOWN_MODELS}\n"),
    ],
    ids=["unknown", "trailing-comment", "unset"],
)
def test_a_model_set_but_unknown_is_named_and_an_unset_one_is_asked_for(tmp_path, capsys, text, line):
    cfg = _write(tmp_path / "run.cfg", f"{text}data_path=d.csv\noutput_path=t.txt\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == line


def test_a_negative_max_iter_is_the_engine_s_count_error(tmp_path, capsys):
    cfg, out = _fit_config(tmp_path, "0.1,0.4\n", extra="max_iter=-1\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: max_iter must be a nonnegative integer, got -1\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "model, extra, key",
    [("matfac_vmp", "delta_u=1e-320", "delta_u"), ("matfac_ppca", "delta_v=5e-309", "delta_v")],
)
def test_a_delta_whose_prior_variance_overflows_is_named(tmp_path, model, extra, key):
    """The prior variance 1/delta overflows at build: the data class names the key, not a Gaussian failure."""
    cfg, _ = _fit_config(tmp_path, "0.5,-1.2\n1.1,0.4\n-0.2,0.9\n", extra=f"{extra}\n", model=model)
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    value = extra.partition("=")[2]
    assert proc.stderr == f"error: {key} is too small: the prior variance 1 / {key} overflows, got {value}\n"


def test_a_w0_whose_inverse_overflows_is_named(tmp_path):
    """The prior's W0^-1 overflows at build: the data class names w0, with no numpy warning before it."""
    cfg, out = _fit_config(tmp_path, "0.1,0.2\n-1,0.5\n0.3,-0.2\n", extra="w0_scale=3e-309\n", model="gmm2")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr == "error: w0 is too small: its inverse overflows, smallest eigenvalue 3e-309\n"
    assert not os.path.exists(out)


def test_a_small_delta_whose_prior_variance_is_finite_still_fits(tmp_path):
    cfg, out = _fit_config(tmp_path, "0.5,-1.2\n1.1,0.4\n-0.2,0.9\n", extra="delta_u=1e-300\n", model="matfac_vmp")
    assert cli.main(["fit", "--config", cfg]) in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
    assert open(out).read().count("converged=") == 1


def test_a_model_too_large_for_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A MemoryError, as numpy raises for ``k=100000000000``, is reported like any input error; nothing is allocated here."""

    def too_large(data, seed=0):
        raise MemoryError("Unable to allocate 7.28 EiB for an array with shape (100000000000, 100000000000)")

    monkeypatch.setitem(cli._TABLE, "matfac_vmp", cli._TABLE["matfac_vmp"][:2] + (too_large,) + cli._TABLE["matfac_vmp"][3:])
    cfg, out = _fit_config(tmp_path, "0.5,-1.2\n1.1,0.4\n-0.2,0.9\n0.8,-0.3\n", extra="k=3\n", model="matfac_vmp")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 EiB for an array with shape (100000000000, 100000000000)\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "extra, line",
    [
        ("kappa=0.3\n", "kappa must lie in (0.5, 1], got 0.3"),
        ("tau=0.5\nschedule=svi\n", "tau must be finite and at least 1, got 0.5"),
        ("schedule=bogus\n", "unknown schedule kind 'bogus'"),
        ("seed=-1\n", "seed must be a nonnegative integer, got -1"),
    ],
    ids=["kappa", "tau", "schedule", "seed"],
)
def test_a_bad_schedule_value_is_rejected_before_the_data_file_is_opened(tmp_path, extra, line, capsys):
    """The engine's Schedule is built as the config is read, so its error comes before the missing data file's."""
    missing = tmp_path / "missing.csv"
    cfg = _write(tmp_path / "run.cfg", f"model=two_level\ndata_path={missing}\noutput_path=t.txt\n{extra}")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "value, line",
    [
        ("inf", "tol must be positive and finite, got inf"),
        ("1e400", "tol must be positive and finite, got inf"),
        ("nan", "tol must be positive, got nan"),
    ],
    ids=["inf", "overflow", "nan"],
)
def test_a_tol_that_is_not_positive_and_finite_is_rejected_before_the_data_file_is_opened(
    tmp_path, value, line, capsys
):
    """An infinite tol once wrote converged=true after 0 iterations; it is the engine's error line, read first."""
    missing = tmp_path / "missing.csv"
    cfg = _write(tmp_path / "run.cfg", f"model=two_level\ndata_path={missing}\noutput_path=t.txt\ntol={value}\n")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "row, line",
    [("0.3,0,0.5", "pa must be positive, got 0"), ("0.3,0.5,-1", "pb must be positive, got -1")],
    ids=["pa", "pb"],
)
def test_a_simple_mixture_likelihood_that_is_not_positive_is_named(tmp_path, row, line, capsys):
    cfg, _ = _fit_config(tmp_path, row + "\n", model="simple_mixture")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("model", ["two_level", "gmm2"])
@pytest.mark.parametrize("value", ["1e308", "9e307"])
def test_beta_prior_exponents_whose_sum_overflows_are_one_error_naming_alpha0(tmp_path, model, value):
    """The prior's psi(alpha0 + beta0) would read psi(inf); the data class rejects the pair where it enters."""
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n", extra=f"alpha0={value}\nbeta0={value}\n", model=model)
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr == f"error: alpha0 + beta0 must be finite, got {float(value):g} + {float(value):g}\n"


def test_non_integer_k_is_rejected_not_truncated(tmp_path, capsys):
    cfg, _ = _fit_config(tmp_path, "0.5,0.2,0.1\n0.3,0.3,0.2\n", extra="k=2.5\n", model="matfac_vmp")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: k must be an integer, got '2.5'\n"


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_gmm2_w0_that_is_not_positive_definite_is_named(tmp_path, scale, capsys):
    rows = "0.5,0.2\n-0.3,0.1\n1.0,-0.5\n"
    cfg, _ = _fit_config(tmp_path, rows, extra=f"w0_scale={scale}\n", model="gmm2")
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: w0 must be positive definite")


def test_logitnormal_huge_m_rejected_without_warning(tmp_path):
    cfg, _ = _fit_config(tmp_path, "0.1,0.4\n-0.3,0.2\n", extra="m=1e308\n", model="logitnormal")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.startswith("error: m is too large")
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_logitnormal_weight_whose_mean_rounds_to_zero_fits():
    """With m=45 the weight's a grows until psi(a) - psi(a+b) rounds to 0, which is still its expectation."""
    code, stdout, stderr, trace = _fit_in_process({"model": "logitnormal", "m": "45"}, "0,0\n0,0\n")
    assert (code, stdout, stderr) == (cli.EXIT_OK, "", "")
    assert "param pi mu 0 " in trace


# ---------------------------------------------------------------------------
# property: any input ends in one exit code, one error line or a trace
# ---------------------------------------------------------------------------


def _fit_in_process(config: dict, csv_text: str):
    """``meanfield fit`` on a config and CSV in a fresh directory: (exit code, stdout, stderr, trace or None).

    Every warning is an error, so a warning escapes as an exception.
    """
    with tempfile.TemporaryDirectory() as tmp:
        data, out, cfg = (os.path.join(tmp, name) for name in ("data.csv", "trace.txt", "run.cfg"))
        with open(data, "w") as fh:
            fh.write(csv_text)
        with open(cfg, "w") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in {**config, "data_path": data, "output_path": out}.items()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["fit", "--config", cfg])
        trace = open(out).read() if os.path.exists(out) else None
    return code, stdout.getvalue(), stderr.getvalue(), trace


# a cell in +-50, or now and then an outlier of magnitude 1 to 1e150
_CELL = st.tuples(st.integers(0, 15), st.floats(-50.0, 50.0), st.floats(0.0, 150.0)).map(
    lambda t: t[1] if t[0] else math.copysign(10.0 ** t[2], t[1])
)
_POSITIVE = st.floats(0.1, 50.0)


class _Line(str):
    """A CSV line that holds no data, blank or a comment: a one-cell row whose ``repr`` is the line as written."""

    def __repr__(self):
        return str(self)


@st.composite
def _valid_runs(draw):
    """An in-domain config for one of the seven models, max_iter <= 60, and a CSV of the model's shape.

    The CSV may hold a single data row, and blank and comment lines among its rows.
    """
    model = draw(st.sampled_from(cli._MODELS))
    config = {
        "model": model,
        "schedule": draw(st.sampled_from(["cavi", "parallel"] + (["svi"] if model in ("two_level", "logitnormal") else []))),
        "rho": draw(st.floats(0.05, 1.0)),
        "kappa": draw(st.floats(0.51, 1.0)),
        "tau": draw(st.floats(1.0, 10.0)),
        "tol": 10.0 ** draw(st.floats(-12.0, -2.0)),
        "max_iter": draw(st.integers(0, 60)),
        "seed": draw(st.integers(0, 1000)),
    }
    if model == "simple_mixture":
        rows = [[draw(st.floats(0.01, 0.99)), draw(st.floats(1e-3, 50.0)), draw(st.floats(1e-3, 50.0))]]
    else:
        width = 2 if model in ("two_level", "logitnormal") else draw(st.integers(1, 3 if model == "gmm2" else 5))
        rows = draw(st.lists(st.lists(_CELL, min_size=width, max_size=width), min_size=1, max_size=12))
    keys = {
        "simple_mixture": {},
        "two_level": {"alpha0": _POSITIVE, "beta0": _POSITIVE},
        "gmm2": {
            "alpha0": _POSITIVE,
            "beta0": _POSITIVE,
            "gamma0": _POSITIVE,
            "nu0": st.floats(len(rows[0]) - 0.9, len(rows[0]) + 20.0),
            "w0_scale": st.floats(0.1, 10.0),
        },
        "logitnormal": {"m": st.floats(-50.0, 50.0)},
    }.get(model, {"k": st.integers(1, 4), "delta_u": st.floats(0.1, 10.0), "delta_v": st.floats(0.1, 10.0)})
    for key, values in keys.items():
        if draw(st.booleans()):
            config[key] = draw(values)
    for _ in range(draw(st.integers(0, 2))):
        line = _Line(draw(st.sampled_from(["", "   ", "#", "# a comment, 1.5", "#nan"])))
        rows.insert(draw(st.integers(0, len(rows))), [line])
    return {k: repr(v) if isinstance(v, float) else v for k, v in config.items()}, rows


@settings(max_examples=50, derandomize=True, deadline=None)
@given(run=_valid_runs())
def test_an_in_domain_fit_exits_with_a_trace_or_one_error_line(run):
    """Exit 0 or 2 prints nothing and writes the trace; exit 1 prints one error line and writes none."""
    config, rows = run
    code, stdout, stderr, trace = _fit_in_process(config, "".join(",".join(map(repr, r)) + "\n" for r in rows))
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_NO_CONVERGENCE)
    assert stdout == ""
    if code == cli.EXIT_INPUT:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
        assert trace is None
    else:
        assert stderr == ""
        lines = trace.splitlines()
        assert lines[0].startswith("iter=0 elbo=")
        [status] = [ln for ln in lines if ln.startswith("converged=")]
        assert status.startswith(f"converged={'true' if code == cli.EXIT_OK else 'false'} ")


_HOSTILE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "abc", "", "-1", "0", "2.5", "1e-320", "0x10"])


@st.composite
def _hostile_runs(draw):
    """An in-domain run with one to three faults: a non-finite, garbage or out-of-domain value, an unknown
    model, schedule or key, or a wrong cell count."""
    config, rows = draw(_valid_runs())
    rows = [list(map(repr, r)) for r in rows]
    for fault in draw(st.lists(st.sampled_from(["cell", "count", "value", "schedule", "key", "model"]), min_size=1, max_size=3)):
        if fault == "value":
            config[draw(st.sampled_from(sorted(set(config) - {"model"})))] = draw(_HOSTILE)
        elif fault == "model":
            config["model"] = draw(st.sampled_from(["nope", ""]))
        elif fault == "schedule":
            config["schedule"] = draw(st.sampled_from(["bogus", "", "CAVI", "svi"]))
        elif fault == "key":  # unknown to some models, of the wrong type for others
            config[draw(st.sampled_from(["turbo", "k", "m", "alpha0", "nu0"]))] = repr(draw(st.floats(-50.0, 50.0)))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(_HOSTILE)
            elif draw(st.booleans()):
                row.pop()
            else:
                row.append(repr(draw(_CELL)))
    return config, "".join(",".join(r) + "\n" for r in rows)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(run=_hostile_runs())
def test_a_hostile_fit_exits_with_a_known_code(run):
    """Whatever the config and CSV hold, the fit ends in a known exit code, with no exception escaping."""
    code, stdout, stderr, _ = _fit_in_process(*run)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_NO_CONVERGENCE, cli.EXIT_USAGE)
    assert stdout == ""
    assert stderr == "" if code != cli.EXIT_INPUT else stderr.startswith("error: ") and stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# the fast CSV reader against the strict one, and the chunked trace writer
# ---------------------------------------------------------------------------


# a cell padded with a byte \x1c-\x1f, which numpy's reader strips and float does not, is drawn too
_LOADER_CELL = st.one_of(
    _CELL.map(repr), _HOSTILE, st.sampled_from(["1_000", " 2.5 ", "+1", "-0", "\u0661", "\x1c4", "2.5\x1f", "\x1d-1\x1e "])
)
# lines that hold no data row: blank, white space, a comment, or a comment that is not UTF-8
_NO_DATA = st.sampled_from(["", "   ", "\t", "#", "# a comment, 1.5", "#nan", "1.5,#2", "# caf\xe9".encode("latin-1")])


@st.composite
def _csv_files(draw):
    """(file bytes, expected column count): rows of in-domain or hostile cells among lines that hold no data.

    A file may have no lines at all, no data rows, or one; a row may have the wrong cell count; CRLF line
    ends, a byte-order mark and no final line end are drawn too.
    """
    width = draw(st.integers(1, 3))
    cells = draw(st.sampled_from([_CELL.map(repr), _LOADER_CELL]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        count = draw(st.sampled_from([width] * 6 + [width + 1, width - 1]))
        lines.append(",".join(draw(st.lists(cells, min_size=count, max_size=count))))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NO_DATA))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = end.join(ln if isinstance(ln, bytes) else ln.encode() for ln in lines)
    if lines and draw(st.booleans()):
        data += end
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, draw(st.sampled_from([None, width, width + 1]))


def _load_or_error(load, path, cols):
    """(array, None) or (None, the error line) of one reader, and whatever it wrote to stderr or warned."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = load(path, cols), None
        except cli.InputError as exc:
            got = None, str(exc)
    return got, stderr.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(csv=_csv_files())
@example(csv=(b"", 2))  # an empty file
@example(csv=(b"\xef\xbb\xbf", None))  # a byte-order mark alone
@example(csv=(b"\n# only a comment\n\n", 2))  # no data rows
@example(csv=(b"0.5,1e-320\r\n", 2))  # one row, CRLF
@example(csv=(b"\xef\xbb\xbf0.5,-1\r\n2,3\r\n", 2))  # a byte-order mark and CRLF
@example(csv=(b"1_000,2\n", 2))  # a number Python reads and numpy does not
@example(csv=(b"0.5,1\n2,-inf\n", None))  # a non-finite cell numpy reads
@example(csv=(b"1,\x1c4\n", 2))  # a separator byte before a cell, which numpy strips
def test_load_csv_gives_the_strict_reader_s_array_bitwise_or_its_error_line(csv):
    """The strict reader, kept as the reference, is what ``load_csv`` read before it tried numpy's reader first."""
    data, cols = csv
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        (arr, error), stderr, warned = _load_or_error(cli.load_csv, path, cols)
        (want, want_error), _, _ = _load_or_error(cli._load_csv_strictly, path, cols)
    assert (stderr, warned) == ("", [])
    assert error == want_error
    if want is not None:
        assert (arr.dtype, arr.shape, arr.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _write_trace_by_join(path, trace):
    """The trace writer as it was before it wrote in chunks: every line built, joined and written at once."""
    fmt = cli._fmt
    lines = [f"iter={rec.iteration} elbo={fmt(rec.elbo)} residual={fmt(rec.residual)}\n" for rec in trace.records]
    lines.append(f"converged={'true' if trace.converged else 'false'} iterations={trace.records[-1].iteration}\n")
    for plate in trace.plates.values():
        for nid, lam, mu in zip(plate.ids, plate.lam.values.tolist(), plate.mu.values.tolist()):
            lines.append(f"param {nid} lambda {' '.join(map(fmt, lam))}\nparam {nid} mu {' '.join(map(fmt, mu))}\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))


_WRITER_DATA = {
    "simple_mixture": np.array([[0.3, 0.8, 0.2]]),
    "two_level": np.random.default_rng(11).normal(size=(7, 2)),
    "gmm2": np.loadtxt(io.StringIO(_GMM_ROWS), delimiter=","),
    "logitnormal": np.random.default_rng(12).normal(size=(7, 2)),
    **{m: np.random.default_rng(13).normal(size=(6, 5)) for m in ("matfac_vmp", "matfac_ppca", "matfac_als")},
}


@pytest.mark.parametrize("model", cli._MODELS)
def test_every_cli_model_s_provider_holds_only_its_plates(model):
    """A provider states its model's coefficients: it holds its plate layout and nothing else."""
    spec, _ = _by_hand(model, _WRITER_DATA[model])
    assert set(vars(spec.provider)) <= {"plates"}
    assert set(spec.provider.plates) == set(spec.plates)


@pytest.mark.parametrize(
    "model, kind",
    [
        (model, kind)
        for model in cli._MODELS
        for kind in (engine.CAVI, engine.SVI, engine.PARALLEL_BLR)
        if kind != engine.SVI or model in ("two_level", "logitnormal")  # the models SVI can step
    ],
)
def test_the_chunked_trace_writer_writes_the_joined_trace_s_bytes(tmp_path, monkeypatch, model, kind):
    """With chunks of 3 rows, every plate of more than 3 rows crosses a chunk boundary."""
    trace = engine.fit(*_by_hand(model, _WRITER_DATA[model]), engine.Schedule(kind, seed=3), max_iter=6)
    assert any(len(p.ids) > 3 for p in trace.plates.values()) or model == "simple_mixture"
    _write_trace_by_join(tmp_path / "joined.txt", trace)
    want = (tmp_path / "joined.txt").read_bytes()
    cli.write_trace(str(tmp_path / "default.txt"), trace)
    monkeypatch.setattr(cli, "_TRACE_CHUNK", 3)
    cli.write_trace(str(tmp_path / "chunked.txt"), trace)
    assert (tmp_path / "default.txt").read_bytes() == want
    assert (tmp_path / "chunked.txt").read_bytes() == want
