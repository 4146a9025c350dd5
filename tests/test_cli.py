"""The batch front end: config parsing, CSV loading, trace output, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanfield
from meanfield import cli


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


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, so its output holds everything a user would see."""
    src = str(Path(meanfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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


def test_numerical_failure_exits_1_without_traceback(tmp_path):
    """A quadrature that does not converge is reported, not raised."""
    rng = np.random.default_rng(0)
    rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(10, 2)))
    cfg, _ = _fit_config(tmp_path, rows + "\n", extra="m=30\n", model="logitnormal")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: quadrature for the natural gradient did not converge")


def test_non_finite_target_names_node_without_warning(tmp_path):
    """Finite log-likelihoods whose difference overflows fail fast on the node they feed."""
    cfg, _ = _fit_config(tmp_path, "1e308,-1e308\n")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert "'z0'" in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


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
    """One moderate outlier makes a component's W^-1 numerically singular; the error names the node and W^-1."""
    cfg, _ = _fit_config(tmp_path, "0.1,0.2\n-1,0.5\n1e8,1e8\n0.3,-0.2\n", model="gmm2")
    proc = _run_cli(cfg)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: update of node 'comp_")
    assert "W^-1 could not be inverted: [[" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_missing_data_file_rejected(tmp_path):
    cfg = _write(
        tmp_path / "run.cfg",
        f"model=two_level\ndata_path={tmp_path}/nope.csv\noutput_path={tmp_path}/t.txt\n",
    )
    assert cli.main(["fit", "--config", cfg]) == cli.EXIT_INPUT


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


def test_bad_arguments_are_usage_errors(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["fit"]) == cli.EXIT_USAGE
    capsys.readouterr()
