"""Every ``python`` block and the config example of README.md run as written, and it names the CLI's whole surface."""

import re
from pathlib import Path

import pytest

from meanfield import cli, engine

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
CONFIG = re.search(r"^### Config format\n.*?^```\n(.*?)^```$", TEXT, flags=re.S | re.M).group(1)


def test_the_readme_has_its_two_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_python_example_runs_and_converges(index, capsys):
    """Each example fits a model and prints ``trace.converged`` first."""
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("True ")


def test_the_readme_provider_with_a_flat_coefficient_fails_at_its_first_read_off(monkeypatch):
    """Dropping the provider's ``[:, None]`` gives a (G,) coefficient: refused by name, not fitted to no fixed point."""
    (block,) = (b for b in BLOCKS if "class KnownWeightMixture" in b)
    flat = block.replace("[:, None]  # (N, 1)", "  # (N,)")
    assert flat != block
    reads = []
    read = engine._read_only_coefficient
    monkeypatch.setattr(engine, "_read_only_coefficient", lambda *args: (reads.append(args[1]), read(*args))[1])
    want = "coefficient of plate 'z' has shape (5,), not its lambda's (5, 1)"
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(want)}$"):
        exec(compile(flat, "README.md provider with a flat coefficient", "exec"), {"__name__": "readme_example"})
    assert reads == ["z"]


def test_the_readme_config_example_parses_as_written(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    cfg = cli.parse_config(str(path))
    assert (cfg.model, cfg.data_path, cfg.output_path) == ("gmm2", "data.csv", "trace.txt")
    schedule = cfg.schedule
    assert (schedule.kind, schedule.rho, schedule.kappa, schedule.tau, schedule.seed) == ("cavi", 0.5, 0.7, 1.0, 0)
    assert cfg.stop == {"tol": 1e-8, "max_iter": 1000}
    assert cfg.extras == {"alpha0": 1.0, "beta0": 1.0, "gamma0": 1.0, "nu0": 3.0, "w0_scale": 1.0}


def _in_code(name: str) -> bool:
    """Whether README shows ``name`` as a code span (`name` or `name=...`) or at the start of a config line."""
    return re.search(rf"`{re.escape(name)}[`=]|^{re.escape(name)}=", TEXT, flags=re.M) is not None


def test_the_readme_names_every_config_key_model_schedule_kind_and_exit_code():
    keys = set(cli._COMMON_KEYS).union(*(row[3] for row in cli._TABLE.values()))
    missing = [name for name in sorted(keys) + list(cli._TABLE) if not _in_code(name)]
    for kind in (engine.CAVI, engine.SVI, engine.PARALLEL_BLR):
        if not (_in_code(kind) or re.search(rf"schedule={kind}\b|^# schedule:.*\b{kind}\b", TEXT, flags=re.M)):
            missing.append(f"schedule kind {kind}")
    codes = (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_NO_CONVERGENCE, cli.EXIT_USAGE)
    assert codes == (0, 1, 2, 64)
    exit_codes = re.search(r"^Exit codes: (.*?)\n\n", TEXT, flags=re.S | re.M).group(1)
    missing += [f"exit code {code}" for code in codes if f"`{code}`" not in exit_codes]
    assert not missing
