"""Every ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def test_the_readme_has_its_two_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_python_example_runs_and_converges(index, capsys):
    """Each example fits a model and prints ``trace.converged`` first."""
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.startswith("True ")
