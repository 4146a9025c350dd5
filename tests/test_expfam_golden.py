"""Differential test of the exponential-family maps against recorded golden values.

Each case draws one natural parameter of one family from a seeded
generator: a lone vector, a stack of ``ROWS`` rows, or (Gaussian) a tied
stack whose rows share one precision.  It compares, with the recorded
values: the drawn lambda, the expectations ``nat_to_mean`` derives and the
A(lambda) they carry, ``log_partition``, ``entropy`` without mu, with the
derived mu and with a mu rebuilt through the constructor, and, for a lone
vector, ``kl_divergence`` to a second draw and ``mean_to_nat`` of the
expectations.  Values agree to ``RTOL`` relative, measured against
max(|recorded|, 1), as in ``test_golden.py``: LAPACK's last bits may
differ between machines, so the comparison is not bitwise.

The fixture file was written by ``expfam`` as it stood before each
family's formulas were gathered into one class.  Regenerate it only for a
change that is meant to alter results:

    PYTHONPATH=src python tests/test_expfam_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from meanfield import expfam

FIXTURE = Path(__file__).resolve().parent / "golden" / "expfam_values.json"
RTOL = 1e-12
ROWS = 3
DRAWS = 3

# (name, kind, dim, base measure, shapes)
CONFIGS = [
    ("bernoulli", expfam.BERNOULLI, 1, "constant", ("lone", "stack")),
    ("beta", expfam.BETA, 1, "constant", ("lone", "stack")),
    ("beta_reciprocal", expfam.BETA, 1, "reciprocal", ("lone", "stack")),
    *[(f"gaussian_d{d}", expfam.GAUSSIAN, d, "constant", ("lone", "stack", "tied")) for d in (1, 2, 3)],
    *[(f"gw_d{d}", expfam.GAUSSIAN_WISHART, d, "constant", ("lone", "stack")) for d in (1, 2, 3)],
]
CASES = [
    f"{name}/{shape}/{draw}" for name, _, _, _, shapes in CONFIGS for shape in shapes for draw in range(DRAWS)
]


def _spd(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * np.eye(d)


def draw_natural(rng, kind: str, dim: int, base_measure: str, precision=None) -> expfam.NaturalParam:
    """One lone natural parameter; a Gaussian takes ``precision`` when it is given."""
    if kind == expfam.BERNOULLI:
        return expfam.bernoulli_natural(rng.uniform(-8.0, 8.0))
    if kind == expfam.BETA:
        return expfam.beta_natural(*np.exp(rng.uniform(-2.0, 3.0, 2)), base_measure)
    if kind == expfam.GAUSSIAN:
        return expfam.gaussian_natural(3.0 * rng.standard_normal(dim), _spd(rng, dim) if precision is None else precision)
    nu = dim - 1 + np.exp(rng.uniform(-2.0, 2.0))
    return expfam.gw_natural(nu, np.exp(rng.uniform(-1.0, 1.0)), rng.standard_normal(dim), _spd(rng, dim))


def draw_case(case: str):
    """(lambda, a second lone lambda of its family or None): the seeded draw that ``case`` names."""
    name, shape, draw = case.split("/")
    _, kind, dim, base, _ = next(c for c in CONFIGS if c[0] == name)
    rng = np.random.default_rng([sum(map(ord, name)), len(shape), int(draw)])
    if shape == "lone":
        return draw_natural(rng, kind, dim, base), draw_natural(rng, kind, dim, base)
    precision = _spd(rng, dim) if shape == "tied" else None
    rows = [draw_natural(rng, kind, dim, base, precision) for _ in range(ROWS)]
    return expfam.NaturalParam(rows[0].family, np.stack([lam.values for lam in rows])), None


def _floats(x):
    return None if x is None else np.asarray(x, dtype=float).tolist()


def run_case(case: str) -> dict:
    lam, other = draw_case(case)
    mu = expfam.nat_to_mean(lam)
    built = expfam.ExpectationParam(lam.family, mu.values)
    out = {
        "lambda": _floats(lam.values),
        "mean": _floats(mu.values),
        "mean_log_partition": _floats(mu.log_partition),
        "log_partition": _floats(expfam.log_partition(lam)),
        "entropy": _floats(expfam.entropy(lam)),
        "entropy_derived_mu": _floats(expfam.entropy(lam, mu)),
        "entropy_built_mu": _floats(expfam.entropy(lam, built)),
    }
    if other is not None:
        out["kl"] = _floats(expfam.kl_divergence(lam, other))
        out["kl_reverse"] = _floats(expfam.kl_divergence(other, lam))
        out["mean_to_nat"] = _floats(expfam.mean_to_nat(mu).values)
        out["mean_to_nat_built"] = _floats(expfam.mean_to_nat(built).values)
    return out


def _assert_close(got, want, what: str):
    if want is None:
        assert got is None, f"{what}: expected None"
        return
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
def test_expfam_values_match_golden(case, golden):
    want = golden[case]
    got = run_case(case)
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        _assert_close(got[key], value, f"{case} {key}")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n")
