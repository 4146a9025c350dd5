"""Micro-benchmarks of fit iterations, the two-level ELBO, the logit-normal read-off, matfac's log-joint, plate
validation, conversions, steps and entropies, and special functions.

pytest's defaults include ``--benchmark-disable``, so a plain test run calls
each benchmarked function once and checks its result.  To time them:

    PYTHONPATH=src python -m pytest tests/test_microbench.py --benchmark-only --benchmark-enable
"""

import numpy as np
import pytest

from meanfield import engine, expfam, models, specfun
from meanfield.checks import matfac_reference_log_joint
from conftest import make_gmm, make_two_level

_M = 0.3


def _f(t):
    return -0.5 * (t - _M) ** 2


def _ppca_at_bench_size():
    """A PPCA model of the bench's size (40x25, K=3) and its data."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((40, 3)) @ rng.standard_normal((25, 3)).T + 0.3 * rng.standard_normal((40, 25))
    data = models.MatrixFactorizationData(y, 3, 1.0, 1.0)
    return models.build_matfac(data, "ppca", seed=0), data


def test_matfac_ppca_fit_iteration(benchmark):
    """One CAVI iteration of a PPCA fit at the bench size (40x25, K=3): sweep, residual and ELBO on one snapshot."""
    model, data = _ppca_at_bench_size()
    snap = engine.mu_snapshot(model.plates)

    def iteration():
        engine.cavi_sweep(model, snap, data)
        return engine.fixed_point_residual(model, snap, data), engine.elbo(model, snap, data)

    residual, elbo = benchmark(iteration)
    assert residual == engine.fixed_point_residual(model, dict(snap.plates), data)
    assert elbo == engine.elbo(model, dict(snap.plates), data)


def test_matfac_expected_log_joint(benchmark):
    """matfac's log-joint at the bench size, as a fit's ELBO reads it: after the residual memoised u's coefficient."""
    model, data = _ppca_at_bench_size()
    snap = engine.mu_snapshot(model.plates)
    engine.cavi_sweep(model, snap, data)
    engine.fixed_point_residual(model, snap, data)
    got = benchmark(model.provider.expected_log_joint, snap, data)
    assert got == pytest.approx(matfac_reference_log_joint(snap, data), rel=1e-12, abs=0.0)


def test_two_level_fit_iteration(benchmark):
    """One CAVI iteration of a two-level fit at the CLI workload's size (2000 rows): sweep, residual and ELBO."""
    data = make_two_level(seed=0, n=2000)
    model = models.build_two_level(data, seed=0)
    snap = engine.mu_snapshot(model.plates)

    def iteration():
        engine.cavi_sweep(model, snap, data)
        return engine.fixed_point_residual(model, snap, data), engine.elbo(model, snap, data)

    residual, elbo = benchmark(iteration)
    assert residual == engine.fixed_point_residual(model, dict(snap.plates), data)
    assert elbo == engine.elbo(model, dict(snap.plates), data)


def test_gmm2_fit_iteration(benchmark):
    """One CAVI iteration of a gmm2 fit at the bench size (N=300): sweep, residual and ELBO on one snapshot."""
    data, _ = make_gmm(seed=0, n=300)
    model = models.build_gmm2(data, seed=0)
    snap = engine.mu_snapshot(model.plates)

    def iteration():
        engine.cavi_sweep(model, snap, data)
        return engine.fixed_point_residual(model, snap, data), engine.elbo(model, snap, data)

    residual, elbo = benchmark(iteration)
    assert residual == engine.fixed_point_residual(model, dict(snap.plates), data)
    assert elbo == engine.elbo(model, dict(snap.plates), data)


def _entropy_recomputing_a(lam: expfam.NaturalParam, mu: expfam.ExpectationParam) -> np.ndarray:
    """A Bernoulli or Beta plate's entropies A(lam) - lam . mu with A recomputed from lam, as before mu carried A."""
    if lam.family.kind == expfam.BERNOULLI:
        lv = lam.values[:, 0]
        a = np.maximum(lv, 0.0) + np.log1p(np.exp(-np.abs(lv)))
    else:
        a = np.array([specfun.betaln(*expfam.beta_ab(expfam.row_view(lam, r))) for r in range(len(lam.values))])
    out = a - np.sum(lam.values * mu.values, axis=-1)
    grad = expfam.base_measure_grad(lam.family)
    return out if grad is None else out - mu.values @ grad


@pytest.mark.parametrize("shifted_beta", [False, True], ids=["beta", "reciprocal-beta"])
def test_two_level_elbo(benchmark, shifted_beta):
    """The ELBO of a 2000-row two-level snapshot as a fit's record reads it, after the residual: entropies off mu."""
    data = make_two_level(seed=0, n=2000)
    model = models.build_two_level(data, seed=0, shifted_beta=shifted_beta)
    snap = engine.mu_snapshot(model.plates)
    engine.cavi_sweep(model, snap, data)
    engine.fixed_point_residual(model, snap, data)
    got = benchmark(engine.elbo, model, snap, data)
    want = model.provider.expected_log_joint(snap, data)
    for plate in snap.plates.values():
        want += float(np.sum(_entropy_recomputing_a(plate.lam, plate.mu)))
    assert got == want


@pytest.mark.parametrize("base", ["constant", "reciprocal"])
def test_beta_plate_step_and_entropy(benchmark, base):
    """A rate-1 step of a one-row Beta weight plate and its entropy: (a, b) in floats, A off the mean pass."""
    fam = expfam.FamilyDescriptor(expfam.BETA, base_measure=base)
    shift = 0.0 if base == "reciprocal" else 1.0
    plate = engine.Plate(("pi",), expfam.NaturalParam(fam, np.array([[25.0, 17.0]]) - shift))
    target = np.array([[31.0, 13.0]]) - shift

    def step():
        out = engine.blr_step(plate, target, 1.0)
        return out, expfam.entropy(out.lam, out.mu)

    out, ent = benchmark(step)
    assert np.array_equal(out.lam.values, target)
    psum = specfun.digamma(44.0)
    assert out.mu.values.tolist() == [[specfun.digamma(31.0) - psum, specfun.digamma(13.0) - psum]]
    assert ent.tobytes() == _entropy_recomputing_a(out.lam, out.mu).tobytes()


def test_beta_natural_gradient(benchmark):
    lam = expfam.beta_natural(25.0, 17.0)
    g, f_mean = benchmark(models.beta_natural_gradient, lam, _f)
    assert g.shape == (2,) and np.all(np.isfinite(g)) and np.isfinite(f_mean)


def test_logit_normal_natural_gradient(benchmark):
    """The closed-form read-off of the default logit-normal core; the quadrature above is its general path."""
    lam = expfam.beta_natural(25.0, 17.0)
    g, f_mean = benchmark(models.logit_normal_natural_gradient, lam, _M)
    want, want_f = models.beta_natural_gradient(lam, _f)
    assert g == pytest.approx(want, rel=1e-10) and f_mean == pytest.approx(want_f, rel=1e-10)


def test_logitnormal_weight_coefficient(benchmark):
    """A cold read-off: each round asks a new snapshot, so none is served from the last round's read-off."""
    n = 40
    rng = np.random.default_rng(0)
    data = models.LogitNormalMixtureData(rng.normal(size=n), rng.normal(size=n), _M)
    p = rng.uniform(0.1, 0.9, size=(n, 1))
    bernoulli = expfam.FamilyDescriptor(expfam.BERNOULLI)
    weight = expfam.beta_natural(25.0, 17.0)
    ids = [f"z{i}" for i in range(n)]
    plates = {
        "z": engine.Plate(ids, expfam.NaturalParam(bernoulli, np.log(p / (1.0 - p)))),
        "pi": engine.Plate(("pi",), expfam.NaturalParam(weight.family, weight.values[None, :])),
    }
    provider = models.LogitNormalProvider(n)
    g = benchmark(lambda: provider.coefficient("pi", engine.mu_snapshot(plates), data))
    assert g.shape == (1, 2) and np.all(np.isfinite(g))


def test_beta_mean_to_nat(benchmark):
    mu = expfam.nat_to_mean(expfam.beta_natural(25.0, 17.0))
    lam = benchmark(expfam.mean_to_nat, mu)
    assert lam.values == pytest.approx([24.0, 16.0], rel=1e-9)


def test_gaussian_wishart_mean_to_nat(benchmark):
    mu = expfam.nat_to_mean(expfam.gw_natural(5.0, 1.0, np.array([0.3, -0.2]), np.eye(2)))
    nu, gamma, m, w = expfam.gw_params(benchmark(expfam.mean_to_nat, mu))
    assert (nu, gamma) == pytest.approx((5.0, 1.0), rel=1e-12)
    assert m == pytest.approx([0.3, -0.2], rel=1e-12) and np.allclose(w, np.eye(2), rtol=0.0, atol=1e-12)


def test_bernoulli_plate_nat_to_mean(benchmark):
    """One row-stacked conversion of a 2000-row indicator plate, the CLI workload's size."""
    log_odds = np.random.default_rng(0).normal(size=(2000, 1))
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), log_odds)
    mu = benchmark(expfam.nat_to_mean, lam)
    assert mu.values == pytest.approx(1.0 / (1.0 + np.exp(-log_odds)), rel=1e-12)


def _gaussian_plate(rows: int = 40, k: int = 3, shared: bool = False) -> expfam.NaturalParam:
    """A row-stacked K=3 Gaussian plate of the PPCA u plate's size.

    By default every row has a precision of its own: the untied case, a
    plate a user builds, which keeps one Cholesky factor per row.
    ``shared`` gives every row one precision, as the PPCA u plate's rows
    have, which keeps one factor for the plate.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1 if shared else rows, k, k))
    precision = np.broadcast_to(a @ np.swapaxes(a, -1, -2) + np.eye(k), (rows, k, k))
    h = (precision @ rng.standard_normal((rows, k, 1)))[..., 0]
    flat = np.concatenate([h, (-0.5 * precision).reshape(rows, -1)], axis=1)
    return expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=k), flat)


def _check_plate_mean(benchmark, lam: expfam.NaturalParam) -> None:
    mu = benchmark(expfam.nat_to_mean, lam)
    m, precision = expfam.gaussian_mean_precision(lam)
    cov = mu.values[:, 3:].reshape(-1, 3, 3) - m[:, :, None] * m[:, None, :]
    assert np.allclose(cov @ precision, np.eye(3), atol=1e-10)


def _check_plate_step(benchmark, shared: bool) -> None:
    plate = engine.Plate([f"u{i}" for i in range(40)], _gaussian_plate(shared=shared))
    target = _gaussian_plate(shared=shared).values[::-1].copy()
    out = benchmark(engine.blr_step, plate, target, 1.0)
    assert np.array_equal(out.lam.values, target)
    assert np.array_equal(out.mu.values, expfam.nat_to_mean(out.lam).values)


def test_gaussian_plate_nat_to_mean(benchmark):
    _check_plate_mean(benchmark, _gaussian_plate())


def test_shared_precision_gaussian_plate_nat_to_mean(benchmark):
    """The PPCA u plate's case: one precision, so one (1, 3, 3) factor for the 40 rows."""
    lam = _gaussian_plate(shared=True)
    assert lam.factor.shape == (1, 3, 3)
    _check_plate_mean(benchmark, lam)


def test_shared_precision_gaussian_plate_natural_param(benchmark):
    """Validation of a 40-row plate with one symmetric precision: one compare finds it, one Cholesky factors it."""
    flat = _gaussian_plate(shared=True).values
    lam = benchmark(expfam.NaturalParam, expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=3), flat)
    assert lam.factor.shape == (1, 3, 3) and lam.values.tobytes() == flat.tobytes()


def test_gaussian_plate_blr_step(benchmark):
    """A rate-1 step of a 40-row plate: lambda validation (one batched Cholesky, a factor per row) and the derived mu."""
    _check_plate_step(benchmark, shared=False)


def test_shared_precision_gaussian_plate_blr_step(benchmark):
    """A rate-1 step of a 40-row plate with one precision: one Cholesky for the plate, and the derived mu."""
    _check_plate_step(benchmark, shared=True)


@pytest.mark.parametrize("shared", [False, True], ids=["untied", "tied"])
def test_gaussian_plate_entropy(benchmark, shared):
    """The entropies of a 40-row plate off its factors alone: one per row untied, one broadcast value tied."""
    lam = _gaussian_plate(shared=shared)
    ent = benchmark(expfam.entropy, lam)
    precision = expfam.gaussian_mean_precision(lam)[1]
    want = 1.5 * (1.0 + np.log(2.0 * np.pi)) - 0.5 * np.linalg.slogdet(precision)[1]
    assert ent.shape == (40,) and ent == pytest.approx(want, rel=1e-13)


def test_gaussian_wishart_row_nat_to_mean(benchmark):
    """One Gaussian-Wishart component of the gmm2 model, a single (1, flat) row."""
    lam = expfam.gw_natural(3.0, 1.0, np.zeros(2), np.eye(2))
    row = expfam.NaturalParam(lam.family, lam.values[None, :])
    mu = benchmark(expfam.nat_to_mean, row)
    assert mu.values.shape == (1, lam.family.flat_size) and np.all(np.isfinite(mu.values))
    # E[S] = nu W for a Wishart(nu, W) precision
    assert mu.values[0, 1:5] == pytest.approx([3.0, 0.0, 0.0, 3.0], rel=1e-12)


def test_digamma(benchmark):
    # psi(1) = -Euler-Mascheroni
    assert benchmark(specfun.digamma, 1.0) == pytest.approx(-0.5772156649015329, rel=1e-12)
