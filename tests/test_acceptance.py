"""End-to-end acceptance checks, one test per criterion.

Each test emits a single "criterion N PASS/FAIL: <summary>" line so the
whole battery reads as a checklist under `pytest -v -s tests/test_acceptance.py`.
Tolerances are part of the contract and are pinned in the assertions.
"""

import math

import numpy as np
import pytest

from meanfield import engine, expfam, models
from meanfield.checks import suite_multilinearity
from conftest import make_gmm, make_two_level
import oracle


def _report(num: int, ok: bool, summary: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {summary}")


def test_criterion_01_bayes_rule_recovery():
    """One CAVI iteration on the single-indicator mixture equals Bayes' rule."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        data = models.SimpleMixtureData(
            rng.uniform(0.05, 0.95), rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        )
        model = models.build_simple_mixture(data, seed=int(rng.integers(1 << 16)))
        state = dict(model.plates)
        engine.cavi_sweep(model, state, data)
        gap = abs(state["z"].mu.values[0, 0] - oracle.exact_simple_posterior(data))
        worst = max(worst, gap)
    ok = worst < 1e-12
    _report(1, ok, f"max |q(z=1) - Bayes posterior| = {worst:.3g} over 100 draws (tol 1e-12)")
    assert ok


def test_criterion_02_multilinearity():
    """Affine-slope identity (50 mu pairs) on every plate that does not read itself; exact out-of-reads checks."""
    passed, failed, msgs = suite_multilinearity(seed=202, pairs=50)
    ok = failed == 0
    _report(2, ok, f"{passed} affine-slope and out-of-reads checks passed, {failed} failed (tol 1e-9)")
    assert ok, msgs


def test_criterion_03_cavi_monotonicity():
    """ELBO nondecreasing per sweep and final residual <= 1e-8 on three models."""
    runs = []
    tl = make_two_level(seed=303, n=10)
    runs.append(("two_level", models.build_two_level(tl, seed=1), tl))
    gmm, _ = make_gmm(seed=303, n=50, d=2)
    runs.append(("gmm2", models.build_gmm2(gmm, seed=1), gmm))
    rng = np.random.default_rng(303)
    mf = models.MatrixFactorizationData(rng.standard_normal((6, 6)), 2, 0.5, 0.5)
    runs.append(("matfac_vmp", models.build_matfac(mf, "vmp", seed=1), mf))
    ok = True
    details = []
    for name, model, data in runs:
        trace = engine.fit(model, data, tol=1e-9, max_iter=500)
        drop = float(np.min(np.diff(trace.elbos))) if len(trace.elbos) > 1 else 0.0
        res = trace.records[-1].residual
        good = drop >= -1e-10 and res <= 1e-8
        ok = ok and good
        details.append(f"{name}: min ELBO step {drop:.3g}, residual {res:.3g}")
    _report(3, ok, "; ".join(details))
    assert ok


def test_criterion_04_evidence_bound():
    """Converged two-level ELBO never exceeds the enumerated log-evidence."""
    rng = np.random.default_rng(404)
    worst_gap = math.inf
    ok = True
    for _ in range(20):
        n = int(rng.integers(3, 13))
        data = models.TwoLevelMixtureData(
            rng.normal(size=n), rng.normal(size=n), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        )
        trace = engine.fit(models.build_two_level(data, seed=2), data, tol=1e-10, max_iter=400)
        gap = oracle.enumerate_two_level(data).log_evidence - trace.records[-1].elbo
        worst_gap = min(worst_gap, gap)
        ok = ok and gap >= 0.0
    _report(4, ok, f"smallest evidence gap over 20 instances = {worst_gap:.3g} (must be >= 0)")
    assert ok


def test_criterion_05_fixed_point_log_odds_identity():
    """At the two-level fixed point each indicator's log-odds equals the
    expected log-joint difference between its two settings, and the global
    matches its read-off coefficient."""
    data = make_two_level(seed=505, n=10)
    model = models.build_two_level(data, seed=3)
    trace = engine.fit(model, data, tol=1e-12, max_iter=400)
    a, b = expfam.beta_ab(expfam.row_view(trace.plates["pi"].lam, 0))
    from meanfield.specfun import digamma

    e_log_pi = digamma(a) - digamma(a + b)
    e_log_1mpi = digamma(b) - digamma(a + b)
    z = trace.plates["z"]
    worst = 0.0
    for i in range(data.n):
        lam_i = z.lam.values[z.ids.index(f"z{i}"), 0]  # log q(z=1) - log q(z=0)
        joint_diff = (e_log_pi + data.log_pa[i]) - (e_log_1mpi + data.log_pb[i])
        worst = max(worst, abs(lam_i - joint_diff))
    worst = max(worst, engine.fixed_point_residual(model, trace.plates, data))
    ok = worst < 1e-8
    _report(5, ok, f"max log-odds identity gap = {worst:.3g} over all nodes (tol 1e-8)")
    assert ok


def test_criterion_06_svi_consistency():
    """SVI with rho_t = (t+1)^-0.7 lands within 1e-4 of the CAVI fixed point."""
    data = make_two_level(seed=606, n=10)
    cavi = engine.fit(models.build_two_level(data, seed=4), data, tol=1e-13, max_iter=500)
    model = models.build_two_level(data, seed=4)
    state = dict(model.plates)
    sched = engine.Schedule(kind="svi", kappa=0.7, tau=1.0)
    rng = np.random.default_rng(606)
    for t in range(2000):
        engine.svi_step(model, state, data, int(rng.integers(data.n)), sched.global_rate(t))
    worst = max(
        float(np.max(np.abs(state[name].lam.values - cavi.plates[name].lam.values)))
        for name in state
    )
    ok = worst < 1e-4
    _report(6, ok, f"max |lambda_svi - lambda_cavi| = {worst:.3g} after 2000 steps (tol 1e-4)")
    assert ok


def test_criterion_07_delta_method_chain():
    """ALS == ridge regression, nonincreasing objective, and PPCA-vs-VMP
    differing exactly by the delta second-moment substitution."""
    rng = np.random.default_rng(707)
    data = models.MatrixFactorizationData(rng.standard_normal((6, 5)), 2, 0.6, 0.9)

    # (a) ALS half-steps equal ridge solves
    model = models.build_matfac(data, "als", seed=5)
    state = dict(model.plates)
    ridge_gap = 0.0
    for _ in range(3):
        v_hat, _ = expfam.gaussian_mean_precision(state["v"].lam)
        engine.cavi_sweep(model, state, data, order=("u",))
        u_hat, _ = expfam.gaussian_mean_precision(state["u"].lam)
        for i in range(data.n):
            want = oracle.ridge_solve(v_hat, data.y[i], data.delta_u)
            ridge_gap = max(ridge_gap, float(np.max(np.abs(u_hat[i] - want))))
        engine.cavi_sweep(model, state, data, order=("v",))

    # (b) regularized objective nonincreasing over 50 alternations
    model2 = models.build_matfac(data, "als", seed=6)
    state2 = dict(model2.plates)
    objs = [models.als_objective(state2, data)]
    for _ in range(50):
        engine.cavi_sweep(model2, state2, data)
        objs.append(models.als_objective(state2, data))
    max_rise = float(np.max(np.diff(objs)))

    # (c) PPCA vs VMP u-updates differ exactly by sum_j Cov(v_j)
    vmp = models.build_matfac(data, "vmp", seed=7)
    ppca = models.build_matfac(data, "ppca", seed=7)
    snap_vmp = engine.mu_snapshot(vmp.plates)
    snap_ppca = engine.mu_snapshot(ppca.plates)
    k = data.k
    cov_sum = np.linalg.inv(expfam.gaussian_mean_precision(vmp.plates["v"].lam)[1]).sum(axis=0)
    sub_gap = 0.0
    diffs = vmp.provider.coefficient("u", snap_vmp, data) - ppca.provider.coefficient(
        "u", snap_ppca, data
    )
    for diff in diffs:
        sub_gap = max(sub_gap, float(np.max(np.abs(diff[k:].reshape(k, k) + 0.5 * cov_sum))))
        sub_gap = max(sub_gap, float(np.max(np.abs(diff[:k]))))

    ok = ridge_gap < 1e-10 and max_rise <= 1e-10 and sub_gap < 1e-12
    _report(
        7,
        ok,
        f"ALS-vs-ridge gap {ridge_gap:.3g} (tol 1e-10); max objective rise "
        f"{max_rise:.3g}; PPCA/VMP substitution gap {sub_gap:.3g}",
    )
    assert ok


def test_criterion_08_pseudo_prior_cross_check():
    """The quadrature natural-gradient path reads off conjugate terms exactly,
    and the closed-form read-off is symmetric for the centered logit-normal
    under symmetric q."""
    a0, b0 = 2.5, 4.0

    # log z = -log(1 + e^-t) and log(1 - z) = -log(1 + e^t) in the logit t the core is given
    def core(t):
        return -(a0 - 1.0) * np.logaddexp(0.0, -t) - (b0 - 1.0) * np.logaddexp(0.0, t)

    conj_gap = 0.0
    for ab in [(2.0, 3.0), (1.0, 1.0), (5.5, 0.8)]:
        got = models.beta_natural_gradient(expfam.beta_natural(*ab), core)[0]
        conj_gap = max(conj_gap, float(np.max(np.abs(got - [a0 - 1.0, b0 - 1.0]))))
    asym = 0.0
    for ab in (1.2, 3.0, 7.0):
        g = models.logit_normal_natural_gradient(expfam.beta_natural(ab, ab), 0.0)[0]
        asym = max(asym, abs(g[0] - g[1]))
    ok = conj_gap < 1e-8 and asym < 1e-8
    _report(8, ok, f"conjugate read-off gap {conj_gap:.3g} (tol 1e-8); m=0 asymmetry {asym:.3g}")
    assert ok


def test_criterion_09_base_measure_extension():
    """The reciprocal-base-measure Beta converges to the same posterior."""
    data = make_two_level(seed=909, n=10)
    std = engine.fit(models.build_two_level(data, seed=8), data, tol=1e-12, max_iter=400)
    rep = engine.fit(
        models.build_two_level(data, seed=8, shifted_beta=True), data, tol=1e-12, max_iter=400
    )
    a1, b1 = expfam.beta_ab(expfam.row_view(std.plates["pi"].lam, 0))
    a2, b2 = expfam.beta_ab(expfam.row_view(rep.plates["pi"].lam, 0))
    kl = expfam.kl_divergence(expfam.beta_natural(a1, b1), expfam.beta_natural(a2, b2))
    ok = std.converged and rep.converged and kl <= 1e-10
    _report(9, ok, f"KL(standard || reparameterized) = {kl:.3g} (tol 1e-10)")
    assert ok


def test_criterion_10_gmm_classification():
    """Responsibilities classify >= 98% of well-separated points correctly."""
    data, labels = make_gmm(seed=1010, n=100, d=2, sep=6.0, sd=1.0)
    trace = engine.fit(models.build_gmm2(data, seed=9), data, tol=1e-9, max_iter=500)
    z = trace.plates["z"]
    resp = np.array([z.mu.values[z.ids.index(f"z{i}"), 0] for i in range(100)])
    pred = (resp > 0.5).astype(int)
    acc = max(float(np.mean(pred == labels)), float(np.mean(pred != labels)))
    ok = trace.converged and acc >= 0.98
    _report(10, ok, f"classification accuracy {acc:.3f} up to label swap (needs >= 0.98)")
    assert ok
