"""Per-model coefficient read-offs against hand-derived values and oracles."""

import math
import warnings

import numpy as np
import pytest

from meanfield import engine, expfam, models, oracle
from meanfield.specfun import betaln
from conftest import make_gmm, make_two_level


# ---------------------------------------------------------------------------
# data validation
# ---------------------------------------------------------------------------


def test_data_classes_reject_bad_inputs():
    with pytest.raises(ValueError):
        models.SimpleMixtureData(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.SimpleMixtureData(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.SimpleMixtureData(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        models.TwoLevelMixtureData([0.0], [0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        models.TwoLevelMixtureData([0.0], [0.0], -1.0, 1.0)
    with pytest.raises(ValueError):
        models.GMMData(np.zeros((5, 2)), 1.0, 1.0, 1.0, 0.5, np.eye(2))  # nu0 <= D-1
    with pytest.raises(ValueError):
        models.MatrixFactorizationData(np.ones((2, 2)), 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.MatrixFactorizationData(np.ones((2, 2)), 1, -1.0, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="log_pb must be finite"):
            models.TwoLevelMixtureData([0.0, 1.0], [0.0, bad], 1.0, 1.0)
        with pytest.raises(ValueError, match="beta0 must be finite"):
            models.TwoLevelMixtureData([0.0], [0.0], 1.0, bad)
        with pytest.raises(ValueError, match="y must be finite"):
            models.GMMData([[0.0, bad], [1.0, 1.0]], 1.0, 1.0, 1.0, 3.0, np.eye(2))
        with pytest.raises(ValueError, match="nu0 must be finite"):
            models.GMMData(np.zeros((3, 2)), 1.0, 1.0, 1.0, bad, np.eye(2))
        with pytest.raises(ValueError, match="w0 must be finite"):
            models.GMMData(np.zeros((3, 2)), 1.0, 1.0, 1.0, 3.0, [[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="y must be finite"):
            models.MatrixFactorizationData([[1.0, bad]], 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="delta_v must be finite"):
            models.MatrixFactorizationData(np.ones((2, 2)), 1, 1.0, bad)
        with pytest.raises(ValueError, match="log_pa must be finite"):
            models.LogitNormalMixtureData([bad], [0.0], 0.0)
        with pytest.raises(ValueError, match="m must be finite"):
            models.LogitNormalMixtureData([0.0], [0.0], bad)


# ---------------------------------------------------------------------------
# simple mixture
# ---------------------------------------------------------------------------


def test_simple_mixture_coefficient_is_prior_weighted_log_odds():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    provider = models.SimpleMixtureProvider()
    g = provider.coefficient("z", {"z": np.array([[0.5]])}, data)
    assert g[0, 0] == pytest.approx(math.log((0.3 * 0.8) / (0.7 * 0.2)), rel=1e-14)


def test_simple_mixture_expected_log_joint():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    provider = models.SimpleMixtureProvider()
    for mu in (0.1, 0.5, 0.9):
        got = provider.expected_log_joint({"z": np.array([[mu]])}, data)
        want = mu * math.log(0.3 * 0.8) + (1.0 - mu) * math.log(0.7 * 0.2)
        assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# two-level mixture
# ---------------------------------------------------------------------------


def test_two_level_local_coefficient_symmetry():
    data = models.TwoLevelMixtureData([0.3, -1.0], [0.3, -1.0], 1.0, 1.0)
    provider = models.TwoLevelProvider(2)
    snap = {"pi": np.array([[-1.0, -1.0]]), "z": np.array([[0.5], [0.5]])}
    assert provider.coefficient("z", snap, data)[0] == pytest.approx([0.0], abs=1e-15)


def test_two_level_global_coefficient_hand_values():
    data = models.TwoLevelMixtureData([0.0, 0.0], [0.0, 0.0], 1.0, 1.0)
    provider = models.TwoLevelProvider(2)
    snap = {"pi": np.array([[-1.0, -1.0]]), "z": np.array([[0.25], [0.75]])}
    g = provider.coefficient("pi", snap, data)[0]
    # Beta posterior (alpha1, beta1) = (2, 2) in natural coordinates (1, 1)
    assert g == pytest.approx([1.0, 1.0], abs=1e-14)
    snap_all_one = {"pi": snap["pi"], "z": np.array([[1.0], [1.0]])}
    g = provider.coefficient("pi", snap_all_one, data)[0]
    assert g == pytest.approx([data.alpha0 + 2 - 1.0, data.beta0 - 1.0], abs=1e-14)


def test_two_level_n1_reduces_to_simple_mixture():
    """With one observation and a fixed weight expectation, the local
    coefficient matches the single-node model's prior-weighted log odds."""
    pi0 = 0.3
    pa, pb = 0.8, 0.2
    data = models.TwoLevelMixtureData([math.log(pa)], [math.log(pb)], 1.0, 1.0)
    provider = models.TwoLevelProvider(1)
    snap = {"pi": np.array([[math.log(pi0), math.log(1.0 - pi0)]]), "z": np.array([[0.5]])}
    g = provider.coefficient("z", snap, data)[0]
    simple = models.SimpleMixtureProvider().coefficient(
        "z", {"z": np.array([[0.5]])}, models.SimpleMixtureData(pi0, pa, pb)
    )[0]
    assert g == pytest.approx(simple, rel=1e-13)


def test_two_level_marginals_approach_enumeration(two_level_data):
    model = models.build_two_level(two_level_data, seed=0)
    trace = engine.fit(model, two_level_data, tol=1e-11, max_iter=300)
    exact = oracle.enumerate_two_level(two_level_data)
    got = np.array([trace.state[f"z{i}"].mu.values[0] for i in range(two_level_data.n)])
    # mean-field marginals are close (not exact) on well-separated data
    assert np.max(np.abs(got - exact.marginal_means)) < 0.05


# ---------------------------------------------------------------------------
# GMM
# ---------------------------------------------------------------------------


def test_gmm_component_coefficient_hand_arithmetic():
    """N=2, D=1, responsibilities (1,1), y=(1,3): Eq-solved posterior
    gamma=3, m=4/3, nu=3, W^-1=17/3."""
    y = np.array([[1.0], [3.0]])
    data = models.GMMData(y, 1.0, 1.0, 1.0, 1.0, np.eye(1))
    provider = models.GMMProvider(data)
    gw_mu = expfam.nat_to_mean(expfam.gw_natural(1.0, 1.0, np.zeros(1), np.eye(1))).values
    snap = {
        "z": np.array([[1.0], [1.0]]),
        "pi": np.array([[-1.0, -1.0]]),
        "comp_a": gw_mu[None, :],
        "comp_b": gw_mu[None, :],
    }
    g = provider.coefficient("comp_a", snap, data)[0]
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN_WISHART, dim=1), g)
    nu, gamma, m, w = expfam.gw_params(lam)
    assert nu == pytest.approx(3.0, rel=1e-12)
    assert gamma == pytest.approx(3.0, rel=1e-12)
    assert m == pytest.approx([4.0 / 3.0], rel=1e-12)
    assert 1.0 / w[0, 0] == pytest.approx(17.0 / 3.0, rel=1e-12)


def test_gmm_component_with_zero_responsibility_returns_prior():
    y = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    data = models.GMMData(y, 1.0, 1.0, 0.7, 3.5, 2.0 * np.eye(2))
    provider = models.GMMProvider(data)
    prior = expfam.gw_natural(data.nu0, data.gamma0, np.zeros(2), data.w0)
    snap = {"z": np.full((3, 1), 0.0 + 1e-300)}
    snap["pi"] = np.array([[-1.0, -1.0]])
    gw_mu = expfam.nat_to_mean(prior).values[None, :]
    snap["comp_a"] = gw_mu
    snap["comp_b"] = gw_mu
    g = provider.coefficient("comp_a", snap, data)[0]
    assert g == pytest.approx(prior.values, abs=1e-10)


def test_gmm_identical_components_reduce_to_two_level():
    data, _ = make_gmm(seed=9, n=6, d=2)
    provider = models.GMMProvider(data)
    gw = expfam.gw_natural(4.0, 2.0, np.array([0.3, -0.2]), np.eye(2))
    gw_mu = expfam.nat_to_mean(gw).values
    snap = {"z": np.full((6, 1), 0.4)}
    snap["pi"] = np.array([[-0.6, -0.9]])
    snap["comp_a"] = gw_mu[None, :]
    snap["comp_b"] = gw_mu[None, :]
    log_p = np.array(
        [models.expected_log_component(gw_mu, data.y[i], 2) for i in range(6)]
    )
    tl_data = models.TwoLevelMixtureData(log_p, log_p, data.alpha0, data.beta0)
    tl = models.TwoLevelProvider(6)
    for i in range(6):
        assert provider.coefficient("z", snap, data)[i] == pytest.approx(
            tl.coefficient("z", snap, tl_data)[i], rel=1e-12
        )


def test_expected_log_component_point_mass_limit():
    """A sharply concentrated GW node approaches the plain Gaussian log-density."""
    m = np.array([0.7])
    s = 2.0  # precision
    scale = 1e6
    lam = expfam.gw_natural(scale, scale, m, np.array([[s / scale]]))
    mu = expfam.nat_to_mean(lam).values
    y = np.array([1.4])
    want = -0.5 * s * (y[0] - m[0]) ** 2 + 0.5 * math.log(s) - 0.5 * math.log(2 * math.pi)
    assert models.expected_log_component(mu, y, 1) == pytest.approx(want, abs=1e-3)


def test_gmm_zero_y_expected_log_component():
    gw = expfam.gw_natural(3.0, 1.5, np.array([0.2, 0.1]), np.eye(2))
    mu = expfam.nat_to_mean(gw).values
    got = models.expected_log_component(mu, np.zeros(2), 2)
    want = 0.5 * mu[0] - 0.5 * mu[-1] - math.log(2 * math.pi)
    assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# matrix factorization
# ---------------------------------------------------------------------------


def _matfac_data(seed=0, n=5, d=4, k=2):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, k))
    v = rng.standard_normal((d, k))
    y = u @ v.T + 0.1 * rng.standard_normal((n, d))
    return models.MatrixFactorizationData(y, k, 0.5, 0.8)


def test_matfac_zero_data_coefficient():
    data = models.MatrixFactorizationData(np.zeros((2, 3)), 2, 0.5, 0.8)
    provider = models.MatrixFactorizationProvider(data)
    model = models.build_matfac(data, "vmp", seed=1)
    snap = engine.mu_snapshot(model.plates)
    g = provider.coefficient("u", snap, data)[0]
    assert g[:2] == pytest.approx(np.zeros(2), abs=1e-15)
    prec = -2.0 * g[2:].reshape(2, 2)
    expected = data.delta_u * np.eye(2) + sum(
        snap["v"][j, 2:].reshape(2, 2) for j in range(3)
    )
    assert np.allclose(prec, expected, atol=1e-12)


def test_als_scalar_fixed_point():
    """y=2, delta_u=delta_v=1, K=1: u=v=1 is stationary for the ALS objective."""
    data = models.MatrixFactorizationData(np.array([[2.0]]), 1, 1.0, 1.0)
    provider = models.MatrixFactorizationProvider(data)
    one = np.array([[1.0, 1.0]])  # mean 1, delta second moment 1
    g_u = provider.coefficient("u", {"v": one, "u": one}, data)[0]
    # coefficient (h, -S/2) with h = 2*1, S = 1 + 1 -> mean h/S = 1
    mean = g_u[0] / (-2.0 * g_u[1])
    assert mean == pytest.approx(1.0, rel=1e-14)


def test_als_half_steps_match_ridge_solve():
    data = _matfac_data(seed=3)
    model = models.build_matfac(data, "als", seed=3)
    state = dict(model.plates)
    v_hat, _ = expfam.gaussian_mean_precision(state["v"].lam)
    engine.cavi_sweep(model, state, data, order=("u",))
    u_hat, _ = expfam.gaussian_mean_precision(state["u"].lam)
    for i in range(data.n):
        want = oracle.ridge_solve(v_hat, data.y[i], data.delta_u)
        assert np.max(np.abs(u_hat[i] - want)) < 1e-10


def test_als_objective_nonincreasing():
    data = _matfac_data(seed=4)
    model = models.build_matfac(data, "als", seed=4)
    state = dict(model.plates)
    objs = [models.als_objective(state, data)]
    for _ in range(50):
        engine.cavi_sweep(model, state, data)
        objs.append(models.als_objective(state, data))
    diffs = np.diff(objs)
    assert np.all(diffs <= 1e-10)


def test_ppca_vs_vmp_second_moment_substitution():
    """On shared lambdas, the u-coefficients differ exactly by replacing
    sum_j E[v v^T] with sum_j vhat vhat^T, i.e. by sum_j Cov(v_j)."""
    data = _matfac_data(seed=5)
    vmp = models.build_matfac(data, "vmp", seed=5)
    ppca = models.build_matfac(data, "ppca", seed=5)
    vmp_state = {n.id: n for n in vmp.nodes}
    ppca_state = {n.id: n for n in ppca.nodes}
    for nid in vmp_state:  # identical lambdas by construction (same seed)
        assert np.allclose(vmp_state[nid].lam.values, ppca_state[nid].lam.values)
    snap_vmp = engine.mu_snapshot(engine.to_plates(vmp, vmp_state))
    snap_ppca = engine.mu_snapshot(engine.to_plates(ppca, ppca_state))
    k = data.k
    cov_sum = np.zeros((k, k))
    for j in range(data.d):
        _, prec = expfam.gaussian_mean_precision(vmp_state[f"v{j}"].lam)
        cov_sum += np.linalg.inv(prec)
    for i in range(data.n):
        g_vmp = vmp.provider.coefficient("u", snap_vmp, data)[i]
        g_ppca = ppca.provider.coefficient("u", snap_ppca, data)[i]
        gap = (g_vmp - g_ppca)[k:].reshape(k, k)
        assert np.allclose(gap, -0.5 * cov_sum, atol=1e-12)
        assert np.allclose(g_vmp[:k], g_ppca[:k], atol=1e-12)


def test_als_path_contains_no_derivative_code():
    """The ALS route is pure coefficient read-off plus delta moments."""
    import inspect

    src = inspect.getsource(models.MatrixFactorizationProvider) + inspect.getsource(
        engine.cavi_sweep
    ) + inspect.getsource(engine.delta_moment)
    for token in ("finite_difference", "autograd", "jacobian", "numdiff"):
        assert token not in src


def test_all_delta_elbo_is_negative_regularized_loss_plus_constant():
    data = _matfac_data(seed=6, n=3, d=3, k=1)
    model = models.build_matfac(data, "als", seed=6)
    state = dict(model.plates)
    const_terms = (
        -0.5 * data.n * data.d * math.log(2 * math.pi)
        + 0.5 * data.n * data.k * (math.log(data.delta_u) - math.log(2 * math.pi))
        + 0.5 * data.d * data.k * (math.log(data.delta_v) - math.log(2 * math.pi))
    )
    got = engine.elbo(model, state, data)
    want = -models.als_objective(state, data) + const_terms
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# logit-normal weight prior
# ---------------------------------------------------------------------------


def test_pseudo_prior_conjugate_cross_check():
    """Feeding a Beta log-density through the quadrature natural-gradient
    path must read off that density's own natural parameters."""
    a0, b0 = 3.5, 1.25
    provider = models.LogitNormalProvider(
        2, log_prior_core=lambda z: (a0 - 1.0) * np.log(z) + (b0 - 1.0) * np.log(1.0 - z)
    )
    data = models.LogitNormalMixtureData([0.0, 0.0], [0.0, 0.0], 0.0)
    for ab in [(2.0, 3.0), (1.0, 1.0), (6.0, 4.0)]:
        mu0 = expfam.nat_to_mean(expfam.beta_natural(*ab)).values
        got = provider.pseudo_prior(mu0, data)
        assert got == pytest.approx([a0 - 1.0, b0 - 1.0], abs=1e-8)


def test_pseudo_prior_symmetric_when_m_zero():
    provider = models.LogitNormalProvider(1)
    data = models.LogitNormalMixtureData([0.0], [0.0], 0.0)
    for ab in (1.5, 4.0, 0.8):
        mu0 = expfam.nat_to_mean(expfam.beta_natural(ab, ab)).values
        g = provider.pseudo_prior(mu0, data)
        assert g[0] == pytest.approx(g[1], abs=1e-9)


def test_logitnormal_beta_core_matches_two_level_coefficients(two_level_data):
    """With the non-conjugate term set to the two-level model's Beta prior
    core, the assembled weight coefficient must match the analytic one."""
    n = two_level_data.n
    a0, b0 = two_level_data.alpha0, two_level_data.beta0
    ln_data = models.LogitNormalMixtureData(
        two_level_data.log_pa, two_level_data.log_pb, 0.0
    )
    provider = models.LogitNormalProvider(
        n, log_prior_core=lambda z: a0 * np.log(z) + b0 * np.log(1.0 - z)
    )
    # the reciprocal base measure 1/(z(1-z)) folds (-1,-1) into the read-off,
    # so the core above carries exponents (a0, b0): h(z) exp(core) = Beta density
    tl = models.TwoLevelProvider(n)
    snap = {"z": np.array([[0.3 + 0.05 * i] for i in range(n)])}
    snap["pi"] = expfam.nat_to_mean(expfam.beta_natural(2.0, 3.0)).values[None, :]
    got = provider.coefficient("pi", snap, ln_data)[0]
    want = tl.coefficient("pi", snap, two_level_data)[0]
    assert got == pytest.approx(want, abs=1e-8)
    for i in range(n):
        assert provider.coefficient("z", snap, ln_data)[i] == pytest.approx(
            tl.coefficient("z", snap, two_level_data)[i], rel=1e-12
        )


def test_logitnormal_fit_converges_monotonically():
    rng = np.random.default_rng(4)
    y = np.concatenate([rng.normal(-1.5, 1.0, 4), rng.normal(1.5, 1.0, 4)])
    log_pa = -0.5 * (y + 1.5) ** 2 - 0.5 * math.log(2 * math.pi)
    log_pb = -0.5 * (y - 1.5) ** 2 - 0.5 * math.log(2 * math.pi)
    data = models.LogitNormalMixtureData(log_pa, log_pb, 0.3)
    model = models.build_logitnormal(data, seed=1)
    trace = engine.fit(model, data, tol=1e-9, max_iter=300)
    assert trace.converged
    assert np.all(np.diff(trace.elbos) >= -1e-9)


def test_quadrature_natural_gradient_rejects_tiny_beta():
    lam = expfam.beta_natural(0.005, 1.0)
    with pytest.raises(expfam.DomainError):
        models.beta_natural_gradient(lam, lambda z: z)


def test_quadrature_natural_gradient_small_alpha_is_finite_or_raises():
    """alpha = 0.02 spreads the logit-domain nodes thousands of units into the
    left tail; no overflow may turn the gradient into NaN there."""
    lam = expfam.beta_natural(0.02, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g, _ = models.beta_natural_gradient(lam, lambda z: -0.5 * (np.log(z / (1.0 - z)) - 0.3) ** 2)
        except expfam.NumericalError:
            return
    assert np.all(np.isfinite(g))


def _scalar_walk(a, b):
    """The bracket of the Beta(a, b) logit-domain rule, walked one scalar unit step at a time."""

    def logdens(t):
        return a * models._log_sigmoid(t) + b * models._log_sigmoid(-t) - betaln(a, b)

    mode = math.log(a / b)
    floor = logdens(mode) - 50.0
    lo = hi = mode
    while logdens(lo) > floor:
        lo -= 1.0
    while logdens(hi) > floor:
        hi += 1.0
    return lo, hi


@pytest.mark.parametrize("ab", [(0.02, 5.0), (5.0, 0.02), (25.0, 17.0), (1.0, 1.0), (0.3, 900.0)])
def test_block_walk_finds_the_scalar_walks_bracket(ab):
    a, b = ab
    log_norm = betaln(a, b)

    def logdens(t):
        return a * models._log_sigmoid(t) + b * models._log_sigmoid(-t) - log_norm

    mode = math.log(a / b)
    floor = logdens(mode) - 50.0
    got = (models._walk(logdens, mode, -1.0, floor), models._walk(logdens, mode, 1.0, floor))
    assert got == _scalar_walk(a, b)


def test_small_alpha_gradient_calls_f_once_per_rule():
    """f sees the array of nodes: one call per quadrature rule, at any spread of the nodes."""
    calls = []

    def f(z):
        calls.append(z.size)
        return -0.5 * (np.log(z / (1.0 - z)) - 0.3) ** 2

    g, _ = models.beta_natural_gradient(expfam.beta_natural(0.02, 5.0), f)
    assert len(calls) == 2
    assert calls[1] == 2 * calls[0]
    assert g.tolist() == pytest.approx([103.33322325006735, 11536.192646334892], rel=1e-12)


def test_beta_natural_gradient_rejects_a_scalar_f():
    with pytest.raises(ValueError, match="array of z"):
        models.beta_natural_gradient(expfam.beta_natural(2.0, 3.0), lambda z: 1.0)


def _logitnormal_data(n, m=0.3, seed=4):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(-1.5, 1.0, n // 2), rng.normal(1.5, 1.0, n - n // 2)])
    log_pa = -0.5 * (y + 1.5) ** 2 - 0.5 * math.log(2 * math.pi)
    log_pb = -0.5 * (y - 1.5) ** 2 - 0.5 * math.log(2 * math.pi)
    return models.LogitNormalMixtureData(log_pa, log_pb, m)


@pytest.mark.parametrize(
    "schedule",
    [engine.Schedule(), engine.Schedule(engine.SVI, kappa=0.7, tau=1.0, seed=2)],
    ids=["cavi", "svi"],
)
def test_one_weight_read_off_per_iteration(monkeypatch, schedule):
    """The step, the residual and the ELBO at one weight state share one quadrature and one Beta inversion."""
    counts = {"gradient": 0, "mean_to_nat": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(models, "beta_natural_gradient", counted("gradient", models.beta_natural_gradient))
    monkeypatch.setattr(expfam, "mean_to_nat", counted("mean_to_nat", expfam.mean_to_nat))
    data = _logitnormal_data(10)
    trace = engine.fit(models.build_logitnormal(data, seed=1), data, schedule, tol=1e-9, max_iter=40)
    iterations = trace.records[-1].iteration
    assert iterations > 5
    assert counts == {"gradient": iterations + 1, "mean_to_nat": iterations + 1}


def test_weight_read_off_is_not_reused_under_another_m():
    mu0 = expfam.nat_to_mean(expfam.beta_natural(3.0, 2.0)).values
    provider = models.LogitNormalProvider(2)
    for m in (0.3, -1.2, 0.3):
        data = _logitnormal_data(2, m=m)
        got = provider.pseudo_prior(mu0, data)
        assert got.tolist() == models.LogitNormalProvider(2).pseudo_prior(mu0, data).tolist()
        want, _ = models.beta_natural_gradient(
            expfam.beta_natural(3.0, 2.0), lambda z: -0.5 * (np.log(z / (1.0 - z)) - m) ** 2
        )
        assert got == pytest.approx(want, rel=1e-6)


def test_reused_provider_fits_like_a_fresh_one():
    data = _logitnormal_data(10)
    schedule = engine.Schedule(engine.SVI, seed=7)
    model = models.build_logitnormal(data, seed=1)
    first = engine.fit(model, data, schedule, tol=1e-300, max_iter=30)
    again = engine.fit(model, data, schedule, tol=1e-300, max_iter=30)
    fresh = engine.fit(models.build_logitnormal(data, seed=1), data, schedule, tol=1e-300, max_iter=30)
    for trace in (first, again):
        assert trace.elbos.tolist() == fresh.elbos.tolist()
        assert trace.residuals.tolist() == fresh.residuals.tolist()
        assert trace.state["pi"].lam.values.tolist() == fresh.state["pi"].lam.values.tolist()


# ---------------------------------------------------------------------------
# base-measure reparameterization (shifted Beta)
# ---------------------------------------------------------------------------


def test_shifted_beta_converges_to_same_posterior(two_level_data):
    std = engine.fit(
        models.build_two_level(two_level_data, seed=8), two_level_data, tol=1e-12, max_iter=300
    )
    rep = engine.fit(
        models.build_two_level(two_level_data, seed=8, shifted_beta=True),
        two_level_data,
        tol=1e-12,
        max_iter=300,
    )
    assert std.converged and rep.converged
    # natural parameters differ by exactly the base-measure shift (1, 1)
    assert rep.state["pi"].lam.values - std.state["pi"].lam.values == pytest.approx(
        [1.0, 1.0], abs=1e-10
    )
    a1, b1 = expfam.beta_ab(std.state["pi"].lam)
    a2, b2 = expfam.beta_ab(rep.state["pi"].lam)
    kl = expfam.kl_divergence(
        expfam.beta_natural(a1, b1), expfam.beta_natural(a2, b2)
    )
    assert kl <= 1e-10


# ---------------------------------------------------------------------------
# multilinearity across all providers (spec property, small version)
# ---------------------------------------------------------------------------


def test_multilinearity_and_coefficient_independence():
    from meanfield import checks

    passed, failed, msgs = checks.suite_multilinearity(seed=5, pairs=10)
    assert failed == 0, msgs
