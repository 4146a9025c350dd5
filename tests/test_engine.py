"""Update steps, schedules, the fit loop, ELBO and residual diagnostics."""

import math

import numpy as np
import pytest

from meanfield import engine, expfam, models, oracle
from conftest import make_two_level


def _bern_node(node_id="z", log_odds=0.5, **kw):
    return engine.NodeState.make(node_id, expfam.bernoulli_natural(log_odds), **kw)


# ---------------------------------------------------------------------------
# NodeState
# ---------------------------------------------------------------------------


def test_mu_cache_coherent_after_update():
    node = _bern_node(log_odds=2.0)
    assert node.mu.values == pytest.approx(expfam.nat_to_mean(node.lam).values)
    moved = node.with_lambda(expfam.bernoulli_natural(-1.0))
    assert moved.mu.values == pytest.approx(expfam.nat_to_mean(moved.lam).values)


def test_delta_mode_requires_gaussian():
    with pytest.raises(engine.ConfigurationError):
        engine.NodeState.make("z", expfam.bernoulli_natural(0.0), delta_mode=True)
    with pytest.raises(engine.ConfigurationError):
        engine.NodeState.make("z", expfam.bernoulli_natural(0.0), role="sideways")


# ---------------------------------------------------------------------------
# blr_step
# ---------------------------------------------------------------------------


def test_blr_step_convex_combination():
    node = _bern_node(log_odds=2.0)
    out = engine.blr_step(node, np.array([4.0]), 0.5)
    assert out.lam.values[0] == pytest.approx(3.0)


def test_blr_step_full_rate_lands_on_target():
    node = _bern_node(log_odds=-1.3)
    out = engine.blr_step(node, np.array([0.7]), 1.0)
    assert out.lam.values[0] == pytest.approx(0.7)


def test_blr_step_fixed_point_is_stationary():
    for rho in (0.1, 0.5, 1.0):
        node = _bern_node(log_odds=0.9)
        out = engine.blr_step(node, np.array([0.9]), rho)
        assert out.lam.values[0] == pytest.approx(0.9)


def test_blr_step_rejects_bad_rate():
    node = _bern_node()
    with pytest.raises(engine.ConfigurationError):
        engine.blr_step(node, np.array([1.0]), 0.0)
    with pytest.raises(engine.ConfigurationError):
        engine.blr_step(node, np.array([1.0]), 1.5)


def test_blr_step_domain_exit_raises():
    # a damped step from Beta(2,2) toward a negative target can leave alpha > 0
    node = engine.NodeState.make("pi", expfam.beta_natural(2.0, 2.0))
    with pytest.raises(expfam.DomainError):
        engine.blr_step(node, np.array([-40.0, -40.0]), 1.0)


def test_base_measure_correction_subtracted():
    """A reciprocal-base Beta global lands one above the coefficient in each coordinate."""
    data = make_two_level(seed=8, n=4)
    plain, shifted = (models.build_two_level(data, seed=8, shifted_beta=s) for s in (False, True))
    coefficient = shifted.provider.coefficient("pi", engine.mu_snapshot(shifted.plates), data)
    plain_state, shifted_state = dict(plain.plates), dict(shifted.plates)
    engine.cavi_sweep(plain, plain_state, data, order=("pi",))
    engine.cavi_sweep(shifted, shifted_state, data, order=("pi",))
    assert plain_state["pi"].lam.values == pytest.approx(coefficient)
    assert shifted_state["pi"].lam.values == pytest.approx(plain_state["pi"].lam.values + 1.0)


# ---------------------------------------------------------------------------
# delta_moment
# ---------------------------------------------------------------------------


def test_delta_moment_values():
    zero = engine.NodeState.make(
        "u", expfam.gaussian_natural(np.zeros(2), np.eye(2)), delta_mode=True
    )
    assert engine.delta_moment(zero).values == pytest.approx(np.zeros(6))

    lam = expfam.gaussian_natural(np.array([2.0]), np.array([[5.0]]))
    node = engine.NodeState.make("u", lam, delta_mode=True)
    assert engine.delta_moment(node).values == pytest.approx([2.0, 4.0])


def test_delta_moment_gap_is_inverse_precision():
    prec = np.array([[2.0, 0.4], [0.4, 1.5]])
    lam = expfam.gaussian_natural(np.array([0.3, -1.0]), prec)
    node = engine.NodeState.make("u", lam, delta_mode=True)
    exact = expfam.nat_to_mean(lam).values[2:].reshape(2, 2)
    delta = engine.delta_moment(node).values[2:].reshape(2, 2)
    assert np.allclose(exact - delta, np.linalg.inv(prec), atol=1e-12)


def test_delta_moment_rejects_non_delta_nodes():
    plain = engine.NodeState.make("u", expfam.gaussian_natural(np.zeros(1), np.eye(1)))
    with pytest.raises(expfam.DomainError):
        engine.delta_moment(plain)


# ---------------------------------------------------------------------------
# ModelSpec / Schedule validation
# ---------------------------------------------------------------------------


def test_model_spec_rejects_duplicates_and_bad_order():
    provider = models.SimpleMixtureProvider()
    n1, n2 = _bern_node("z"), _bern_node("z")
    with pytest.raises(engine.ConfigurationError):
        engine.ModelSpec((n1, n2), provider)
    with pytest.raises(engine.ConfigurationError):
        engine.ModelSpec((n1,), provider, sweep_order=("z", "ghost"))
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    bad = (("pi",), ("z", "z", "pi"), ("z", "z0", "pi"), ("z0", "z1", "pi"), ("pi", "z2", "z0", "z1"))
    for order in bad:
        with pytest.raises(engine.ConfigurationError, match="sweep_order"):
            engine.ModelSpec(two_level.nodes, two_level.provider, sweep_order=order)
    engine.ModelSpec(two_level.nodes, two_level.provider, sweep_order=("pi", "z"))


def test_schedule_validation():
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(kind="bogus")
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(rho_local=0.0)
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(kappa=0.5)
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(tau=-1.0)
    assert engine.Schedule(kappa=0.7, tau=1.0).global_rate(0) == pytest.approx(1.0)
    assert engine.Schedule(kappa=1.0, tau=0.0).global_rate(4) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# cavi_sweep
# ---------------------------------------------------------------------------


def test_single_sweep_recovers_bayes_posterior():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    model = models.build_simple_mixture(data, seed=5)
    state = dict(model.plates)
    engine.cavi_sweep(model, state, data)
    assert state["z"].mu.values[0, 0] == pytest.approx(
        oracle.exact_simple_posterior(data), abs=1e-14
    )


def test_sweep_at_fixed_point_is_identity(two_level_data):
    model = models.build_two_level(two_level_data, seed=1)
    trace = engine.fit(model, two_level_data, tol=1e-13, max_iter=300)
    assert trace.converged
    state = engine.to_plates(model, trace.state)
    after = engine.to_nodes(engine.cavi_sweep(model, dict(state), two_level_data))
    for nid, node in trace.state.items():
        assert np.max(np.abs(after[nid].lam.values - node.lam.values)) < 1e-12


def test_empty_model_sweep_is_noop():
    model = engine.ModelSpec((), models.SimpleMixtureProvider())
    state = {}
    engine.cavi_sweep(model, state, models.SimpleMixtureData(0.5, 1.0, 1.0))
    assert state == {}


def test_model_spec_rejects_a_missing_provider_plate():
    """Nodes that leave out a whole plate of the provider fail where the model is built."""
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    without_pi = tuple(n for n in two_level.nodes if n.id != "pi")
    with pytest.raises(engine.ConfigurationError, match="plate 'pi'"):
        engine.ModelSpec(without_pi, two_level.provider)
    only_pi = tuple(n for n in two_level.nodes if n.id == "pi")
    with pytest.raises(engine.ConfigurationError, match="plate 'z'"):
        engine.ModelSpec(only_pi, two_level.provider)


# ---------------------------------------------------------------------------
# svi_step
# ---------------------------------------------------------------------------


def test_svi_full_rate_matches_cavi_global(two_level_data):
    model = models.build_two_level(two_level_data, seed=2)
    # move locals to their fixed point first
    state = dict(model.plates)
    for _ in range(60):
        engine.cavi_sweep(model, state, two_level_data)
    svi_state = dict(state)
    engine.svi_step(model, svi_state, two_level_data, 0, 1.0)
    cavi_state = dict(state, z=svi_state["z"])
    engine.cavi_sweep(model, cavi_state, two_level_data, order=("pi",))
    assert svi_state["pi"].lam.values == pytest.approx(cavi_state["pi"].lam.values, abs=1e-12)


def test_svi_half_rate_moves_halfway():
    data = make_two_level(seed=3, n=3)
    model = models.build_two_level(data, seed=3)
    state = dict(model.plates)
    start = state["pi"].lam.values[0].copy()
    # update only the global at rate 0.5 by passing a local already at its target
    engine.cavi_sweep(model, state, data, order=("z",))
    s = engine.mu_snapshot(state)["z"][:, 0].sum()
    target = np.array([data.alpha0 - 1.0 + s, 3 + data.beta0 - 1.0 - s])
    engine.svi_step(model, state, data, 0, 0.5)
    assert state["pi"].lam.values[0] == pytest.approx(0.5 * start + 0.5 * target, abs=1e-12)


def test_svi_requires_single_global_and_local_target(two_level_data):
    model = models.build_two_level(two_level_data)
    state = dict(model.plates)
    with pytest.raises(engine.ConfigurationError):
        engine.svi_step(model, state, two_level_data, two_level_data.n, 0.5)  # not a local row
    mf = models.build_matfac(models.MatrixFactorizationData(np.ones((2, 2)), 1, 1.0, 1.0))
    mf_state = dict(mf.plates)
    with pytest.raises(engine.ConfigurationError):
        engine.svi_step(mf, mf_state, None, 0, 0.5)  # two local plates, zero globals


# ---------------------------------------------------------------------------
# fit / elbo / residual
# ---------------------------------------------------------------------------


def test_simple_mixture_converges_in_one_iteration():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    model = models.build_simple_mixture(data)
    trace = engine.fit(model, data, tol=1e-10)
    assert trace.converged
    assert trace.records[-1].iteration == 1
    # at the exact posterior the ELBO equals the log marginal likelihood
    marginal = math.log(0.3 * 0.8 + 0.7 * 0.2)
    assert trace.records[-1].elbo == pytest.approx(marginal, abs=1e-12)


def test_two_level_elbo_monotone_and_bounded(two_level_data):
    model = models.build_two_level(two_level_data, seed=4)
    trace = engine.fit(model, two_level_data, tol=1e-10, max_iter=300)
    assert trace.converged
    elbos = trace.elbos
    assert np.all(np.diff(elbos) >= -1e-10)
    exact = oracle.enumerate_two_level(two_level_data)
    assert elbos[-1] <= exact.log_evidence + 1e-12


def test_fit_max_iter_zero_records_initial_state(two_level_data):
    model = models.build_two_level(two_level_data)
    trace = engine.fit(model, two_level_data, max_iter=0)
    assert len(trace.records) == 1
    assert trace.records[0].iteration == 0
    assert not trace.converged


def test_fit_nonconvergence_is_flagged_not_raised(two_level_data):
    model = models.build_two_level(two_level_data)
    trace = engine.fit(model, two_level_data, tol=1e-12, max_iter=1)
    assert not trace.converged


def test_fit_rejects_bad_arguments(two_level_data):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError):
        engine.fit(model, two_level_data, tol=-1.0)
    with pytest.raises(engine.ConfigurationError):
        engine.fit(model, two_level_data, max_iter=-2)


def test_residual_zero_after_full_step():
    data = models.SimpleMixtureData(0.42, 1.3, 0.5)
    model = models.build_simple_mixture(data)
    state = dict(model.plates)
    engine.cavi_sweep(model, state, data)
    assert engine.fixed_point_residual(model, state, data) == pytest.approx(0.0, abs=1e-14)


def test_converged_residual_below_tolerance(two_level_data):
    model = models.build_two_level(two_level_data)
    trace = engine.fit(model, two_level_data, tol=1e-10, max_iter=300)
    assert trace.records[-1].residual <= 1e-10


# ---------------------------------------------------------------------------
# parallel damped schedule
# ---------------------------------------------------------------------------


def test_parallel_damped_matches_cavi_fixed_point(two_level_data):
    model = models.build_two_level(two_level_data, seed=6)
    cavi = engine.fit(model, two_level_data, tol=1e-12, max_iter=400)
    model2 = models.build_two_level(two_level_data, seed=6)
    par = engine.fit(
        model2,
        two_level_data,
        engine.Schedule(kind="parallel", rho_local=0.5),
        tol=1e-12,
        max_iter=800,
    )
    assert par.converged
    for nid in cavi.state:
        assert np.max(np.abs(par.state[nid].lam.values - cavi.state[nid].lam.values)) < 1e-6


def test_parallel_step_reads_frozen_snapshot(two_level_data):
    """Every node's target must come from the pre-iteration state."""
    model = models.build_two_level(two_level_data, seed=7)
    state = dict(model.plates)
    snap_before = engine.mu_snapshot(model.plates)
    expected = {name: model.provider.coefficient(name, snap_before, two_level_data) for name in state}
    engine._parallel_step(model, state, two_level_data, 1.0)
    for name, plate in state.items():
        assert plate.lam.values == pytest.approx(expected[name], abs=1e-14)


# ---------------------------------------------------------------------------
# rate backoff
# ---------------------------------------------------------------------------


def test_backoff_halves_rate_until_feasible():
    # full step toward (-0.5, -0.5) leaves the Beta domain from (1, 1)
    # (alpha would hit 0.5-eps at full rate is fine; force an infeasible one)
    node = engine.NodeState.make("pi", expfam.beta_natural(2.0, 2.0))
    target = np.array([-1.5, -1.5])  # alpha-1 = -1.5 -> alpha = -0.5 infeasible
    out = engine._step_with_backoff(node, target, 1.0)
    # first feasible halving: rho = 0.5 gives lambda = (-0.25, -0.25), alpha = 0.75
    assert out.lam.values == pytest.approx([-0.25, -0.25])


def test_backoff_eventually_gives_up():
    node = engine.NodeState.make("pi", expfam.beta_natural(1e-9, 1e-9))
    with pytest.raises(expfam.DomainError, match="rate halvings"):
        engine._step_with_backoff(node, np.array([-1e9, -1e9]), 1.0)
