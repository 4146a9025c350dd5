"""Update steps, schedules, the fit loop, ELBO and residual diagnostics."""

import functools
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanfield import checks, engine, expfam, models
from conftest import large_mean_gaussians, make_gmm, make_two_level
import oracle


def _bern_node(node_id="z", log_odds=0.5, **kw):
    return engine.NodeState.make(node_id, expfam.bernoulli_natural(log_odds), **kw)


def _bern_plate(node_id="z", log_odds=0.5):
    return _one_row_plate(node_id, expfam.bernoulli_natural(log_odds))


# ---------------------------------------------------------------------------
# Plate and NodeState
# ---------------------------------------------------------------------------


def test_mu_cache_coherent_after_update():
    node = _bern_plate(log_odds=2.0)
    assert node.mu.values == pytest.approx(expfam.nat_to_mean(node.lam).values)
    moved = engine.Plate(node.ids, expfam.NaturalParam(node.family, np.array([[-1.0]])), node.role, node.delta_mode)
    assert moved.mu.values == pytest.approx(expfam.nat_to_mean(moved.lam).values)


def test_a_plate_derives_its_mu_from_its_lambda():
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.array([[2.0, 3.0], [0.5, 4.0]]))
    plate = engine.Plate(["a", "b"], lam)
    assert plate.ids == ("a", "b") and plate.lam is lam
    assert plate.mu.values.tobytes() == expfam.nat_to_mean(lam).values.tobytes()
    with pytest.raises(TypeError):
        engine.Plate(("a", "b"), lam, mu=expfam.nat_to_mean(lam))


@pytest.mark.parametrize(
    "ids, values, message",
    [
        (("a", "b"), np.zeros((3, 1)), "2 ids, 3 rows, shape (3, 1)"),
        (("a",), np.zeros(1), "1 ids, 1 rows, shape (1,)"),
    ],
    ids=["extra_row", "vector"],
)
def test_a_plate_needs_one_lambda_row_per_id(ids, values, message):
    """A lambda of more rows than ids, or a vector lambda, fails where the plate is made, not inside a fit."""
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), values)
    want = f"a plate needs a 2-D lambda with one row per id: {message}"
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(want)}$"):
        engine.Plate(ids, lam)


_REFUSED_ROLE = "node role must be 'local' or 'global', got 'sideways'"
_REFUSED_DELTA_MODE = "delta_mode is only supported on Gaussian nodes"


def test_delta_mode_requires_gaussian():
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(_REFUSED_DELTA_MODE)}$"):
        engine.NodeState.make("z", expfam.bernoulli_natural(0.0), delta_mode=True)
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(_REFUSED_ROLE)}$"):
        engine.NodeState.make("z", expfam.bernoulli_natural(0.0), role="sideways")


@pytest.mark.parametrize(
    "kw, message",
    [({"role": "sideways"}, _REFUSED_ROLE), ({"delta_mode": True}, _REFUSED_DELTA_MODE)],
    ids=["role", "delta_mode"],
)
def test_a_plate_refuses_an_unknown_role_and_delta_mode_off_a_gaussian(kw, message):
    """``Plate`` itself refuses what ``NodeState.make`` refuses, with the same messages."""
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.array([[2.0, 3.0], [0.5, 4.0]]))
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(message)}$"):
        engine.Plate(("a", "b"), lam, **kw)


# ---------------------------------------------------------------------------
# blr_step
# ---------------------------------------------------------------------------


def test_blr_step_convex_combination():
    node = _bern_plate(log_odds=2.0)
    out = engine.blr_step(node, np.array([4.0]), 0.5)
    assert out.lam.values[0] == pytest.approx(3.0)


def test_blr_step_full_rate_lands_on_target():
    node = _bern_plate(log_odds=-1.3)
    out = engine.blr_step(node, np.array([0.7]), 1.0)
    assert out.lam.values[0] == pytest.approx(0.7)


def test_blr_step_fixed_point_is_stationary():
    for rho in (0.1, 0.5, 1.0):
        node = _bern_plate(log_odds=0.9)
        out = engine.blr_step(node, np.array([0.9]), rho)
        assert out.lam.values[0] == pytest.approx(0.9)


def test_blr_step_rejects_bad_rate():
    node = _bern_plate()
    with pytest.raises(engine.ConfigurationError):
        engine.blr_step(node, np.array([1.0]), 0.0)
    with pytest.raises(engine.ConfigurationError):
        engine.blr_step(node, np.array([1.0]), 1.5)


def test_blr_step_domain_exit_raises():
    # a damped step from Beta(2,2) toward a negative target can leave alpha > 0
    node = _one_row_plate("pi", expfam.beta_natural(2.0, 2.0))
    with pytest.raises(expfam.DomainError):
        engine.blr_step(node, np.array([-40.0, -40.0]), 1.0)


# Comprehensions Python 3.12 inlines (PEP 709) and 3.10/3.11 run as frames of their own.
_INLINED_ON_312 = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _meanfield_frames(fn) -> int:
    """Python frames entered in meanfield's own files while ``fn`` runs, list, dict and set comprehensions not counted.

    Neither numpy's version nor Python's (3.10 to 3.12) moves this count;
    a generator expression makes a frame on each and is counted.
    """
    root = os.path.join(os.path.dirname(engine.__file__), "")
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        frames += event == "call" and code.co_filename.startswith(root) and code.co_name not in _INLINED_ON_312

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return frames


def _rate_one_steps():
    """A plate of each family with its model and data: gmm2's z, pi and comp, and PPCA's u."""
    gmm, _ = make_gmm(seed=0, n=20)
    gmm2 = models.build_gmm2(gmm, seed=0)
    matfac = models.MatrixFactorizationData(np.random.default_rng(0).standard_normal((6, 4)), 2, 1.0, 1.0)
    ppca = models.build_matfac(matfac, "ppca", seed=0)
    return [pytest.param(p, gmm2, gmm, id=p) for p in ("z", "pi", "comp")] + [pytest.param("u", ppca, matfac, id="u")]


# Python frames of one rate-1 plate step, specfun's included: a Gaussian-Wishart
# step calls digamma and gammaln 4 times each.  With a separate validation and
# mean pass these steps took 23, 35, 61 and 24 (comprehension frames counted).
_STEP_FRAME_BUDGET = {"z": 9, "pi": 17, "comp": 27, "u": 14}


@pytest.mark.parametrize("plate, model, data", _rate_one_steps())
def test_a_plate_step_stays_within_its_call_budget(plate, model, data):
    """A damped step validates lambda and derives mu in one pass per family, through no extra Python layer."""
    snap = engine.mu_snapshot(model.plates)
    target = engine._target(model, plate, snap, data)
    frames = _meanfield_frames(lambda: engine._step_with_backoff(snap.plates[plate], target, 1.0))
    assert frames <= _STEP_FRAME_BUDGET[plate], frames


# The numpy Python-level functions a fit's iteration may enter: np.linalg's
# cholesky and inv (with their array-function dispatchers) and where's
# dispatcher.  No errstate: ``fit`` sets numpy's floating-point state once,
# outside its iterations.  numpy 1.24 runs a public function as a Python
# wrapper named after it, from "<__array_function__ internals>"; 2.x enters
# its dispatcher and body from C.
_NUMPY_ENTRIES_ALLOWED = {"cholesky", "_cholesky_dispatcher", "inv", "_unary_dispatcher", "where"}


def _numpy_entries(fn) -> set[str]:
    """Names of the numpy Python functions that a frame in meanfield's own files calls directly while ``fn`` runs."""
    own = os.path.join(os.path.dirname(engine.__file__), "")
    numpy_dir = os.path.join(os.path.dirname(np.__file__), "")
    names = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code.co_filename.startswith(own):
            filename = frame.f_code.co_filename
            if filename.startswith(numpy_dir) or filename == "<__array_function__ internals>":
                names.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return names


def _iterations():
    """One fit iteration each of gmm2, PPCA and two-level CAVI and of logitnormal SVI, with its model and data."""
    gmm, _ = make_gmm(seed=0, n=20)
    matfac = models.MatrixFactorizationData(np.random.default_rng(0).standard_normal((6, 4)), 2, 1.0, 1.0)
    two_level = make_two_level(seed=0, n=12)
    logitnormal = models.LogitNormalMixtureData(two_level.log_pa, two_level.log_pb, 0.3)
    return [
        pytest.param(models.build_gmm2(gmm, seed=0), gmm, engine.Schedule(), id="gmm2"),
        pytest.param(models.build_matfac(matfac, "ppca", seed=0), matfac, engine.Schedule(), id="matfac_ppca"),
        pytest.param(models.build_two_level(two_level, seed=0), two_level, engine.Schedule(), id="two_level"),
        pytest.param(models.build_logitnormal(logitnormal, seed=0), logitnormal, engine.Schedule(engine.SVI), id="svi"),
    ]


@pytest.mark.parametrize("model, data, schedule", _iterations())
def test_an_iteration_enters_no_numpy_python_wrapper_but_linalg_and_where(model, data, schedule):
    """A step, the residual and the ELBO call numpy's C entry points: ufuncs, their reduces and ndarray methods.

    The first iteration is run beforehand, so that what is read off the data
    alone is memoised on the snapshot as in a fit.
    """
    snap = engine.mu_snapshot(model.plates)

    def iteration():
        if schedule.kind == engine.SVI:
            engine.svi_step(model, snap, data, 3, schedule.global_rate(0))
        else:
            engine.cavi_sweep(model, snap, data)
        engine.fixed_point_residual(model, snap, data)
        engine.elbo(model, snap, data)

    iteration()
    assert _numpy_entries(iteration) - _NUMPY_ENTRIES_ALLOWED == set()


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


def test_delta_moment_rejects_non_gaussian_nodes():
    with pytest.raises(expfam.DomainError, match="delta_moment requires a Gaussian node"):
        engine.delta_moment(_bern_node("z"))


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


@pytest.mark.parametrize(
    "z1", [{"role": engine.GLOBAL}, {"lam": expfam.beta_natural(1.0, 1.0)}], ids=["role", "family"]
)
def test_model_spec_rejects_a_plate_whose_nodes_differ(z1):
    """Nodes stacked into one plate must agree in family, role and delta mode; the first odd one is named."""
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    nodes = {n.id: n for n in two_level.nodes}
    nodes["z1"] = engine.NodeState.make("z1", z1.get("lam", nodes["z1"].lam), z1.get("role", nodes["z1"].role))
    with pytest.raises(engine.ConfigurationError, match="node 'z1' differs from 'z0' in family, role or delta mode"):
        engine.ModelSpec(tuple(nodes.values()), two_level.provider)


def test_schedule_validation():
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(kind="bogus")
    with pytest.raises(engine.ConfigurationError):
        engine.Schedule(rho=0.0)
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
    after = engine.cavi_sweep(model, dict(trace.plates), two_level_data)
    for name, plate in trace.plates.items():
        assert after[name].ids == plate.ids
        assert np.max(np.abs(after[name].lam.values - plate.lam.values)) < 1e-12


def test_a_model_with_no_factors_is_refused_as_incomplete():
    """No factors at all leave every provider plate incomplete, so the build fails rather than the fit."""
    with pytest.raises(engine.ConfigurationError, match="^plate 'z' is missing node 'z'$"):
        engine.ModelSpec((), models.SimpleMixtureProvider())


def test_model_spec_rejects_a_missing_provider_plate():
    """Nodes that leave out a whole plate of the provider fail where the model is built."""
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    without_pi = tuple(n for n in two_level.nodes if n.id != "pi")
    with pytest.raises(engine.ConfigurationError, match="plate 'pi'"):
        engine.ModelSpec(without_pi, two_level.provider)
    only_pi = tuple(n for n in two_level.nodes if n.id == "pi")
    with pytest.raises(engine.ConfigurationError, match="plate 'z'"):
        engine.ModelSpec(only_pi, two_level.provider)


def test_model_spec_rejects_a_node_in_no_provider_plate():
    """A node beside the provider's plates is named, whether the others come as nodes or as whole plates."""
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    stray = _bern_node("stray")
    for factors in (tuple(two_level.nodes), tuple(two_level.plates.values())):
        with pytest.raises(engine.ConfigurationError, match="^node 'stray' is in none of the provider's plates$"):
            engine.ModelSpec((*factors, stray), two_level.provider)


@pytest.mark.parametrize(
    "z_ids, repeated", [(("z0", "z1", "z0"), "z0"), (("z0", "z1", "pi"), "pi")], ids=["in_a_plate", "across_plates"]
)
def test_model_spec_rejects_whole_plates_whose_layout_repeats_an_id(z_ids, repeated):
    """Plates that match the layout as they are still fail where the layout itself repeats an id, which is named."""
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    provider = models.TwoLevelProvider(3)
    provider.plates = {"z": z_ids, "pi": ("pi",)}
    z, pi = two_level.plates.values()
    message = f"^node '{repeated}' is in the provider's plates more than once$"
    with pytest.raises(engine.ConfigurationError, match=message):
        engine.ModelSpec((engine.Plate(z_ids, z.lam), pi), provider)


@pytest.mark.parametrize("layout", [{"z": ("a", "a")}, {"z": ("a",), "w": ("a",)}], ids=["in_a_plate", "across_plates"])
def test_model_spec_rejects_nodes_whose_layout_repeats_an_id(layout):
    """Grouped from nodes, a layout that repeats an id fails as whole plates do, with a ConfigurationError naming it."""
    provider = models.SimpleMixtureProvider()
    provider.plates = layout
    with pytest.raises(engine.ConfigurationError, match="^node 'a' is in the provider's plates more than once$"):
        engine.ModelSpec((_bern_node("a", 0.0),), provider)


@pytest.mark.parametrize("shape", ["two_nodes", "a_plate_and_a_node"])
def test_model_spec_names_an_id_its_factors_repeat(shape):
    """Factors that repeat an id among themselves are refused with a ConfigurationError naming it."""
    if shape == "two_nodes":
        factors, provider, repeated = (_bern_node("z", 0.0), _bern_node("z", 0.0)), models.SimpleMixtureProvider(), "z"
    else:
        two_level = models.build_two_level(make_two_level(seed=2, n=3))
        factors, provider, repeated = (*two_level.plates.values(), _bern_node("z1")), two_level.provider, "z1"
    with pytest.raises(engine.ConfigurationError, match=f"^node '{repeated}' is in the model's factors more than once$"):
        engine.ModelSpec(factors, provider)


def test_whole_plates_that_match_the_layout_are_taken_as_they_are():
    two_level = models.build_two_level(make_two_level(seed=2, n=3))
    plates = tuple(two_level.plates.values())
    model = engine.ModelSpec(plates, two_level.provider)
    assert all(model.plates[name] is f for name, f in zip(two_level.provider.plates, plates))


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


@pytest.mark.parametrize("max_iter", [0, 5])
def test_an_svi_fit_of_a_model_svi_cannot_step_fails_before_the_first_record(monkeypatch, max_iter):
    data, _ = make_gmm(seed=1, n=6)
    calls = []
    monkeypatch.setattr(engine, "fixed_point_residual", lambda *args: calls.append(args))
    with pytest.raises(engine.ConfigurationError, match="SVI requires one local plate and one single-node global plate"):
        engine.fit(models.build_gmm2(data), data, engine.Schedule(engine.SVI), max_iter=max_iter)
    assert calls == []


def test_the_parallel_rate_is_defaulted_and_checked_by_schedule():
    assert engine.Schedule().rho == 0.5
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(engine.ConfigurationError, match=re.escape(f"rho must lie in (0, 1], got {bad:g}")):
            engine.Schedule(engine.PARALLEL_BLR, rho=bad)


@pytest.mark.parametrize("kind", ["dict", "snapshot"])
def test_an_empty_sweep_order_steps_no_plate(two_level_data, kind):
    """``order=()`` names no plate, so nothing steps; only ``order=None`` means the model's order."""
    model = models.build_two_level(two_level_data, seed=2)
    state = dict(model.plates) if kind == "dict" else engine.mu_snapshot(model.plates)
    assert engine.cavi_sweep(model, state, two_level_data, order=()) is state
    plates = state if kind == "dict" else state.plates
    assert plates.keys() == model.plates.keys()
    assert all(plates[name] is plate for name, plate in model.plates.items())


# ---------------------------------------------------------------------------
# fit / elbo / residual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [dict, engine.mu_snapshot], ids=["dict", "snapshot"])
def test_the_diagnostics_read_the_model_s_plates_and_no_other_entry(two_level_data, make):
    """A state entry that is not one of the model's plates adds no entropy and has no residual."""
    model = models.build_two_level(two_level_data, seed=2)
    gmm_data, _ = make_gmm(seed=0, n=8)
    plain, extra = make(model.plates), make({**model.plates, "comp": models.build_gmm2(gmm_data).plates["comp"]})
    assert engine.elbo(model, extra, two_level_data) == engine.elbo(model, plain, two_level_data)
    residual = engine.fixed_point_residual(model, plain, two_level_data)
    assert engine.fixed_point_residual(model, extra, two_level_data) == residual


def test_a_snapshot_of_the_per_id_view_is_refused_naming_its_first_id(two_level_data):
    """A NodeView's entries are per-id nodes, not plates, so no snapshot is made of them."""
    model = models.build_two_level(two_level_data, seed=2)
    trace = engine.fit(model, two_level_data, max_iter=2)
    with pytest.raises(engine.ConfigurationError, match="state entry 'z0' is not a Plate"):
        engine.mu_snapshot(trace.state)


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


def _random_state(rng, plates):
    """Each plate with every row's lambda drawn as ``checks._random_natural`` draws it, in the plate's own family."""
    state = {}
    for name, plate in plates.items():
        fam, rows = plate.family, []
        for _ in plate.ids:
            lam = checks._random_natural(rng, fam.kind, fam.dim)
            if fam.kind == expfam.BETA:  # the plate's base measure: reciprocal lambdas are (a, b), not (a - 1, b - 1)
                lam = expfam.beta_natural(*expfam.beta_ab(lam), fam.base_measure)
            rows.append(lam.values)
        state[name] = engine.Plate(plate.ids, expfam.NaturalParam(fam, np.array(rows)), plate.role, plate.delta_mode)
    return state


def _symmetric_direction(rng, family, shape) -> np.ndarray:
    """A standard normal direction in a plate's lambda, symmetric in its matrix block where it has one."""
    v = rng.standard_normal(shape)
    start = {expfam.GAUSSIAN: family.dim, expfam.GAUSSIAN_WISHART: 1}.get(family.kind)
    if start is not None:
        d = family.dim
        block = v[:, start : start + d * d].reshape(-1, d, d)
        v[:, start : start + d * d] = (0.5 * (block + block.swapaxes(1, 2))).reshape(len(v), d * d)
    return v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_elbo_s_slope_in_mu_is_target_minus_lambda_at_random_states(seed):
    """dELBO/dmu = target - lambda at every state, not only at the fixed point (Hoffman et al. 2013).

    The target is the coefficient minus the base measure's gradient, with a
    non-conjugate term's natural gradient in the coefficient's place (Khan &
    Lin 2017); the ELBO is the expected log-joint plus the entropies.  A
    central difference along a random direction v of one plate's lambda must
    match (target - lambda) . (mu(lambda + h v) - mu(lambda - h v)), on every
    plate that is not a point mass, at a state drawn away from the fixed
    point.  A wrong entropy, base measure or coefficient breaks it.
    """
    rng = np.random.default_rng(seed)
    instances = checks._model_instances(seed)
    two_level = next(data for name, _, data in instances if name == "two_level")
    instances.append(("two_level_reciprocal", models.build_two_level(two_level, shifted_beta=True), two_level))
    for name, model, data in instances:
        state = _random_state(rng, model.plates)
        snap = engine.mu_snapshot(state)
        for plate_name, plate in state.items():
            if plate.delta_mode:
                continue
            lam = plate.lam.values
            slope = engine._target(model, plate_name, snap, data) - lam
            h = 1e-6 * max(1.0, float(np.max(np.abs(lam))))
            for _ in range(5):
                step = h * _symmetric_direction(rng, plate.family, lam.shape)
                ends = [engine.Plate(plate.ids, expfam.NaturalParam(plate.family, lam + sign * step), plate.role)
                        for sign in (1.0, -1.0)]
                lhs = engine.elbo(model, {**state, plate_name: ends[0]}, data)
                lhs -= engine.elbo(model, {**state, plate_name: ends[1]}, data)
                rhs = float(np.sum(slope * (ends[0].mu.values - ends[1].mu.values)))
                gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
                assert gap < 1e-5, f"{name}/{plate_name}: relative gap {gap:.3g} ({lhs!r} against {rhs!r})"


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


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_schedule_rejects_a_bad_seed_by_name(seed):
    """A seed numpy's generator would reject fails where it is given, not at the next fit."""
    with pytest.raises(engine.ConfigurationError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        engine.Schedule(seed=seed)


def test_schedule_takes_a_numpy_integer_seed(two_level_data):
    model = models.build_two_level(two_level_data)
    schedule = engine.Schedule(engine.SVI, seed=np.int64(4))
    trace = engine.fit(model, two_level_data, schedule, tol=1e-300, max_iter=np.int32(3))
    assert trace.records[-1].iteration == 3


@pytest.mark.parametrize("max_iter", [1.5, "3", True], ids=["float", "str", "bool"])
def test_fit_rejects_a_max_iter_that_is_not_an_integer_by_name(two_level_data, max_iter):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match=f"max_iter must be a nonnegative integer, got {max_iter!r}"):
        engine.fit(model, two_level_data, max_iter=max_iter)


def test_fit_rejects_nan_tol_instead_of_running_to_max_iter(two_level_data):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match="tol"):
        engine.fit(model, two_level_data, tol=float("nan"), max_iter=3)


def test_a_nan_tol_keeps_its_message(two_level_data):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match="^tol must be positive, got nan$"):
        engine.fit(model, two_level_data, tol=float("nan"), max_iter=3)


@pytest.mark.parametrize("tol", [float("inf"), np.float64("inf")], ids=["float", "numpy"])
def test_fit_rejects_an_infinite_tol_instead_of_converging_at_once(two_level_data, tol):
    """An infinite tol would stop every fit after its first record, converged, at any residual."""
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match="^tol must be positive and finite, got inf$"):
        engine.fit(model, two_level_data, tol=tol)


_NOT_ONE_REAL_NUMBER = {"numpy-bool": np.True_, "complex": 0.3 + 0.1j, "array": np.array([0.5, 0.5])}


def test_fit_rejects_a_string_tol_by_name(two_level_data):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match="^tol must be one real number, got '1e-3'$"):
        engine.fit(model, two_level_data, tol="1e-3")


def test_fit_rejects_a_bool_tol_by_name(two_level_data):
    model = models.build_two_level(two_level_data)
    with pytest.raises(engine.ConfigurationError, match="^tol must be one real number, got True$"):
        engine.fit(model, two_level_data, tol=True)


@pytest.mark.parametrize("kind", ["numpy-bool", "complex", "array"])
def test_fit_rejects_a_tol_that_is_not_one_real_number_by_name(two_level_data, kind):
    model, bad = models.build_two_level(two_level_data), _NOT_ONE_REAL_NUMBER[kind]
    with pytest.raises(engine.ConfigurationError, match=f"^{re.escape(f'tol must be one real number, got {bad!r}')}$"):
        engine.fit(model, two_level_data, tol=bad)


@pytest.mark.parametrize(
    "name, value",
    [
        ("rho", "0.5"),
        ("kappa", "0.7"),
        ("tau", None),
        pytest.param("tau", "2", id="tau-text"),
        *(pytest.param(name, bad, id=f"{name}-{kind}") for name in ("rho", "kappa", "tau")
          for kind, bad in _NOT_ONE_REAL_NUMBER.items()),
    ],
)
def test_schedule_rejects_a_rate_that_is_not_a_number_by_name(name, value):
    """A string, None, a numpy bool, a complex value or an array is named where it is given, not compared."""
    with pytest.raises(engine.ConfigurationError, match=re.escape(f"{name} must be one real number, got {value!r}")):
        engine.Schedule(**{name: value})


@pytest.mark.parametrize("kind, name", [(engine.PARALLEL_BLR, "rho"), (engine.CAVI, "kappa"), (engine.SVI, "tau")])
def test_schedule_rejects_a_bool_rate_by_name(kind, name):
    """True would pass every range check as 1; like a bool seed, it is not taken for a number."""
    with pytest.raises(engine.ConfigurationError, match=re.escape(f"{name} must be one real number, got True")):
        engine.Schedule(kind, **{name: True})


@pytest.mark.parametrize("convert", [np.float64, np.int64, np.array], ids=["float64", "int64", "0-d"])
def test_schedule_and_fit_take_a_numpy_number_or_a_0_d_array_as_their_float(two_level_data, convert):
    """An SVI fit whose rates and tol are numpy numbers or 0-d arrays is bitwise the fit at Python floats."""
    model = models.build_two_level(two_level_data)
    want = engine.fit(model, two_level_data, engine.Schedule(engine.SVI, kappa=1.0, tau=2.0), tol=1.0, max_iter=20)
    schedule = engine.Schedule(engine.SVI, rho=convert(1.0), kappa=convert(1.0), tau=convert(2.0))
    got = engine.fit(model, two_level_data, schedule, tol=convert(1.0), max_iter=20)
    assert (schedule.rho, schedule.kappa, schedule.tau) == (1.0, 1.0, 2.0)
    assert got.elbos.tobytes() == want.elbos.tobytes() and got.residuals.tobytes() == want.residuals.tobytes()
    assert got.converged == want.converged


@pytest.mark.parametrize("name", ["rho", "kappa", "tau"])
def test_a_nan_rate_keeps_its_range_message(name):
    with pytest.raises(engine.ConfigurationError, match=f"^{name} must (lie in|be finite)"):
        engine.Schedule(engine.SVI, **{name: float("nan")})


@pytest.mark.parametrize("tau", [float("inf"), float("nan")])
def test_schedule_rejects_a_tau_that_is_not_finite(tau):
    with pytest.raises(engine.ConfigurationError, match="tau must be finite"):
        engine.Schedule(kind=engine.SVI, tau=tau)


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
        engine.Schedule(kind="parallel", rho=0.5),
        tol=1e-12,
        max_iter=800,
    )
    assert par.converged
    for name, plate in cavi.plates.items():
        assert par.plates[name].ids == plate.ids
        assert np.max(np.abs(par.plates[name].lam.values - plate.lam.values)) < 1e-6


def test_parallel_step_reads_frozen_snapshot(two_level_data):
    """Every node's target must come from the pre-iteration state."""
    model = models.build_two_level(two_level_data, seed=7)
    state = dict(model.plates)
    snap_before = engine.mu_snapshot(model.plates)
    expected = {name: model.provider.coefficient(name, snap_before, two_level_data) for name in state}
    engine._parallel_step(model, state, two_level_data, 1.0)
    for name, plate in state.items():
        assert plate.lam.values == pytest.approx(expected[name], abs=1e-14)


def test_sweep_refreshes_a_plates_lambda_with_its_expectations(two_level_data):
    """A plate stepped earlier in a sweep is read with its new lambda, paired with its new expectations."""
    model = models.build_two_level(two_level_data, seed=7)
    seen = []

    class Spy(models.TwoLevelProvider):
        def coefficient(self, plate, mus, data):
            if plate == "pi":
                seen.append((mus.lam("z"), mus["z"]))
            return super().coefficient(plate, mus, data)

    spy = engine.ModelSpec(tuple(model.plates.values()), Spy(two_level_data.n))
    state = engine.cavi_sweep(spy, dict(spy.plates), two_level_data, order=("z", "pi"))
    (lam, mu), = seen
    assert lam is state["z"].lam and lam is not spy.plates["z"].lam
    assert mu is state["z"].mu.values


# ---------------------------------------------------------------------------
# the fit's live snapshot and its target memo
# ---------------------------------------------------------------------------


def _simple():
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    return models.build_simple_mixture(data, seed=8), data


def _two_level():
    data = make_two_level(seed=8)
    return models.build_two_level(data, seed=8), data


def _gmm2():
    data, _ = make_gmm(seed=8, n=20)
    return models.build_gmm2(data, seed=8), data


def _matfac_ppca():
    rng = np.random.default_rng(8)
    data = models.MatrixFactorizationData(rng.standard_normal((6, 4)), 2, 1.0, 1.0)
    return models.build_matfac(data, "ppca", seed=8), data


def _logitnormal():
    rng = np.random.default_rng(8)
    data = models.LogitNormalMixtureData(rng.normal(size=8), rng.normal(size=8), 0.3)
    return models.build_logitnormal(data, seed=8), data


@pytest.mark.parametrize(
    "build, schedule, per_iter",
    [
        (_two_level, engine.Schedule(engine.CAVI), 2),
        (_two_level, engine.Schedule(engine.PARALLEL_BLR, rho=0.5), 2),
        (_gmm2, engine.Schedule(engine.CAVI), 3),
        (_matfac_ppca, engine.Schedule(engine.CAVI), 2),
        (_logitnormal, engine.Schedule(engine.SVI, seed=8), 3),
    ],
    ids=["two_level_cavi", "two_level_parallel", "gmm2_cavi", "matfac_ppca_cavi", "logitnormal_svi"],
)
def test_fit_reads_a_target_off_again_only_after_a_plate_it_reads_moved(monkeypatch, build, schedule, per_iter):
    """The initial record reads every plate once; then each iteration reuses the targets whose inputs held still.

    CAVI reuses the residual's target for the first step of a sweep and the
    last step's target for the residual, a parallel step every residual
    target, and SVI the local plate's residual target.
    """
    for k in range(4):
        model, data = build()
        calls = {"coefficient": 0, "mu_snapshot": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        provider = type(model.provider)
        monkeypatch.setattr(provider, "coefficient", counted(provider.coefficient, "coefficient"))
        monkeypatch.setattr(engine, "mu_snapshot", counted(engine.mu_snapshot, "mu_snapshot"))
        trace = engine.fit(model, data, schedule, tol=1e-300, max_iter=k)
        monkeypatch.undo()
        assert len(trace.records) == k + 1
        assert calls == {"coefficient": len(model.plates) + k * per_iter, "mu_snapshot": 1}


_READS = [
    (_simple, {"z": set()}),
    (_two_level, {"z": {"pi"}, "pi": {"z"}}),
    (_gmm2, {"z": {"pi", "comp"}, "pi": {"z"}, "comp": {"z"}}),
    (_matfac_ppca, {"u": {"v"}, "v": {"u"}}),
    (_logitnormal, {"z": {"pi"}, "pi": {"z", "pi"}}),
]
_READS_IDS = ["simple", "two_level", "gmm2", "matfac_ppca", "logitnormal"]


@pytest.mark.parametrize(
    "build, reads, elbo_first",
    [(*case, False) for case in _READS] + [(*case, True) for case in _READS],
    ids=_READS_IDS + [f"{name}_elbo_first" for name in _READS_IDS],
)
def test_a_snapshot_records_the_entries_each_coefficient_reads(build, reads, elbo_first):
    """A plate's recorded reads are its Markov blanket; the non-conjugate weight reads itself.

    A read-off the coefficient shares with the ELBO adds its reads to the
    coefficient's, also when the ELBO read it off first.
    """
    model, data = build()
    snap = engine.mu_snapshot(model.plates)
    if elbo_first:
        model.provider.expected_log_joint(snap, data)
    for plate in model.plates:
        snap.coefficient(model.provider, plate, data)
    assert {plate: set(snap.reads(plate)) for plate in model.plates} == reads


def test_a_comp_put_makes_the_indicators_read_the_data_again(monkeypatch):
    """gmm2's log-likelihoods, read off by the ELBO, serve the indicators until "comp" is put."""
    calls = []
    expected = models.expected_log_component

    def counted(*args):
        calls.append(1)
        return expected(*args)

    monkeypatch.setattr(models, "expected_log_component", counted)
    model, data = _gmm2()
    snap = engine.mu_snapshot(model.plates)
    model.provider.expected_log_joint(snap, data)
    snap.coefficient(model.provider, "z", data)
    assert len(calls) == 1
    snap.put("pi", snap.plates["pi"])
    snap.coefficient(model.provider, "z", data)
    assert len(calls) == 1
    snap.put("comp", snap.plates["comp"])
    snap.coefficient(model.provider, "z", data)
    assert len(calls) == 2


def _bernoulli_snapshot(names="abc"):
    """A snapshot of one-node Bernoulli plates, one per name."""
    bern = expfam.FamilyDescriptor(expfam.BERNOULLI)
    return engine.mu_snapshot({n: engine.Plate((n,), expfam.NaturalParam(bern, np.zeros((1, 1)))) for n in names})


class _Slots:
    """Read-offs of a snapshot under one owner, each counting the times it runs."""

    def __init__(self, snap):
        self.snap, self.owner, self.runs = snap, object(), {}

    def read(self, slot, *entries, data=None, owner=None, inner=None):
        """The value of ``slot``, reading ``entries`` and then the read-off ``inner`` names, if any."""

        def fn():
            self.runs[slot] = self.runs.get(slot, 0) + 1
            total = sum(float(self.snap[e][0, 0]) for e in entries)
            return total + (self.read(inner) if inner else 0.0)

        return self.snap.read_off(slot, owner or self.owner, data, fn)

    def all(self):
        self.read("a only", "a")
        self.read("outer", "b", inner="a only")  # the inner read-off hits, and its read of "a" counts
        self.read("c only", "c")
        self.read("nothing")


def test_a_put_drops_exactly_the_read_offs_that_read_its_entry():
    snap = _bernoulli_snapshot()
    slots = _Slots(snap)
    slots.all()
    assert slots.runs == {"a only": 1, "outer": 1, "c only": 1, "nothing": 1}
    slots.all()
    assert slots.runs == {"a only": 1, "outer": 1, "c only": 1, "nothing": 1}
    snap.put("a", snap.plates["a"])  # the same plate again: a put all the same
    slots.all()
    assert slots.runs == {"a only": 2, "outer": 2, "c only": 1, "nothing": 1}
    snap.put("b", snap.plates["b"])
    slots.all()
    assert slots.runs == {"a only": 2, "outer": 3, "c only": 1, "nothing": 1}


def test_a_put_of_an_entry_nothing_read_keeps_every_read_off():
    snap = _bernoulli_snapshot("abcd")
    slots = _Slots(snap)
    slots.all()
    snap.put("d", snap.plates["d"])
    slots.all()
    assert slots.runs == {"a only": 1, "outer": 1, "c only": 1, "nothing": 1}


def test_a_read_off_misses_for_another_owner_or_data_object():
    snap = _bernoulli_snapshot()
    slots = _Slots(snap)
    data, other = object(), object()
    for owner, data_object, runs in [
        (slots.owner, data, 1),
        (slots.owner, data, 1),
        (object(), data, 2),
        (slots.owner, data, 3),
        (slots.owner, other, 4),
        (slots.owner, other, 4),
    ]:
        slots.read("a only", "a", data=data_object, owner=owner)
        assert slots.runs["a only"] == runs


def test_the_reads_of_a_coefficient_dropped_by_a_put_are_a_key_error():
    """``reads`` answers for a held coefficient only, as its docstring says."""
    model, data = _two_level()
    snap = engine.mu_snapshot(model.plates)
    snap.coefficient(model.provider, "z", data)
    assert snap.reads("z") == {"pi"}
    snap.put("z", snap.plates["z"])  # "z" does not read itself: held
    assert snap.reads("z") == {"pi"}
    snap.put("pi", snap.plates["pi"])
    with pytest.raises(KeyError):
        snap.reads("z")
    snap.coefficient(model.provider, "z", data)
    assert snap.reads("z") == {"pi"}


def test_a_checked_snapshot_whose_plate_is_put_back_as_a_node_is_rejected(two_level_data):
    """A snapshot a fit has used admits nothing but a plate: the put of a node is refused and leaves the entry."""
    model = models.build_two_level(two_level_data, seed=3)
    snap = engine.mu_snapshot(model.plates)
    engine.cavi_sweep(model, snap, two_level_data)
    engine.cavi_sweep(model, snap, two_level_data)
    pi = snap.plates["pi"]
    with pytest.raises(engine.ConfigurationError, match="state entry 'pi' is not a Plate"):
        snap.put("pi", engine.NodeView(dict(snap.plates))["pi"])
    assert snap.plates["pi"] is pi


_INSTANCES = checks._model_instances(0)


@pytest.mark.parametrize("case", range(len(_INSTANCES)), ids=[name for name, _, _ in _INSTANCES])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(puts=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=6))
def test_a_live_snapshot_reads_as_a_fresh_one_after_any_puts(case, puts):
    """After each put of random valid rows into one plate, every memoised read-off equals a fresh snapshot's.

    ``check multilinearity`` builds a new snapshot per case, so it cannot
    see a memo that outlives the entries it read; this can.
    """
    _, model, data = _INSTANCES[case]
    names = list(model.plates)
    snap = engine.mu_snapshot(model.plates)

    def assert_fresh(elbo_first: bool):
        fresh = engine.mu_snapshot(snap.plates)
        if elbo_first:
            assert model.provider.expected_log_joint(snap, data) == model.provider.expected_log_joint(fresh, data)
        for name in names:
            assert np.array_equal(
                snap.coefficient(model.provider, name, data), fresh.coefficient(model.provider, name, data)
            )
        assert model.provider.expected_log_joint(snap, data) == model.provider.expected_log_joint(fresh, data)
        assert engine.fixed_point_residual(model, snap, data) == engine.fixed_point_residual(model, fresh, data)

    assert_fresh(False)
    for pick, seed, elbo_first in puts:
        name = names[pick % len(names)]
        fam, rng = snap.plates[name].family, np.random.default_rng(seed)
        rows = [checks._random_natural(rng, fam.kind, fam.dim).values for _ in snap.plates[name].ids]
        old = snap.plates[name]
        snap.put(name, engine.Plate(old.ids, expfam.NaturalParam(fam, np.stack(rows)), old.role, old.delta_mode))
        assert_fresh(elbo_first)


def test_a_snapshot_argument_changes_no_result(two_level_data):
    """A snapshot as the state, even one that served other data, gives the results of its plate dict."""
    model = models.build_two_level(two_level_data, seed=3)
    moved = engine.cavi_sweep(model, dict(model.plates), two_level_data)
    other = make_two_level(seed=4)
    snap = engine.mu_snapshot(moved)
    engine.fixed_point_residual(model, snap, other)  # memoise targets for other data
    assert engine.fixed_point_residual(model, snap, two_level_data) == (
        engine.fixed_point_residual(model, moved, two_level_data)
    )
    assert engine.elbo(model, snap, two_level_data) == engine.elbo(model, moved, two_level_data)
    assert engine.cavi_sweep(model, snap, two_level_data) is snap
    plain = engine.cavi_sweep(model, dict(moved), two_level_data)
    assert list(snap.plates) == list(plain)
    for name in plain:
        assert np.array_equal(snap.plates[name].lam.values, plain[name].lam.values)


def test_a_live_snapshot_follows_every_stepped_plate(two_level_data):
    """After a sweep, frozen or not, a snapshot state holds the plates a plate dict gets, and a memoised target is read-only."""
    model = models.build_two_level(two_level_data, seed=3)
    for frozen in (False, True):
        snap, state = engine.mu_snapshot(model.plates), dict(model.plates)
        for s in (snap, state):
            if frozen:
                engine._parallel_step(model, s, two_level_data, 0.5)
            else:
                engine.cavi_sweep(model, s, two_level_data)
        fresh = engine.mu_snapshot(state)
        for name in state:
            assert np.array_equal(snap.plates[name].lam.values, state[name].lam.values)
            assert np.array_equal(snap[name], fresh[name]) and snap.lam(name) is snap.plates[name].lam
    target = engine._target(model, "z", snap, two_level_data)
    with pytest.raises(ValueError, match="read-only"):
        target[0, 0] = 0.0


def test_a_snapshot_owns_its_plates(two_level_data):
    """``snap.plates`` cannot be set through, and sweeping a snapshot leaves the plates it was built from alone."""
    model = models.build_two_level(two_level_data, seed=3)
    before = dict(model.plates)
    snap = engine.mu_snapshot(model.plates)
    with pytest.raises(TypeError):
        snap.plates["z"] = before["z"]
    engine.cavi_sweep(model, snap, two_level_data)
    assert list(model.plates) == list(before) and all(model.plates[name] is p for name, p in before.items())
    assert all(snap.plates[name] is not p for name, p in before.items())


# ---------------------------------------------------------------------------
# rate backoff
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, dim", [(expfam.BERNOULLI, 1), (expfam.BETA, 1), (expfam.GAUSSIAN, 2), (expfam.GAUSSIAN_WISHART, 2)])
@pytest.mark.parametrize("rho", [0.3, 1.0])
def test_a_scalar_rate_steps_bitwise_as_the_same_rate_per_row(kind, dim, rho):
    rng = np.random.default_rng(4)
    start, goal = ([checks._random_natural(rng, kind, dim) for _ in range(3)] for _ in range(2))
    family = start[0].family
    plate = engine.Plate(("a", "b", "c"), expfam.NaturalParam(family, np.stack([s.values for s in start])))
    target = np.stack([g.values for g in goal])
    scalar = engine.blr_step(plate, target, rho)
    per_row = engine.blr_step(plate, target, np.full(3, rho))
    assert scalar.lam.values.tobytes() == per_row.lam.values.tobytes()
    assert scalar.mu.values.tobytes() == per_row.mu.values.tobytes()


def test_a_non_finite_target_row_is_named():
    bern = expfam.FamilyDescriptor(expfam.BERNOULLI)
    plate = engine.Plate([f"z{i}" for i in range(4)], expfam.NaturalParam(bern, np.zeros((4, 1))))
    target = np.ones((4, 1))
    target[2, 0] = np.nan
    with pytest.raises(expfam.NumericalError, match="update target of node 'z2' is not finite"):
        engine._step_with_backoff(plate, target, 1.0)
    # a row outside the stepped rows keeps its lambda, so its target is not read
    out = engine._step_with_backoff(plate, target, 1.0, rows=[1])
    assert out.lam.values[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]


def _counted_blr_steps(monkeypatch) -> list:
    """Count the damped steps ``_step_with_backoff`` tries: one, then one per rate halving."""
    calls = []
    step = engine.blr_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(engine, "blr_step", counted)
    return calls


@pytest.mark.parametrize(
    "kind, dim, bad, rho, rows",
    [
        (expfam.BERNOULLI, 1, np.inf, 0.3, None),
        (expfam.BETA, 1, np.nan, 1.0, None),
        (expfam.GAUSSIAN_WISHART, 2, np.nan, 1.0, None),
        (expfam.BERNOULLI, 1, np.nan, 1.0, [2]),
    ],
    ids=["inf_at_rate_0.3", "nan_beta", "nan_gaussian_wishart", "nan_in_the_stepped_row"],
)
def test_a_non_finite_target_fails_before_any_rate_halving(monkeypatch, kind, dim, bad, rho, rows):
    """The non-finite lambda it makes is caught at the first try, and named as the target's fault."""
    rng = np.random.default_rng(11)
    start, goal = ([checks._random_natural(rng, kind, dim) for _ in range(4)] for _ in range(2))
    plate = engine.Plate(
        [f"n{i}" for i in range(4)], expfam.NaturalParam(start[0].family, np.stack([s.values for s in start]))
    )
    target = np.stack([g.values for g in goal])
    target[2, -1] = bad
    calls = _counted_blr_steps(monkeypatch)
    with pytest.raises(expfam.NumericalError, match="update target of node 'n2' is not finite"):
        engine._step_with_backoff(plate, target, rho, rows)
    assert len(calls) <= 1  # the first try at most: no rate was halved


def test_a_finite_target_that_leaves_the_domain_still_halves_every_time(monkeypatch):
    plate = _one_row_plate("pi", expfam.beta_natural(1e-9, 1e-9))
    calls = _counted_blr_steps(monkeypatch)
    with pytest.raises(expfam.DomainError, match="left the parameter domain even after 10 rate halvings"):
        engine._step_with_backoff(plate, np.array([[-1e9, -1e9]]), 1.0)
    assert len(calls) == engine._MAX_RATE_HALVINGS


class _NanProvider(engine.CoefficientProvider):
    """One Bernoulli node whose coefficient is NaN."""

    plates = {"z": ("z",)}

    def coefficient(self, plate, mus, data):
        return np.array([[np.nan]])

    def expected_log_joint(self, mus, data):
        return 0.0


@pytest.mark.parametrize("max_iter", [0, 100])
def test_a_non_finite_coefficient_fails_the_fit_instead_of_converging(max_iter):
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.zeros((1, 1)))
    model = engine.ModelSpec((engine.Plate(("z",), lam),), _NanProvider())
    with pytest.raises(expfam.NumericalError, match="update target of node 'z' is not finite"):
        engine.fit(model, None, max_iter=max_iter)


def _one_row_plate(node_id, lam, delta_mode=False):
    """A plate holding one node, as ``_step_with_backoff`` takes it."""
    return engine.Plate((node_id,), expfam.NaturalParam(lam.family, lam.values[None, :]), delta_mode=delta_mode)


def test_backoff_halves_rate_until_feasible():
    # full step toward (-0.5, -0.5) leaves the Beta domain from (1, 1)
    # (alpha would hit 0.5-eps at full rate is fine; force an infeasible one)
    plate = _one_row_plate("pi", expfam.beta_natural(2.0, 2.0))
    target = np.array([[-1.5, -1.5]])  # alpha-1 = -1.5 -> alpha = -0.5 infeasible
    out = engine._step_with_backoff(plate, target, 1.0)
    # first feasible halving: rho = 0.5 gives lambda = (-0.25, -0.25), alpha = 0.75
    assert out.lam.values[0] == pytest.approx([-0.25, -0.25])


def test_full_step_onto_a_large_mean_gaussian_is_not_halved():
    """A valid lambda whose mean is large against its sd is taken at rate 1; its mu is not re-checked for PSD."""
    mean, precision = list(large_mean_gaussians(66))[65]
    target = expfam.gaussian_natural(mean, precision).values[None, :]
    plate = _one_row_plate("u", expfam.gaussian_natural(np.zeros(3), np.eye(3)), delta_mode=True)
    out = engine._step_with_backoff(plate, target, 1.0)
    assert np.array_equal(out.lam.values, target)
    assert np.array_equal(engine.delta_moment(out).values[:, :3], out.mu.values[:, :3])


def test_backoff_eventually_gives_up():
    plate = _one_row_plate("pi", expfam.beta_natural(1e-9, 1e-9))
    with pytest.raises(expfam.DomainError, match="rate halvings"):
        engine._step_with_backoff(plate, np.array([[-1e9, -1e9]]), 1.0)


def test_backoff_halves_only_the_gaussian_wishart_row_that_leaves_the_domain(monkeypatch):
    """The rows of one GW plate back off apart, as two one-row plates did."""
    eye = np.eye(2)
    start = [expfam.gw_natural(4.0, 3.0, [0.1, -0.2], eye), expfam.gw_natural(5.0, 3.0, [0.3, 0.1], 2.0 * eye)]
    lam = expfam.NaturalParam(start[0].family, np.stack([s.values for s in start]))
    plate = engine.Plate(("comp_a", "comp_b"), lam, role=engine.GLOBAL)
    goal0 = expfam.gw_natural(6.0, 2.0, [0.5, 0.5], eye).values
    mid = expfam.gw_natural(4.5, 1.0, [0.2, 0.0], eye).values
    goal1 = 2.0 * mid - start[1].values  # half way is mid; the full step has gamma = 2 - 3 = -1
    with pytest.raises(expfam.DomainError, match="gamma > 0"):
        expfam.NaturalParam(lam.family, goal1)
    rates = []

    def recorded(node, target, rho):
        rates.append(np.broadcast_to(np.array(rho, dtype=float), (2,)).tolist())  # the first try passes a scalar
        return step(node, target, rho)

    step = engine.blr_step
    monkeypatch.setattr(engine, "blr_step", recorded)
    out = engine._step_with_backoff(plate, np.stack([goal0, goal1]), 1.0)
    assert rates == [[1.0, 1.0], [1.0, 0.5]]
    assert np.array_equal(out.lam.values[0], goal0)
    assert out.lam.values[1] == pytest.approx(mid, rel=1e-12)


# ---------------------------------------------------------------------------
# properties of any small fit: the CAVI ELBO never drops, and the stop rule holds
# ---------------------------------------------------------------------------

_CONJUGATE = ("simple_mixture", "two_level", "two_level_reciprocal", "gmm2", "matfac_vmp", "matfac_ppca", "matfac_als")
_POSITIVE = st.floats(0.1, 50.0)


@st.composite
def _small_models(draw, names):
    """(model, data) of one of ``names``, built directly: 2-12 rows, cells in +-50, priors in the CLI's ranges."""
    name = draw(st.sampled_from(names))
    seed = draw(st.integers(0, 1000))
    if name == "simple_mixture":
        data = models.SimpleMixtureData(draw(st.floats(0.01, 0.99)), draw(st.floats(1e-3, 50.0)), draw(st.floats(1e-3, 50.0)))
        return models.build_simple_mixture(data, seed=seed), data
    width = 2 if name.startswith(("two_level", "logitnormal")) else draw(st.integers(1, 3 if name == "gmm2" else 5))
    y = np.array(draw(st.lists(st.lists(st.floats(-50.0, 50.0), min_size=width, max_size=width), min_size=2, max_size=12)))
    if name.startswith("two_level"):
        data = models.TwoLevelMixtureData(y[:, 0], y[:, 1], draw(_POSITIVE), draw(_POSITIVE))
        return models.build_two_level(data, seed=seed, shifted_beta=name.endswith("reciprocal")), data
    if name == "logitnormal":
        data = models.LogitNormalMixtureData(y[:, 0], y[:, 1], draw(st.floats(-50.0, 50.0)))
        return models.build_logitnormal(data, seed=seed), data
    if name == "gmm2":
        nu0, w0_scale = draw(st.floats(width - 0.9, width + 20.0)), draw(st.floats(0.1, 10.0))
        data = models.GMMData(y, draw(_POSITIVE), draw(_POSITIVE), draw(_POSITIVE), nu0, w0_scale * np.eye(width))
        return models.build_gmm2(data, seed=seed), data
    data = models.MatrixFactorizationData(y, draw(st.integers(1, 4)), draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    return models.build_matfac(data, name.split("_")[1], seed=seed), data


def _fit_or_domain_error(model, data, schedule, tol, max_iter):
    """The fit, or None when it stops on a DomainError or NumericalError; ``fit`` sets its own floating-point state."""
    try:
        return engine.fit(model, data, schedule, tol=tol, max_iter=max_iter)
    except (expfam.DomainError, expfam.NumericalError):
        return None


@pytest.mark.parametrize("kind", [engine.CAVI, engine.PARALLEL_BLR])
@pytest.mark.parametrize("name", ["two_level", "logitnormal", "gmm2"])
def test_a_cavi_or_parallel_fit_does_not_read_the_schedule_seed(name, kind):
    """Only SVI draws (its rows); the other schedules give the same fit at any seed."""
    _, model, data, _ = next(m for m in _mixture_models() if m[0] == name)
    a, b = (engine.fit(model, data, engine.Schedule(kind, seed=seed), max_iter=30) for seed in (0, 7))
    assert a.elbos.tobytes() == b.elbos.tobytes() and a.residuals.tobytes() == b.residuals.tobytes()
    assert a.plates.keys() == b.plates.keys()
    for plate, other in zip(a.plates.values(), b.plates.values()):
        assert plate.lam.values.tobytes() == other.lam.values.tobytes()


@settings(max_examples=50, deadline=None)
@given(built=_small_models(_CONJUGATE), max_iter=st.integers(0, 60))
def test_the_cavi_elbo_never_drops(built, max_iter):
    """Every CAVI step is a coordinate ascent on the ELBO, so no recorded ELBO falls by more than
    ``suite_monotonicity``'s slack.  Logit-normal is left out: its weight step is a non-conjugate
    fixed-point step with no ascent guarantee."""
    trace = _fit_or_domain_error(*built, engine.Schedule(engine.CAVI), 1e-10, max_iter)
    if trace is not None:
        elbos = trace.elbos
        assert not (np.diff(elbos) < -1e-10 * np.maximum(1.0, np.abs(elbos[:-1]))).any(), elbos


@st.composite
def _small_fits(draw):
    """A small model with a schedule it supports, a tol and a max_iter <= 60."""
    model, data = draw(_small_models(_CONJUGATE + ("logitnormal",)))
    svi = isinstance(model.provider, models.TwoLevelProvider)
    schedule = engine.Schedule(
        draw(st.sampled_from([engine.CAVI, engine.PARALLEL_BLR] + ([engine.SVI] if svi else []))),
        rho=draw(st.floats(0.05, 1.0)),
        kappa=draw(st.floats(0.51, 1.0)),
        tau=draw(st.floats(1.0, 10.0)),
        seed=draw(st.integers(0, 1000)),
    )
    return model, data, schedule, 10.0 ** draw(st.floats(-12.0, -2.0)), draw(st.integers(0, 60))


@settings(max_examples=50, deadline=None)
@given(run=_small_fits())
def test_a_fit_converges_or_says_it_did_not_within_max_iter(run):
    """Records 0..k; converged is exactly residuals[-1] < tol, and k = max_iter when it is false."""
    model, data, schedule, tol, max_iter = run
    trace = _fit_or_domain_error(model, data, schedule, tol, max_iter)
    if trace is not None:
        k = len(trace.records) - 1
        assert [r.iteration for r in trace.records] == list(range(k + 1))
        assert trace.converged == (trace.residuals[-1] < tol)
        assert not (trace.residuals[:-1] < tol).any()  # it stops at the first residual below tol
        assert trace.converged or k == max_iter
        assert k <= max_iter


# ---------------------------------------------------------------------------
# one floating-point policy: fit silences numpy and names every non-finite number it meets
# ---------------------------------------------------------------------------


class _FixedProvider(engine.CoefficientProvider):
    """One Gaussian plate "x" whose coefficient and expected log-joint are fixed; it notes numpy's state when read."""

    plates = {"x": ("x0",)}

    def __init__(self, target, joint=0.0):
        self.target, self.joint, self.states = np.array(target, dtype=float), joint, []

    def coefficient(self, plate, mus, data):
        return self.target

    def expected_log_joint(self, mus, data):
        self.states.append(np.geterr())
        return self.joint


def _fixed_model(lam, target, joint=0.0):
    """A one-plate model of a 1-D Gaussian at ``lam`` whose coefficient is ``target``."""
    plate = engine.Plate(("x0",), expfam.NaturalParam(expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=1), [lam]))
    return engine.ModelSpec((plate,), _FixedProvider([target], joint))


def test_fit_sets_numpy_s_floating_point_state_for_its_own_run_and_restores_it():
    """Inside a fit over, invalid and divide are ignored; after it, returned or raised, the caller's state is back."""
    before = np.geterr()
    model = _fixed_model([0.5, -0.5], [0.5, -0.5])
    engine.fit(model, None, max_iter=3)
    assert model.provider.states[0] == {**before, "over": "ignore", "invalid": "ignore", "divide": "ignore"}
    assert np.geterr() == before
    with pytest.raises(expfam.NumericalError):
        engine.fit(_fixed_model([0.5, -0.5], [0.5, -0.5], joint=math.inf), None)
    assert np.geterr() == before


@pytest.mark.parametrize("scale", [1e100, 1e130, 1e150])
def test_a_parallel_matfac_fit_whose_elbo_overflows_names_the_expected_log_joint(scale):
    """Data near 1e100-1e150 overflow E[log p] on the first parallel step: a NumericalError, and no warning."""
    data = models.MatrixFactorizationData(np.random.default_rng(0).standard_normal((5, 3)) * scale, k=2)
    model = models.build_matfac(data, "vmp")
    with pytest.raises(expfam.NumericalError, match=r"^the expected log-joint is not finite: nan$"):
        engine.fit(model, data, engine.Schedule(engine.PARALLEL_BLR), max_iter=30)


def test_a_residual_that_overflows_from_a_finite_lambda_and_target_names_its_plate():
    """lambda and its target, each finite, 2e308 apart: the residual is a NumericalError, not an infinite record."""
    model = _fixed_model([1e308, -5e153], [-1e308, -5e153])  # a mean of 1e154, whose square is still finite
    message = r"^the residual of plate 'x' is not finite: inf$"
    with pytest.raises(expfam.NumericalError, match=message):
        engine.fit(model, None, max_iter=3)
    with np.errstate(over="ignore"), pytest.raises(expfam.NumericalError, match=message):  # outside a fit, the caller's
        engine.fixed_point_residual(model, dict(model.plates), None)


@pytest.mark.parametrize(
    "joint, entropy, message",
    [
        (math.nan, None, r"^the expected log-joint is not finite: nan$"),
        (0.0, math.inf, r"^the entropy of plate 'x' is not finite: inf$"),
        (1.7e308, 1.7e308, r"^the ELBO's terms are finite, but their sum is not: inf$"),
    ],
)
def test_an_elbo_that_is_not_finite_names_its_first_term_that_is_not(monkeypatch, joint, entropy, message):
    """The expected log-joint, then each plate's entropy; where each is finite, the sum is named."""
    model = _fixed_model([0.5, -0.5], [0.5, -0.5], joint)
    if entropy is not None:
        monkeypatch.setattr(expfam, "entropy", lambda lam, mu: np.full(len(lam.values), entropy))
    for run in (lambda: engine.elbo(model, dict(model.plates), None), lambda: engine.fit(model, None)):
        with pytest.raises(expfam.NumericalError, match=message):
            run()


_EDGE = st.sampled_from([5e-324, 1e-300, 1e-30, 1e-15, 1.0, 1e15, 1e100, 1e130, 1e150, 1e300, 1e308]) | st.builds(
    lambda e: 10.0**e, st.floats(-323.0, 308.0)
)


# Each model's data class and builder, by the CLI's model name.
_EDGE_MODELS = {
    "simple_mixture": (models.SimpleMixtureData, models.build_simple_mixture),
    "two_level": (models.TwoLevelMixtureData, models.build_two_level),
    "two_level_reciprocal": (models.TwoLevelMixtureData, functools.partial(models.build_two_level, shifted_beta=True)),
    "gmm2": (models.GMMData, models.build_gmm2),
    "logitnormal": (models.LogitNormalMixtureData, models.build_logitnormal),
    **{
        f"matfac_{mode}": (models.MatrixFactorizationData, functools.partial(models.build_matfac, mode=mode))
        for mode in ("vmp", "ppca", "als")
    },
}


@st.composite
def _edge_runs(draw):
    """(model name, its data class's arguments, a schedule the model takes), at edge scales.

    Prior parameters and data scales are drawn from 5e-324 to 1e308, a
    delta from 1e-30 up; the data are a seeded uniform draw on (-1, 1) times a scale.
    """
    name = draw(st.sampled_from(sorted(_EDGE_MODELS)))
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    width = 2 if name.startswith(("two_level", "logitnormal")) else draw(st.integers(1, 3))
    y = rng.uniform(-1.0, 1.0, (draw(st.integers(2, 6)), width)) * draw(_EDGE)
    if name == "simple_mixture":
        args = (draw(st.sampled_from([5e-324, 1e-15, 0.5, 1.0 - 1e-16])), draw(_EDGE), draw(_EDGE))
    elif name.startswith("two_level"):
        args = (y[:, 0], y[:, 1], draw(_EDGE), draw(_EDGE))
    elif name == "logitnormal":
        args = (y[:, 0], y[:, 1], draw(_EDGE) * draw(st.sampled_from([1.0, -1.0])))
    elif name == "gmm2":
        args = (y, draw(_EDGE), draw(_EDGE), draw(_EDGE), width - 1 + draw(_EDGE), draw(_EDGE) * np.eye(width))
    else:
        args = (y, draw(st.integers(1, 3)), *(draw(_EDGE.filter(lambda v: v >= 1e-30)) for _ in range(2)))
    kinds = [engine.CAVI, engine.PARALLEL_BLR] + [engine.SVI] * name.startswith(("two_level", "logitnormal"))
    return name, args, engine.Schedule(draw(st.sampled_from(kinds)), rho=draw(st.floats(0.05, 1.0)))


_MATFAC_NEAR_1E150 = (np.random.default_rng(0).standard_normal((5, 3)) * 1e150, 2)  # E[log p] overflows in parallel


@settings(max_examples=300, derandomize=True, deadline=None)
@given(run=_edge_runs())
@example(run=("matfac_vmp", _MATFAC_NEAR_1E150, engine.Schedule(engine.PARALLEL_BLR)))
def test_finite_in_finite_out_a_fit_is_a_finite_trace_a_value_error_or_a_numerical_error(run):
    """Whatever the data class, builder, schedule and scales, no warning leaves the library (tier-1 makes one an error)."""
    name, args, schedule = run
    data_class, build = _EDGE_MODELS[name]
    try:
        data = data_class(*args)
        trace = engine.fit(build(data), data, schedule, max_iter=30)
    except (ValueError, expfam.NumericalError):
        return
    assert np.isfinite(trace.elbos).all() and np.isfinite(trace.residuals).all()
    for plate in trace.plates.values():
        assert np.isfinite(plate.lam.values).all() and np.isfinite(plate.mu.values).all()


def _mixture_models():
    """Each model with a Bernoulli or a Beta plate, and the schedules it takes."""
    two_level = make_two_level(seed=3, n=40)
    logit = models.LogitNormalMixtureData(two_level.log_pa, two_level.log_pb, 0.3)
    gmm, _ = make_gmm(seed=3, n=40)
    all_three = (engine.CAVI, engine.SVI, engine.PARALLEL_BLR)
    return [
        ("two_level", models.build_two_level(two_level, seed=3), two_level, all_three),
        ("shifted_beta", models.build_two_level(two_level, seed=3, shifted_beta=True), two_level, all_three),
        ("logitnormal", models.build_logitnormal(logit, seed=3), logit, all_three),
        ("gmm2", models.build_gmm2(gmm, seed=3), gmm, (engine.CAVI, engine.PARALLEL_BLR)),
    ]


@pytest.mark.parametrize(
    "model, data, kind",
    [pytest.param(m, d, k, id=f"{name}-{k}") for name, m, d, kinds in _mixture_models() for k in kinds],
)
def test_a_fit_reads_every_bernoulli_and_beta_log_partition_off_the_mean_pass(monkeypatch, model, data, kind):
    """Every ELBO entropy reads A off mu, and gmm2's prior constant is held on its data: a fit runs no ``log_partition``."""
    calls = []
    real = expfam.log_partition
    monkeypatch.setattr(expfam, "log_partition", lambda lam: calls.append(lam.family.kind) or real(lam))
    trace = engine.fit(model, data, engine.Schedule(kind, seed=3), tol=1e-10, max_iter=25)
    assert len(trace.records) > 2
    assert calls == []
