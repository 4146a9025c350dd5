"""Plates: groups of conditionally independent nodes moved as one (G, flat) block.

The scaling guards count the Python-level work of one CAVI sweep plus its
diagnostics, and of the two ends of a fit (build and result), at two data
sizes; with plates the counts depend on the number of plates only, so a
return to one object per datum fails here.
"""

import contextlib

import numpy as np
import pytest

from meanfield import engine, expfam, models
from conftest import make_gmm, make_two_level


def _two_level(n):
    data = make_two_level(seed=1, n=n)
    return models.build_two_level(data, seed=1), data


def _gmm2(n):
    data, _ = make_gmm(seed=1, n=n)
    return models.build_gmm2(data, seed=1), data


def _matfac_ppca(n):
    rng = np.random.default_rng(1)
    data = models.MatrixFactorizationData(rng.standard_normal((n, max(2, n // 4))), 2, 1.0, 1.0)
    return models.build_matfac(data, "ppca", seed=1), data


def _count_inits(monkeypatch, calls, classes) -> None:
    """Count the __init__ calls, that is the constructions, of each (class, key) in calls[key]."""
    for cls, key in classes:
        init = cls.__init__

        def counted_init(self, *args, init=init, key=key, **kwargs):
            calls[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)


_PARAMS = ((expfam.NaturalParam, "natural"), (expfam.ExpectationParam, "expectation"))


def _sweep_counts(monkeypatch, model, data) -> dict[str, int]:
    """Coefficient calls and parameter validations over one sweep, its residual and its ELBO."""
    calls = {"coefficient": 0, "natural": 0, "expectation": 0}
    provider_cls = type(model.provider)
    coefficient = provider_cls.coefficient

    def counted_coefficient(self, *args, **kwargs):
        calls["coefficient"] += 1
        return coefficient(self, *args, **kwargs)

    monkeypatch.setattr(provider_cls, "coefficient", counted_coefficient)
    _count_inits(monkeypatch, calls, _PARAMS)
    _sweep_residual_elbo(model, data)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("build", [_two_level, _gmm2, _matfac_ppca])
def test_sweep_work_does_not_grow_with_data(monkeypatch, build):
    small = _sweep_counts(monkeypatch, *build(10))
    large = _sweep_counts(monkeypatch, *build(200))
    assert small == large
    assert small["coefficient"] > 0 and small["natural"] > 0


@contextlib.contextmanager
def _counted_linalg(monkeypatch):
    """Counts of the np.linalg.cholesky and eigvalsh calls made inside the block."""
    calls = {"cholesky": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    yield calls
    monkeypatch.undo()


def _sweep_residual_elbo(model, data) -> None:
    state = dict(model.plates)
    engine.cavi_sweep(model, state, data)
    engine.fixed_point_residual(model, state, data)
    engine.elbo(model, state, data)


def _linalg_counts(monkeypatch, model, data) -> dict[str, int]:
    """np.linalg.cholesky and eigvalsh calls over one CAVI sweep, its residual and its ELBO."""
    with _counted_linalg(monkeypatch) as calls:
        _sweep_residual_elbo(model, data)
    return calls


def test_one_factorisation_per_gaussian_plate_step(monkeypatch):
    """A step validates lambda with one Cholesky; mu, the delta moments and the entropy reuse its factor."""
    small = _linalg_counts(monkeypatch, *_matfac_ppca(10))
    assert small == {"cholesky": 2, "eigvalsh": 0}  # plates u and v, one step each
    assert small == _linalg_counts(monkeypatch, *_matfac_ppca(200))


def test_a_gmm2_build_and_fit_call_no_eigensolver(monkeypatch):
    """w0 is positive definite when it has the Cholesky factor its prior takes; only a refusal computes eigenvalues."""
    y = make_gmm(seed=1, n=10)[0].y
    with _counted_linalg(monkeypatch) as calls:
        data = models.GMMData(y)
        _sweep_residual_elbo(models.build_gmm2(data, seed=1), data)
    assert calls["eigvalsh"] == 0


def _end_counts(monkeypatch, n) -> dict[str, int]:
    """NodeState constructions and parameter validations over a build, a zero-iteration fit and its node count."""
    calls = {"node": 0, "natural": 0, "expectation": 0}
    data = make_two_level(seed=1, n=n)
    _count_inits(monkeypatch, calls, ((engine.NodeState, "node"),) + _PARAMS)
    trace = engine.fit(models.build_two_level(data, seed=1), data, max_iter=0)
    assert len(trace.state) == n + 1
    monkeypatch.undo()
    return calls


def test_build_and_result_work_does_not_grow_with_data(monkeypatch):
    small = _end_counts(monkeypatch, 10)
    assert small == _end_counts(monkeypatch, 200)
    assert small["node"] == 0 and small["natural"] > 0


def test_builders_hand_their_plates_to_the_model(monkeypatch):
    handed = []

    def spec(factors, *rest, **kw):
        handed.extend(factors)
        return engine.ModelSpec(factors, *rest, **kw)

    monkeypatch.setattr(models, "ModelSpec", spec)
    model, data = _two_level(5)
    assert model.plates["z"] is handed[0] and model.plates["pi"] is handed[1]
    trace = engine.fit(model, data, max_iter=2)
    assert trace.state.plates is trace.plates
    for diagnostic in (engine.elbo, engine.fixed_point_residual):
        assert diagnostic(model, trace.state, data) == diagnostic(model, trace.plates, data)


def test_node_view_reads_plate_rows_in_plate_then_row_order():
    model, _ = _gmm2(4)
    view = engine.NodeView(model.plates)
    assert list(view) == ["z0", "z1", "z2", "z3", "pi", "comp_a", "comp_b"]
    assert len(view) == 7 and "z2" in view and "z" not in view
    node = view["z2"]
    assert (node.id, node.role) == ("z2", engine.LOCAL)
    assert np.shares_memory(node.lam.values, model.plates["z"].lam.values)
    assert np.array_equal(view["comp_a"].mu.values, model.plates["comp"].mu.values[0])
    assert np.array_equal(view["comp_b"].mu.values, model.plates["comp"].mu.values[1])
    assert [n.id for n in model.nodes] == list(view)
    with pytest.raises(KeyError):
        view["z9"]


def test_model_spec_stacks_mixed_plates_and_nodes():
    model, _ = _two_level(3)
    z = model.plates["z"]
    moved = engine.NodeState.make("pi", expfam.beta_natural(3.0, 4.0))
    mixed = engine.ModelSpec((z, moved), model.provider)
    assert mixed.plates["z"] is z
    assert mixed.plates["pi"].lam.values.tolist() == [[2.0, 3.0]]
    with pytest.raises(engine.ConfigurationError, match="^node 'pi' is in the model's factors more than once$"):
        engine.ModelSpec((z, moved, moved), model.provider)
    partial = engine.Plate(z.ids[:2], expfam.NaturalParam(z.family, z.lam.values[:2]))
    regrouped = engine.ModelSpec((partial, engine.NodeView(model.plates)["z2"], moved), model.provider)
    assert np.array_equal(regrouped.plates["z"].lam.values, z.lam.values)


def test_plates_group_the_per_id_nodes():
    model, data = _gmm2(12)
    assert len(model.nodes) == 12 + 3
    assert list(model.plates) == ["z", "pi", "comp"]
    assert model.plates["z"].lam.values.shape == (12, 1)
    per_id = {n.id: n for n in model.nodes}
    regrouped = engine.ModelSpec(tuple(per_id.values()), model.provider).plates
    for name, plate in model.plates.items():
        assert np.array_equal(regrouped[name].lam.values, plate.lam.values)
        assert np.array_equal(regrouped[name].mu.values, plate.mu.values)
    assert engine.NodeView(regrouped)["z3"].lam.values == pytest.approx(per_id["z3"].lam.values)
    rebuilt = engine.ModelSpec(model.nodes, model.provider, model.sweep_order)
    assert engine.fit(rebuilt, data, max_iter=3).elbos == pytest.approx(
        engine.fit(model, data, max_iter=3).elbos, rel=1e-15
    )


def test_plate_row_views_are_read_only():
    model, _ = _two_level(4)
    node = engine.NodeView(model.plates)["z2"]
    assert node.lam.values.shape == (1,)
    with pytest.raises(ValueError):
        node.lam.values[0] = 0.0


def test_model_spec_rejects_a_node_outside_every_plate():
    data = make_two_level(seed=2, n=2)
    model = models.build_two_level(data)
    stray = engine.NodeState.make("w", expfam.bernoulli_natural(0.0))
    with pytest.raises(engine.ConfigurationError, match="'w'"):
        engine.ModelSpec((*model.nodes, stray), model.provider)
    with pytest.raises(engine.ConfigurationError, match="missing node 'z1'"):
        engine.ModelSpec(tuple(n for n in model.nodes if n.id != "z1"), model.provider)


def _beta_plate(*rows):
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.array(rows, dtype=float))
    return engine.Plate(("a", "b"), lam)


def test_backoff_halves_only_the_rows_that_leave_the_domain():
    plate = _beta_plate([1.0, 1.0], [1.0, 1.0])
    # row b at full rate would reach alpha - 1 = -2.5; at half rate -0.75 is feasible
    out = engine._step_with_backoff(plate, np.array([[3.0, 4.0], [-2.5, -2.5]]), 1.0)
    assert out.lam.values[0] == pytest.approx([3.0, 4.0])
    assert out.lam.values[1] == pytest.approx([-0.75, -0.75])


def test_backoff_gives_up_naming_the_failing_row():
    plate = _beta_plate([1.0, 1.0], [1e-9 - 1.0, 1e-9 - 1.0])
    with pytest.raises(expfam.DomainError, match="node 'b'.*rate halvings"):
        engine._step_with_backoff(plate, np.array([[2.0, 2.0], [-1e9, -1e9]]), 1.0)


def test_non_finite_target_is_a_numerical_error_naming_the_row():
    plate = _beta_plate([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(expfam.NumericalError, match="node 'b'.*inf"):
        engine._step_with_backoff(plate, np.array([[2.0, 2.0], [np.inf, 1.0]]), 1.0)


def test_row_step_leaves_the_other_rows_bitwise_unchanged():
    model, data = _two_level(6)
    state = dict(model.plates)
    before = state["z"].lam.values.copy()
    engine.svi_step(model, state, data, 3, 0.5)
    after = state["z"].lam.values
    assert np.array_equal(np.delete(after, 3, axis=0), np.delete(before, 3, axis=0))
    assert after[3, 0] != before[3, 0]


def test_sweeps_take_the_plate_state_and_name_a_missing_plate():
    model, data = _two_level(4)
    per_id = {n.id: n for n in model.nodes}
    with pytest.raises(engine.ConfigurationError, match="no plate 'z'"):
        engine.cavi_sweep(model, per_id, data)
    with pytest.raises(engine.ConfigurationError, match="no plate 'z'"):
        engine.cavi_sweep(model, engine.NodeView(dict(model.plates)), data)
    with pytest.raises(engine.ConfigurationError, match="'z0'.*not a plate"):
        engine.cavi_sweep(model, dict(model.plates), data, order=("z0",))
    via_nodes = engine.cavi_sweep(model, dict(engine.ModelSpec(tuple(per_id.values()), model.provider).plates), data)
    direct = engine.cavi_sweep(model, dict(model.plates), data)
    for name in model.plates:
        assert np.array_equal(via_nodes[name].lam.values, direct[name].lam.values)


def test_replacing_the_nodes_regroups_the_plates():
    model, _ = _two_level(3)
    moved = engine.NodeState.make("z1", expfam.bernoulli_natural(2.0))
    new = engine.ModelSpec(tuple(moved if n.id == "z1" else n for n in model.nodes), model.provider, model.sweep_order)
    assert new.plates["z"].lam.values[1, 0] == 2.0
    assert np.array_equal(np.delete(new.plates["z"].lam.values, 1), np.delete(model.plates["z"].lam.values, 1))


def test_row_stacked_expfam_matches_per_row():
    rng = np.random.default_rng(0)
    fam = expfam.FamilyDescriptor(expfam.GAUSSIAN, dim=2)
    rows = []
    for _ in range(5):
        a = rng.standard_normal((2, 2))
        rows.append(expfam.gaussian_natural(rng.standard_normal(2), a @ a.T + np.eye(2)).values)
    stacked = expfam.NaturalParam(fam, np.stack(rows))
    mus = expfam.nat_to_mean(stacked).values
    ents = expfam.entropy(stacked)
    for r, row in enumerate(rows):
        one = expfam.NaturalParam(fam, row)
        assert mus[r] == pytest.approx(expfam.nat_to_mean(one).values, rel=1e-12)
        assert ents[r] == pytest.approx(expfam.entropy(one), rel=1e-12)
    bern = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BERNOULLI), np.array([[-800.0], [0.3], [800.0]]))
    p = expfam.nat_to_mean(bern).values[:, 0]
    assert 0.0 < p[0] < p[1] < p[2] < 1.0
