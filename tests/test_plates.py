"""Plates: groups of conditionally independent nodes moved as one (G, flat) block.

The scaling guard counts the Python-level work of one CAVI sweep plus its
diagnostics at two data sizes; with plates the counts depend on the number
of plates only, so a return to one object per datum fails here.
"""

import dataclasses

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


def _sweep_counts(monkeypatch, model, data) -> dict[str, int]:
    """Coefficient calls and parameter validations over one sweep, its residual and its ELBO."""
    calls = {"coefficient": 0, "natural": 0, "expectation": 0}
    provider_cls = type(model.provider)
    coefficient = provider_cls.coefficient

    def counted_coefficient(self, *args, **kwargs):
        calls["coefficient"] += 1
        return coefficient(self, *args, **kwargs)

    monkeypatch.setattr(provider_cls, "coefficient", counted_coefficient)
    for cls, key in ((expfam.NaturalParam, "natural"), (expfam.ExpectationParam, "expectation")):
        post_init = cls.__post_init__

        def counted_init(self, post_init=post_init, key=key):
            calls[key] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)
    state = dict(model.plates)
    engine.cavi_sweep(model, state, data)
    engine.fixed_point_residual(model, state, data)
    engine.elbo(model, state, data)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("build", [_two_level, _gmm2, _matfac_ppca])
def test_sweep_work_does_not_grow_with_data(monkeypatch, build):
    small = _sweep_counts(monkeypatch, *build(10))
    large = _sweep_counts(monkeypatch, *build(200))
    assert small == large
    assert small["coefficient"] > 0 and small["natural"] > 0


def test_plates_group_the_per_id_nodes():
    model, data = _gmm2(12)
    assert len(model.nodes) == 12 + 3
    assert list(model.plates) == ["z", "pi", "comp_a", "comp_b"]
    assert model.plates["z"].lam.values.shape == (12, 1)
    per_id = {n.id: n for n in model.nodes}
    regrouped = engine.to_plates(model, per_id)
    for name, plate in model.plates.items():
        assert np.array_equal(regrouped[name].lam.values, plate.lam.values)
        assert np.array_equal(regrouped[name].mu.values, plate.mu.values)
    assert engine.to_nodes(regrouped)["z3"].lam.values == pytest.approx(per_id["z3"].lam.values)
    rebuilt = engine.ModelSpec(model.nodes, model.provider, model.sweep_order)
    assert engine.fit(rebuilt, data, max_iter=3).elbos == pytest.approx(
        engine.fit(model, data, max_iter=3).elbos, rel=1e-15
    )


def test_plate_row_views_are_read_only():
    model, _ = _two_level(4)
    node = engine.to_nodes(model.plates)["z2"]
    assert node.lam.values.shape == (1,)
    with pytest.raises(ValueError):
        node.lam.values[0] = 0.0


def test_model_spec_rejects_a_node_outside_every_plate():
    data = make_two_level(seed=2, n=2)
    model = models.build_two_level(data)
    stray = engine.NodeState.make("w", expfam.bernoulli_natural(0.0))
    with pytest.raises(engine.ConfigurationError, match="'w'"):
        engine.ModelSpec(model.nodes + (stray,), model.provider)
    with pytest.raises(engine.ConfigurationError, match="missing node 'z1'"):
        engine.ModelSpec(tuple(n for n in model.nodes if n.id != "z1"), model.provider)


def _beta_plate(*rows):
    lam = expfam.NaturalParam(expfam.FamilyDescriptor(expfam.BETA), np.array(rows, dtype=float))
    return engine.Plate.make(("a", "b"), lam)


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
    with pytest.raises(engine.ConfigurationError, match="'z0'.*not a plate"):
        engine.cavi_sweep(model, dict(model.plates), data, order=("z0",))
    via_nodes = engine.cavi_sweep(model, engine.to_plates(model, per_id), data)
    direct = engine.cavi_sweep(model, dict(model.plates), data)
    for name in model.plates:
        assert np.array_equal(via_nodes[name].lam.values, direct[name].lam.values)


def test_replacing_the_nodes_regroups_the_plates():
    model, _ = _two_level(3)
    moved = engine.NodeState.make("z1", expfam.bernoulli_natural(2.0))
    new = dataclasses.replace(model, nodes=tuple(moved if n.id == "z1" else n for n in model.nodes))
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
