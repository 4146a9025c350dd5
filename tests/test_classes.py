"""The value classes: their hand-written constructors keep the defaults, the immutability and the equality callers use."""

import numpy as np
import pytest

from meanfield import engine, expfam, models


def _two_level_model():
    return models.build_two_level(models.TwoLevelMixtureData([0.1, -0.3], [0.4, 0.2]), seed=0)


def _cases():
    """Each frozen class built by keyword with its defaults left out, and the defaults it must then hold."""
    lam = expfam.bernoulli_natural(0.3)
    rows = expfam.NaturalParam(lam.family, lam.values[None, :])
    y = np.zeros((3, 2))
    model = _two_level_model()
    cases = {
        "FamilyDescriptor": (lambda: expfam.FamilyDescriptor(kind=expfam.BETA), {"dim": 1, "base_measure": "constant"}),
        "NodeState": (
            lambda: engine.NodeState(id="z0", lam=lam, mu=expfam.nat_to_mean(lam)),
            {"role": engine.LOCAL, "delta_mode": False},
        ),
        "Plate": (
            lambda: engine.Plate(ids=("z0",), lam=rows, mu=expfam.nat_to_mean(rows)),
            {"role": engine.LOCAL, "delta_mode": False},
        ),
        "ModelSpec": (lambda: engine.ModelSpec(factors=model.factors, provider=model.provider), {"sweep_order": None}),
        "Schedule": (
            lambda: engine.Schedule(),
            {"kind": engine.CAVI, "rho": 0.5, "kappa": 0.7, "tau": 1.0, "seed": 0},
        ),
        "TraceRecord": (
            lambda: engine.TraceRecord(iteration=3, elbo=-1.5, residual=0.25, wall_time=0.125),
            {"iteration": 3, "elbo": -1.5, "residual": 0.25, "wall_time": 0.125},
        ),
        "SimpleMixtureData": (lambda: models.SimpleMixtureData(pi0=0.3, pa=0.8, pb=0.2), {"pi0": 0.3}),
        "TwoLevelMixtureData": (
            lambda: models.TwoLevelMixtureData(log_pa=[0.0], log_pb=[0.0]),
            {"alpha0": 1.0, "beta0": 1.0},
        ),
        "GMMData": (
            lambda: models.GMMData(y=y),
            {"alpha0": 1.0, "beta0": 1.0, "gamma0": 1.0, "nu0": 2.0, "w0": np.eye(2)},
        ),
        "MatrixFactorizationData": (
            lambda: models.MatrixFactorizationData(y=y),
            {"k": 1, "delta_u": 1.0, "delta_v": 1.0},
        ),
        "LogitNormalMixtureData": (lambda: models.LogitNormalMixtureData(log_pa=[0.0], log_pb=[0.0]), {"m": 0.0}),
    }
    return [pytest.param(make, defaults, id=name) for name, (make, defaults) in cases.items()]


@pytest.mark.parametrize("make, defaults", _cases())
def test_a_value_class_takes_its_defaults_by_keyword_and_is_frozen(make, defaults):
    """Keyword construction gives the documented defaults; assigning or deleting any attribute is an AttributeError."""
    value = make()
    for name, want in defaults.items():
        assert np.array_equal(getattr(value, name), want), name
    for name in list(vars(value)) + ["unset_name"]:
        held = vars(value).get(name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert vars(value).get(name) is held


def test_a_model_caches_its_svi_plates_though_it_is_frozen():
    model = _two_level_model()
    assert model._svi_plates == ("z", "pi")
    assert vars(model)["_svi_plates"] is model._svi_plates


def test_a_fit_trace_holds_fresh_empty_records_and_plates_and_takes_new_ones():
    one, two = engine.FitTrace(), engine.FitTrace()
    assert (one.records, one.converged, one.plates) == ([], False, {})
    assert one.records is not two.records and one.plates is not two.plates
    one.records = [engine.TraceRecord(0, -1.0, 0.5, 0.0)]
    one.converged = True
    assert len(one.records) == 1 and one.converged and two.records == []


def test_family_descriptors_compare_hash_and_print_by_kind_dim_and_base_measure():
    beta = expfam.FamilyDescriptor(expfam.BETA, np.int64(1))
    same = expfam.FamilyDescriptor(kind=expfam.BETA, dim=1, base_measure="constant")
    assert beta == same and not beta != same and hash(beta) == hash(same) and len({beta, same}) == 1
    assert repr(same) == "FamilyDescriptor(kind='beta', dim=1, base_measure='constant')"
    others = [
        expfam.FamilyDescriptor(expfam.BETA, base_measure="reciprocal"),
        expfam.FamilyDescriptor(expfam.BERNOULLI),
        expfam.FamilyDescriptor(expfam.GAUSSIAN, 2),
        (expfam.BETA, 1, "constant"),
    ]
    for other in others:
        assert other != same and not other == same and same != other
    with pytest.raises(expfam.DomainError) as exc:
        expfam.entropy(expfam.beta_natural(2.0, 3.0), expfam.nat_to_mean(expfam.bernoulli_natural(0.3)))
    assert str(exc.value) == (
        "family mismatch: FamilyDescriptor(kind='beta', dim=1, base_measure='constant') "
        "vs FamilyDescriptor(kind='bernoulli', dim=1, base_measure='constant')"
    )
