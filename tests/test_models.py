"""Per-model coefficient read-offs against hand-derived values and oracles."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.special as sp

from meanfield import engine, expfam, models
from meanfield.checks import matfac_reference_log_joint
from meanfield.specfun import betaln
from conftest import make_gmm, make_two_level
import oracle


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
    for big in (1e308, 9e307, np.float64(1e308)):  # the prior's psi(alpha0 + beta0) reads psi(inf)
        message = re.escape(f"alpha0 + beta0 must be finite, got {big:g} + {big:g}")
        with pytest.raises(ValueError, match=message):
            models.TwoLevelMixtureData([0.0], [0.0], big, big)
        with pytest.raises(ValueError, match=message):
            models.GMMData(np.zeros((5, 2)), big, big, 1.0, 3.0, np.eye(2))
    for gamma0 in (1e-308, 5e-324, np.float64(1e-308)):  # D / gamma0 overflows at D = 2
        with pytest.raises(ValueError, match="gamma0 is too small"):
            models.GMMData(np.zeros((5, 2)), 1.0, 1.0, gamma0, 3.0, np.eye(2))
    for key, delta in (("delta_u", 1e-320), ("delta_v", 5e-309), ("delta_u", np.float64(5e-324))):
        message = re.escape(f"{key} is too small: the prior variance 1 / {key} overflows, got {float(delta)!r}")
        with pytest.raises(ValueError, match=message):
            models.MatrixFactorizationData(np.ones((2, 2)), 1, **{key: delta})
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    for w0 in (3e-309 * np.eye(2), 1e-320 * np.eye(3), rotation @ np.diag([3e-309, 1e-300]) @ rotation.T):
        least = float(np.linalg.eigvalsh(0.5 * (w0 + w0.T))[0])  # the prior's W0^-1 overflows
        message = f"w0 is too small: its inverse overflows, smallest eigenvalue {least:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            models.GMMData(np.zeros((5, len(w0))), 1.0, 1.0, 1.0, 3.0, w0)
    # eigenvalues 5.6e-17 and 1 once symmetrised, but no Cholesky factor, so no prior can be formed
    with pytest.raises(ValueError, match="w0 must be positive definite"):
        models.GMMData(np.zeros((5, 2)), w0=rotation @ np.diag([5.5e-309, 1.0]) @ rotation.T)
    with pytest.raises(ValueError):
        models.MatrixFactorizationData(np.ones((2, 2)), 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.MatrixFactorizationData(np.ones((2, 2)), 1, -1.0, 1.0)
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match=re.escape(f"y must have at least one row and one column, got shape {shape}")):
            models.MatrixFactorizationData(np.zeros(shape), 1, 1.0, 1.0)
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


def test_a_w0_whose_inverse_is_finite_is_taken_though_one_over_its_least_eigenvalue_overflows():
    """Rotated, W0^-1 spreads 1 / 5.5e-309 (above the largest float) over finite entries, and the fit runs."""
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    w0 = rotation @ np.diag([5.5e-309, 1e-300]) @ rotation.T
    data = models.GMMData(np.array([[0.1, 0.2], [-1.0, 0.5], [0.3, -0.2], [2.0, 1.0]]), w0=w0)
    assert not math.isfinite(1.0 / float(np.linalg.eigvalsh(data.w0)[0]))
    assert engine.fit(models.build_gmm2(data, seed=0), data, max_iter=20).converged


def test_gmm_data_rejects_a_w0_of_the_wrong_shape():
    for w0 in (np.eye(3), np.ones((2, 3)), 1.0):
        with pytest.raises(ValueError, match="W0 must be 2x2"):
            models.GMMData(np.zeros((3, 2)), 1.0, 1.0, 1.0, 3.0, w0)


def test_the_data_classes_own_the_model_defaults():
    y = np.zeros((3, 2))
    two_level = models.TwoLevelMixtureData([0.0], [0.0])
    assert (two_level.alpha0, two_level.beta0) == (1.0, 1.0)
    gmm = models.GMMData(y)
    assert (gmm.alpha0, gmm.beta0, gmm.gamma0, gmm.nu0) == (1.0, 1.0, 1.0, 2.0)
    assert np.array_equal(gmm.w0, np.eye(2))
    mf = models.MatrixFactorizationData(y)
    assert (mf.k, mf.delta_u, mf.delta_v) == (1, 1.0, 1.0)
    assert models.LogitNormalMixtureData([0.0], [0.0]).m == 0.0


@pytest.mark.parametrize("k", [2.5, True, np.float64(2.0), 0])
def test_matrix_factorization_data_rejects_a_k_that_is_not_a_positive_integer(k):
    message = f"k (the number of factors) must be an integer >= 1, got {k!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        models.MatrixFactorizationData(np.ones((2, 2)), k)


@pytest.mark.parametrize("cls", [models.TwoLevelMixtureData, models.LogitNormalMixtureData])
@pytest.mark.parametrize(
    "log_pa, log_pb",
    [(np.zeros((2, 3)), np.ones((3, 2))), (np.zeros((2, 1)), np.zeros((2, 1))), (np.zeros(3), np.zeros(2))],
    ids=["transposed", "column", "lengths"],
)
def test_mixture_log_likelihoods_are_vectors_paired_as_given(cls, log_pa, log_pb):
    message = f"log_pa and log_pb must be equal-length, nonempty vectors, got shapes {log_pa.shape} and {log_pb.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(log_pa, log_pb)


@pytest.mark.parametrize("plate", ["pi", "z0"])
def test_simple_mixture_coefficient_of_an_unknown_plate_is_a_key_error(plate):
    data = models.SimpleMixtureData(0.3, 0.8, 0.2)
    snap = engine.mu_snapshot(models.build_simple_mixture(data).plates)
    with pytest.raises(KeyError, match=plate):
        models.SimpleMixtureProvider().coefficient(plate, snap, data)


def test_build_matfac_rejects_an_unknown_mode():
    data = models.MatrixFactorizationData(np.ones((2, 2)), 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="unknown matrix-factorization mode 'pca'"):
        models.build_matfac(data, "pca")


def _plate_bytes(model):
    """Every plate's ids, lambda and mu, as bytes."""
    return {n: (p.ids, p.lam.values.tobytes(), p.mu.values.tobytes()) for n, p in model.plates.items()}


_TWO_LEVEL = make_two_level(seed=1, n=6)
_UNSEEDED_BUILDS = {
    "simple": lambda seed: models.build_simple_mixture(models.SimpleMixtureData(0.3, 0.8, 0.2), seed=seed),
    "two_level": lambda seed: models.build_two_level(_TWO_LEVEL, seed=seed),
    "shifted_beta": lambda seed: models.build_two_level(_TWO_LEVEL, seed=seed, shifted_beta=True),
    "logitnormal": lambda seed: models.build_logitnormal(
        models.LogitNormalMixtureData(_TWO_LEVEL.log_pa, _TWO_LEVEL.log_pb, 0.3), seed=seed
    ),
}
_SEEDED_BUILDS = {
    "gmm2": lambda seed: models.build_gmm2(make_gmm(seed=1, n=6)[0], seed=seed),
    "matfac": lambda seed: models.build_matfac(models.MatrixFactorizationData(np.ones((3, 2)), 2), "vmp", seed=seed),
}


@pytest.mark.parametrize("build", _UNSEEDED_BUILDS.values(), ids=_UNSEEDED_BUILDS)
def test_a_model_with_no_symmetry_to_break_starts_every_indicator_at_one_half_whatever_the_seed(build):
    model = build(0)
    assert _plate_bytes(model) == _plate_bytes(build(7))
    z = model.plates["z"]
    assert np.all(z.lam.values == 0.0) and np.all(z.mu.values == 0.5)


@pytest.mark.parametrize("build", _SEEDED_BUILDS.values(), ids=_SEEDED_BUILDS)
def test_gmm2_and_matfac_starts_are_drawn_from_the_seed(build):
    """The label swap of gmm2 and the rotation of matfac are broken by a seeded draw."""
    assert _plate_bytes(build(0)) == _plate_bytes(build(0))
    assert _plate_bytes(build(0)) != _plate_bytes(build(7))


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


def _lone_component_coefficient(w, data):
    """The coefficient of one component whose data weights are w, read off on its own from the data."""
    s = float(w.sum())
    yy = -0.5 * np.einsum("n,nij->ij", w, np.einsum("ni,nj->nij", data.y, data.y)).reshape(-1)
    prior = expfam.gw_natural(data.nu0, data.gamma0, np.zeros(data.dim), data.w0).values
    return prior + np.concatenate([[0.5 * s], yy, w @ data.y, [-0.5 * s]])


def _assert_comp_rows_are_lone_components(provider, snap, data):
    """Row 0 of plate "comp" weighs the data by r and row 1 by 1 - r, each bitwise as a lone w @ T(y).

    The einsum read-off of ``_lone_component_coefficient`` checks the
    statistics themselves, to 1e-12 relative.
    """
    g = provider.coefficient("comp", snap, data)
    r = snap["z"][:, 0]
    stats = models._gw_statistics(data.y)
    prior = expfam.gw_natural(data.nu0, data.gamma0, np.zeros(data.dim), data.w0).values
    for row, w in zip(g, (r, 1.0 - r)):
        assert np.array_equal(row, prior + w @ stats)
        assert row == pytest.approx(_lone_component_coefficient(w, data), rel=1e-12, abs=0.0)
    assert g.shape == (2, stats.shape[1])
    return g


def test_gmm_component_coefficient_hand_arithmetic():
    """N=2, D=1, responsibilities (1,1), y=(1,3): Eq-solved posterior
    gamma=3, m=4/3, nu=3, W^-1=17/3."""
    y = np.array([[1.0], [3.0]])
    data = models.GMMData(y, 1.0, 1.0, 1.0, 1.0, np.eye(1))
    provider = models.GMMProvider(data)
    gw = expfam.gw_natural(1.0, 1.0, np.zeros(1), np.eye(1))
    snap = _gmm_snapshot(provider, 40.0, expfam.beta_natural(1.0, 1.0), gw)
    assert snap["z"][:, 0] == pytest.approx([1.0, 1.0], abs=1e-15)
    g = _assert_comp_rows_are_lone_components(provider, snap, data)[0]
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
    snap = _gmm_snapshot(provider, -700.0, expfam.beta_natural(1.0, 1.0), prior)
    assert snap["z"].tolist() == [[0.0 + 1e-300]] * 3
    g = _assert_comp_rows_are_lone_components(provider, snap, data)[0]
    assert g == pytest.approx(prior.values, abs=1e-10)


def _gmm_snapshot(provider, log_odds: float, weight, gw):
    """A snapshot of the gmm2 plates: every indicator at log_odds, the weight's and both components' lambdas given."""
    bernoulli = expfam.FamilyDescriptor(expfam.BERNOULLI)
    z = np.full((len(provider.plates["z"]), 1), log_odds)
    rows = np.stack([gw.values, gw.values])
    return engine.mu_snapshot(
        {
            "z": engine.Plate(provider.plates["z"], expfam.NaturalParam(bernoulli, z)),
            "pi": engine.Plate(("pi",), expfam.NaturalParam(weight.family, weight.values[None, :])),
            "comp": engine.Plate(provider.plates["comp"], expfam.NaturalParam(gw.family, rows)),
        }
    )


def test_gmm_identical_components_reduce_to_two_level():
    data, _ = make_gmm(seed=9, n=6, d=2)
    provider = models.GMMProvider(data)
    gw = expfam.gw_natural(4.0, 2.0, np.array([0.3, -0.2]), np.eye(2))
    snap = _gmm_snapshot(provider, math.log(0.4 / (1.0 - 0.4)), expfam.beta_natural(1.5, 1.2), gw)
    _assert_comp_rows_are_lone_components(provider, snap, data)
    gw_mu = snap["comp"][0]
    log_p = np.array(
        [models.expected_log_component(gw_mu, models._gw_statistics(data.y[i : i + 1])[0], 2) for i in range(6)]
    )
    tl_data = models.TwoLevelMixtureData(log_p, log_p, data.alpha0, data.beta0)
    tl = models.TwoLevelProvider(6)
    for i in range(6):
        assert provider.coefficient("z", snap, data)[i] == pytest.approx(
            tl.coefficient("z", snap, tl_data)[i], rel=1e-12
        )


def test_gmm2_fit_reads_each_component_state_off_the_data_once(monkeypatch):
    """The indicators' read-off and the ELBO share one pass per component state, and one T(y) product serves both
    components: 1 pass per sweep, 1 at the start."""
    calls = []
    expected = models.expected_log_component

    def counted(*args):
        calls.append(1)
        return expected(*args)

    monkeypatch.setattr(models, "expected_log_component", counted)
    data, _ = make_gmm(seed=2, n=40)
    trace = engine.fit(models.build_gmm2(data, seed=2), data, tol=1e-300, max_iter=12)
    assert trace.records[-1].iteration == 12
    assert len(calls) == 12 + 1


def test_gmm_log_likelihoods_are_kept_per_data_object():
    """Two data sets read through one snapshot each get their own log-likelihoods; no key compares arrays."""
    first, _ = make_gmm(seed=3, n=8)
    second, _ = make_gmm(seed=4, n=8)
    provider = models.GMMProvider(first)
    gw = expfam.gw_natural(4.0, 2.0, np.array([0.3, -0.2]), np.eye(2))
    snap = _gmm_snapshot(provider, math.log(0.3 / (1.0 - 0.3)), expfam.beta_natural(2.0, 3.0), gw)
    for data in (first, second, first, second):
        fresh = engine.mu_snapshot(snap.plates)
        assert provider.coefficient("z", snap, data).tolist() == provider.coefficient("z", fresh, data).tolist()
        assert provider.expected_log_joint(snap, data) == provider.expected_log_joint(fresh, data)
    assert provider.coefficient("z", snap, first).tolist() != provider.coefficient("z", snap, second).tolist()


def test_a_gmm2_provider_reads_the_data_it_is_given():
    """A provider built from one data set fits another of its size exactly as that set's own provider does."""
    y = np.random.default_rng(11).normal(size=(8, 2))
    a = models.GMMData(y, 1.0, 1.0, 1.0, 3.0, np.eye(2))
    b = models.GMMData(y + 3.0, 2.0, 1.5, 0.5, 4.0, 2.0 * np.eye(2))
    own = models.build_gmm2(b, seed=1)
    borrowed = engine.ModelSpec(tuple(own.plates.values()), models.build_gmm2(a, seed=1).provider, own.sweep_order)
    comp = engine.mu_snapshot(own.plates).coefficient(own.provider, "comp", b)
    assert np.array_equal(engine.mu_snapshot(own.plates).coefficient(borrowed.provider, "comp", b), comp)
    want = engine.fit(own, b, tol=1e-10, max_iter=300)
    got = engine.fit(borrowed, b, tol=1e-10, max_iter=300)
    assert want.converged
    assert got.elbos.tolist() == want.elbos.tolist() and got.residuals.tolist() == want.residuals.tolist()
    for name, plate in want.plates.items():
        assert np.array_equal(got.plates[name].lam.values, plate.lam.values)


def test_expected_log_component_point_mass_limit():
    """A sharply concentrated GW node approaches the plain Gaussian log-density."""
    m = np.array([0.7])
    s = 2.0  # precision
    scale = 1e6
    lam = expfam.gw_natural(scale, scale, m, np.array([[s / scale]]))
    mu = expfam.nat_to_mean(lam).values
    y = np.array([[1.4]])
    want = -0.5 * s * (y[0, 0] - m[0]) ** 2 + 0.5 * math.log(s) - 0.5 * math.log(2 * math.pi)
    assert models.expected_log_component(mu, models._gw_statistics(y), 1) == pytest.approx([want], abs=1e-3)


def test_gmm_zero_y_expected_log_component():
    gw = expfam.gw_natural(3.0, 1.5, np.array([0.2, 0.1]), np.eye(2))
    mu = expfam.nat_to_mean(gw).values
    got = models.expected_log_component(mu, models._gw_statistics(np.zeros((1, 2))), 2)
    want = 0.5 * mu[0] - 0.5 * mu[-1] - math.log(2 * math.pi)
    assert got == pytest.approx([want], rel=1e-13)


def test_expected_log_component_is_the_gaussian_quadratic_form():
    """T(y) . mu is E[log N(y | m, S^-1)] written out: E[log det S]/2 - y^T E[S] y/2 + y^T E[S m] - E[m^T S m]/2."""
    y = np.random.default_rng(7).normal(size=(5, 2))
    mus = expfam.nat_to_mean(
        expfam.NaturalParam(
            expfam.FamilyDescriptor(expfam.GAUSSIAN_WISHART, dim=2),
            np.stack(
                [
                    expfam.gw_natural(3.0, 1.5, np.array([0.2, 0.1]), np.eye(2)).values,
                    expfam.gw_natural(6.0, 0.5, np.array([-1.0, 2.0]), [[2.0, 0.3], [0.3, 0.5]]).values,
                ]
            ),
        )
    ).values
    got = models.expected_log_component(mus, models._gw_statistics(y), 2)
    assert got.shape == (5, 2)
    for k, mu in enumerate(mus):
        e_s, e_sm = mu[1:5].reshape(2, 2), mu[5:7]
        want = 0.5 * mu[0] - 0.5 * np.einsum("ni,ij,nj->n", y, e_s, y) + y @ e_sm - 0.5 * mu[-1] - math.log(2 * math.pi)
        assert got[:, k] == pytest.approx(want, rel=1e-12)


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
    snap_vmp = engine.mu_snapshot(vmp.plates)
    snap_ppca = engine.mu_snapshot(ppca.plates)
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


@pytest.mark.parametrize("kind", [engine.CAVI, engine.PARALLEL_BLR])
@pytest.mark.parametrize("mode", ["vmp", "ppca", "als"])
def test_matfac_plates_keep_one_shared_factor_through_a_fit(mode, kind):
    """Every row of "u" (of "v") reads one coefficient of E[x x^T], so each plate keeps one K x K factor."""
    data = _matfac_data(seed=7, n=6, d=5, k=3)
    schedule = engine.Schedule(kind=kind, rho=1.0 if kind == engine.CAVI else 0.5)
    trace = engine.fit(models.build_matfac(data, mode, seed=7), data, schedule, tol=1e-8, max_iter=2000)
    assert trace.converged
    assert {name: plate.lam.factor.shape for name, plate in trace.plates.items()} == {
        "u": (1, 3, 3),
        "v": (1, 3, 3),
    }


def test_matfac_fit_sums_the_squared_data_once(monkeypatch):
    """The ELBO's sum of y^2 reads no entry: one fit computes it once, whatever its sweep count."""
    calls = []
    sum_of_squares = models._sum_of_squares

    def counted(y):
        calls.append(1)
        return sum_of_squares(y)

    monkeypatch.setattr(models, "_sum_of_squares", counted)
    data = _matfac_data(seed=8)
    trace = engine.fit(models.build_matfac(data, "ppca", seed=8), data, tol=1e-300, max_iter=12)
    assert trace.records[-1].iteration == 12
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["vmp", "ppca", "als"])
def test_matfac_log_joint_read_off_u_matches_the_term_by_term_sum(mode):
    """mu_u . coefficient_u plus the terms without u is the log-joint, on a fresh snapshot and on a live one."""
    data = _matfac_data(seed=9, n=7, d=5, k=3)
    model = models.build_matfac(data, mode, seed=9)
    fresh = engine.mu_snapshot(model.plates)
    got = model.provider.expected_log_joint(fresh, data)
    assert got == pytest.approx(matfac_reference_log_joint(fresh, data), rel=1e-12, abs=0.0)
    live = engine.mu_snapshot(model.plates)
    for _ in range(5):  # mid-fit: a sweep, then the residual memoises both coefficients
        engine.cavi_sweep(model, live, data)
        engine.fixed_point_residual(model, live, data)
        got = model.provider.expected_log_joint(live, data)
        assert got == pytest.approx(matfac_reference_log_joint(live, data), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", [engine.CAVI, engine.PARALLEL_BLR])
@pytest.mark.parametrize("mode", ["vmp", "ppca", "als"])
def test_matfac_elbo_reads_the_residuals_coefficient(monkeypatch, mode, kind):
    """A fit calls coefficient as often with the read-off log-joint as with the term-by-term one: the ELBO's is a memo hit.

    The steps and residuals are bitwise those of the term-by-term fit, the ELBOs within 1e-12.
    """
    data = _matfac_data(seed=10)
    schedule = engine.Schedule(kind=kind, rho=1.0 if kind == engine.CAVI else 0.5)
    provider = models.MatrixFactorizationProvider
    coefficient = provider.coefficient
    traces, counts = [], []
    for log_joint in (provider.expected_log_joint, lambda self, mus, data: matfac_reference_log_joint(mus, data)):
        calls = []

        def counted(self, plate, mus, data):
            calls.append(plate)
            return coefficient(self, plate, mus, data)

        monkeypatch.setattr(provider, "coefficient", counted)
        monkeypatch.setattr(provider, "expected_log_joint", log_joint)
        traces.append(engine.fit(models.build_matfac(data, mode, seed=10), data, schedule, tol=1e-300, max_iter=15))
        counts.append(len(calls))
        monkeypatch.undo()
    new, old = traces
    assert counts[0] == counts[1] == 2 + 2 * 15
    assert new.residuals.tobytes() == old.residuals.tobytes()
    for name in ("u", "v"):
        assert new.plates[name].lam.values.tobytes() == old.plates[name].lam.values.tobytes()
    np.testing.assert_allclose(new.elbos, old.elbos, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# logit-normal weight prior
# ---------------------------------------------------------------------------


def _log_z(t):
    """log z at the logit t = log z - log(1 - z); log(1 - z) is _log_z(-t)."""
    return -np.logaddexp(0.0, -t)


def _logit_normal_core(m):
    return lambda t: -0.5 * (t - m) ** 2


def test_pseudo_prior_conjugate_cross_check():
    """Feeding a Beta log-density through the quadrature natural-gradient
    path must read off that density's own natural parameters."""
    a0, b0 = 3.5, 1.25

    def core(t):
        return (a0 - 1.0) * _log_z(t) + (b0 - 1.0) * _log_z(-t)

    # a + b = 2000 and 1e5: the logit of a concentrated Beta spreads far less than one unit
    for ab in [(2.0, 3.0), (1.0, 1.0), (6.0, 4.0), (600.0, 1400.0), (2e4, 8e4)]:
        got = models.beta_natural_gradient(expfam.beta_natural(*ab), core)[0]
        assert got == pytest.approx([a0 - 1.0, b0 - 1.0], abs=1e-8)


def test_pseudo_prior_symmetric_when_m_zero():
    for ab in (1.5, 4.0, 0.8, 500.0):
        g = models.logit_normal_natural_gradient(expfam.beta_natural(ab, ab), 0.0)[0]
        assert g[0] == pytest.approx(g[1], abs=1e-9)


def test_logitnormal_beta_core_matches_two_level_coefficients(two_level_data):
    """With the non-conjugate term set to the two-level model's Beta prior
    core, the assembled weight coefficient must match the analytic one."""
    n = two_level_data.n
    a0, b0 = two_level_data.alpha0, two_level_data.beta0
    ln_data = models.LogitNormalMixtureData(
        two_level_data.log_pa, two_level_data.log_pb, 0.0
    )
    provider = models.LogitNormalProvider(n)

    def core(t):
        return a0 * _log_z(t) + b0 * _log_z(-t)

    # the reciprocal base measure 1/(z(1-z)) folds (-1,-1) into the read-off,
    # so the core above carries exponents (a0, b0): h(z) exp(core) = Beta density
    tl = models.TwoLevelProvider(n)
    p = np.array([[0.3 + 0.05 * i] for i in range(n)])
    bernoulli = expfam.FamilyDescriptor(expfam.BERNOULLI)
    weight = expfam.beta_natural(2.0, 3.0)
    snap = engine.mu_snapshot(
        {
            "z": engine.Plate(tl.plates["z"], expfam.NaturalParam(bernoulli, np.log(p / (1.0 - p)))),
            "pi": engine.Plate(("pi",), expfam.NaturalParam(weight.family, weight.values[None, :])),
        }
    )
    got = models._weight_coefficient(*models.beta_natural_gradient(weight, core)[0], snap)[0]
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
        models.beta_natural_gradient(lam, lambda t: t)


def test_quadrature_natural_gradient_small_alpha_is_finite_or_raises():
    """alpha = 0.02 spreads the logit-domain nodes thousands of units into the
    left tail; no overflow may turn the gradient into NaN there."""
    lam = expfam.beta_natural(0.02, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g, _ = models.beta_natural_gradient(lam, _logit_normal_core(0.3))
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

    def f(t):
        calls.append(t.size)
        return -0.5 * (t - 0.3) ** 2

    g, _ = models.beta_natural_gradient(expfam.beta_natural(0.02, 5.0), f)
    assert len(calls) == 2
    assert calls[1] == 2 * calls[0]
    assert g.tolist() == pytest.approx([103.34489843196641, 11538.665114531135], rel=1e-12)


@pytest.mark.parametrize("ab", [(3.0, 0.3), (1.0, 0.1)])
def test_quadrature_of_the_logit_normal_core_converges_under_a_small_exponent(ab):
    """f is given the logit t itself, so no node is clamped where a Beta exponent below 1 keeps mass in the tail."""
    lam = expfam.beta_natural(*ab)
    g, f_mean = models.beta_natural_gradient(lam, _logit_normal_core(0.3))
    want, want_f = models.logit_normal_natural_gradient(lam, 0.3)
    assert g == pytest.approx(want, rel=1e-12) and f_mean == pytest.approx(want_f, rel=1e-12)


def test_an_unresolved_quadrature_names_both_estimates():
    """A step in f defeats the doubled Gauss-Legendre rule; the error gives the two gradients that disagree."""
    with pytest.raises(expfam.NumericalError, match=r"did not converge: \[.+\] vs \[.+\]"):
        models.beta_natural_gradient(expfam.beta_natural(2.0, 3.0), lambda t: np.where(t > 0.1, 1.0, 0.0))


_CLOSED_FORM_GRID = [
    (ab, m)
    for m in (-2.0, 0.0, 0.3, 3.0)
    for ab in [
        (2.0, 3.0), (25.4, 16.9), (0.3, 3.0), (3.0, 0.3), (1.0, 0.1), (0.5, 0.5), (0.02, 5.0),
        (9.99, 10.01), (500.0, 500.0), (2e4, 8e4), (8e4, 2e4), (5e4, 5e4), (0.3, 1e5 - 0.3),
    ]
]


@pytest.mark.parametrize("ab, m", _CLOSED_FORM_GRID)
def test_closed_form_read_off_matches_the_quadrature(ab, m):
    """The closed form of the default core against the quadrature path, on exponents below 1 and up to a + b = 1e5."""
    lam = expfam.beta_natural(*ab)
    g, f_mean = models.logit_normal_natural_gradient(lam, m)
    want, want_f = models.beta_natural_gradient(lam, _logit_normal_core(m))
    assert np.max(np.abs(g - want) / np.maximum(np.abs(want), 1.0)) <= 1e-10
    assert abs(f_mean - want_f) / max(abs(want_f), 1.0) <= 1e-10


@pytest.mark.parametrize("ab", [(2.0, 3.0), (0.3, 3.0), (1.0, 0.1), (25.4, 16.9), (400.0, 100.0)])
def test_closed_form_read_off_matches_scipy_polygamma(ab):
    """The same formulas with scipy's polygamma and a plain 2x2 solve, where the Fisher matrix is well conditioned."""
    a, b, m = ab[0], ab[1], 0.3
    d = sp.digamma(a) - sp.digamma(b) - m
    p, q, c = sp.polygamma(1, [a, b, a + b])
    fisher = np.array([[p - c, -c], [-c, q - c]])
    grad = -np.array([d * p + 0.5 * sp.polygamma(2, a), -d * q + 0.5 * sp.polygamma(2, b)])
    g, f_mean = models.logit_normal_natural_gradient(expfam.beta_natural(a, b), m)
    assert g == pytest.approx(np.linalg.solve(fisher, grad), rel=1e-12)
    assert f_mean == pytest.approx(-0.5 * (d * d + p + q), rel=1e-12)


def test_closed_form_read_off_rejects_tiny_beta():
    with pytest.raises(expfam.DomainError, match="0.01"):
        models.logit_normal_natural_gradient(expfam.beta_natural(1.0, 0.005), 0.0)


def test_beta_natural_gradient_rejects_a_scalar_f():
    with pytest.raises(ValueError, match="array of t"):
        models.beta_natural_gradient(expfam.beta_natural(2.0, 3.0), lambda t: 1.0)


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
    """The step, the residual and the ELBO at one weight state share one read-off; none inverts a Beta or runs a quadrature."""
    counts = {"closed_form": 0, "quadrature": 0, "mean_to_nat": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(models, "_logit_normal_gradient", counted("closed_form", models._logit_normal_gradient))
    monkeypatch.setattr(models, "beta_natural_gradient", counted("quadrature", models.beta_natural_gradient))
    monkeypatch.setattr(expfam, "mean_to_nat", counted("mean_to_nat", expfam.mean_to_nat))
    data = _logitnormal_data(10)
    trace = engine.fit(models.build_logitnormal(data, seed=1), data, schedule, tol=1e-9, max_iter=40)
    iterations = trace.records[-1].iteration
    assert iterations > 5
    assert counts == {"closed_form": iterations + 1, "quadrature": 0, "mean_to_nat": 0}


def test_weight_read_off_is_not_reused_under_another_m():
    """One snapshot asked under each m reads the weight off at that m, as a fresh snapshot does."""
    lam = expfam.beta_natural(3.0, 2.0)
    provider = models.LogitNormalProvider(2)
    model = models.build_logitnormal(_logitnormal_data(2), seed=1)
    snap = engine.mu_snapshot({**model.plates, "pi": models._global("pi", lam)})
    for m in (0.3, -1.2, 0.3):
        data = _logitnormal_data(2, m=m)
        got = models.logit_normal_natural_gradient(lam, data.m)[0]
        want, _ = models.beta_natural_gradient(expfam.beta_natural(3.0, 2.0), _logit_normal_core(m))
        assert got == pytest.approx(want, rel=1e-6)
        fresh = engine.mu_snapshot(snap.plates)
        assert provider.coefficient("pi", snap, data).tolist() == provider.coefficient("pi", fresh, data).tolist()
        assert provider.coefficient("pi", snap, data).tolist() == models._weight_coefficient(*got, snap).tolist()
        assert engine.elbo(model, snap, data) == engine.elbo(model, fresh, data)


def test_a_logitnormal_fit_leaves_its_provider_as_built():
    """The weight read-off lives on the fit's snapshot: the provider sets nothing during a fit."""
    data = _logitnormal_data(10)
    model = models.build_logitnormal(data, seed=1)
    before = dict(vars(model.provider))
    engine.fit(model, data, engine.Schedule(engine.SVI, seed=2), tol=1e-300, max_iter=5)
    assert vars(model.provider) == before


def test_logitnormal_cavi_fit_of_a_concentrated_weight():
    """At N = 2000 the weight's Beta has a + b near 2000; its quadrature converges and so does the fit."""
    data = _logitnormal_data(2000)
    trace = engine.fit(models.build_logitnormal(data, seed=1), data, tol=1e-8, max_iter=200)
    assert trace.converged
    assert sum(expfam.beta_ab(trace.state["pi"].lam)) > 2000.0


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


@pytest.mark.parametrize("kind", [engine.CAVI, engine.SVI, engine.PARALLEL_BLR])
def test_the_weight_plate_family_not_the_provider_sets_the_base_measure(kind):
    """A two_level provider serves either weight family: crossed builds fit bitwise as the uncrossed ones."""
    cells = np.random.default_rng(3).normal(size=(10, 2))
    data = models.TwoLevelMixtureData(cells[:, 0], cells[:, 1], 1.5, 2.0)
    plain, shifted = (models.build_two_level(data, seed=8, shifted_beta=s) for s in (False, True))
    schedule = engine.Schedule(kind=kind, rho=0.5, seed=4)
    for plates_of, provider_of in ((shifted, plain), (plain, shifted)):
        crossed_model = engine.ModelSpec(tuple(plates_of.plates.values()), provider_of.provider)
        crossed = engine.fit(crossed_model, data, schedule, max_iter=300)
        own = engine.fit(plates_of, data, schedule, max_iter=300)
        assert crossed.converged == own.converged
        assert np.array_equal(crossed.elbos, own.elbos)
        assert np.array_equal(crossed.residuals, own.residuals)
        for name, plate in own.plates.items():
            assert np.array_equal(crossed.plates[name].lam.values, plate.lam.values)


# ---------------------------------------------------------------------------
# multilinearity across all providers (spec property, small version)
# ---------------------------------------------------------------------------


def test_multilinearity_and_coefficient_independence():
    from meanfield import checks

    passed, failed, msgs = checks.suite_multilinearity(seed=5, pairs=10)
    assert failed == 0, msgs


class _WeightThroughPlates(models.TwoLevelProvider):
    """Reads E[log pi] for the indicators through ``snap.plates``, which the snapshot does not record."""

    def coefficient(self, plate, mus, data):
        if plate != "z":
            return super().coefficient(plate, mus, data)
        mu0 = mus.plates["pi"].mu.values[0]
        return ((mu0[0] + data.log_pa) - (mu0[1] + data.log_pb))[:, None]


class _WeightInOwnCache(models.TwoLevelProvider):
    """Keeps the indicators' coefficient of the first snapshot it sees, whatever snapshot it is given."""

    def coefficient(self, plate, mus, data):
        if plate != "z":
            return super().coefficient(plate, mus, data)
        if not hasattr(self, "_z"):
            self._z = super().coefficient(plate, mus, data)
        return self._z


@pytest.mark.parametrize(
    "provider, moved", [(_WeightThroughPlates, "pi"), (_WeightInOwnCache, "z")], ids=["plates", "own_cache"]
)
def test_a_provider_reading_around_the_snapshot_fails_the_multilinearity_check(monkeypatch, provider, moved):
    """The indicators' coefficient depends on "pi" in a way the snapshot does not record.

    Through ``snap.plates`` it records no read, so moving "pi" moves the
    coefficient; from the cache it records none on a hit, so moving "z"
    changes its recorded reads.
    """
    from meanfield import checks

    instances = checks._model_instances

    def swapped(seed):
        out = []
        for name, model, data in instances(seed):
            if name == "two_level":
                model = engine.ModelSpec(tuple(model.plates.values()), provider(data.n))
            out.append((name, model, data))
        return out

    monkeypatch.setattr(checks, "_model_instances", swapped)
    (_, passed, failed, msgs), = checks.run_suite("multilinearity")
    assert failed == 1 and msgs[0].startswith(f"multilinearity two_level/z: moving {moved!r}"), msgs


def test_a_matfac_u_coefficient_with_its_prior_counted_twice_fails_the_multilinearity_check(monkeypatch):
    """-delta_u I / 2 added to u's precision block moves the provider's log-joint, read off that coefficient, alike.

    The slope identity against the term-by-term reference still sees it, on
    every row of u in both matfac instances and nowhere else.
    """
    from meanfield import checks

    coefficient = models.MatrixFactorizationProvider.coefficient

    def doubled(self, plate, mus, data):
        out = coefficient(self, plate, mus, data)
        if plate == "u":
            out = out.copy()
            out[:, data.k :] -= (0.5 * data.delta_u * np.eye(data.k)).reshape(-1)
        return out

    monkeypatch.setattr(models.MatrixFactorizationProvider, "coefficient", doubled)
    (_, passed, failed, msgs), = checks.run_suite("multilinearity")
    assert failed > 0
    failing = {re.match(r"multilinearity (\w+)/u\d+: gap", m).group(1) for m in msgs}
    assert failing == {"matfac_vmp", "matfac_ppca"}, msgs
