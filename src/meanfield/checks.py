"""On-demand invariant suites backing the `check` CLI command.

Each suite returns (passed, failed, messages); messages describe failures
only.  The suites reuse the same properties the test suite pins down, at a
size that runs in a few seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine, expfam, models

__all__ = ["SUITES", "run_suite"]


def _random_natural(rng, kind: str, dim: int = 1) -> expfam.NaturalParam:
    if kind == expfam.BERNOULLI:
        return expfam.bernoulli_natural(rng.uniform(-4.0, 4.0))
    if kind == expfam.BETA:
        return expfam.beta_natural(rng.uniform(0.2, 8.0), rng.uniform(0.2, 8.0))
    a = rng.standard_normal((dim, dim))
    spd = a @ a.T + dim * np.eye(dim)
    if kind == expfam.GAUSSIAN:
        return expfam.gaussian_natural(rng.standard_normal(dim), spd)
    return expfam.gw_natural(dim - 1 + rng.uniform(0.5, 6.0), rng.uniform(0.3, 4.0), rng.standard_normal(dim), spd)


def suite_roundtrip(seed: int = 0):
    rng = np.random.default_rng(seed)
    passed = failed = 0
    msgs = []
    cases = [(expfam.BERNOULLI, 1), (expfam.BETA, 1), (expfam.GAUSSIAN, 2), (expfam.GAUSSIAN_WISHART, 2)]
    for kind, dim in cases:
        for trial in range(100):
            lam = _random_natural(rng, kind, dim)
            back = expfam.mean_to_nat(expfam.nat_to_mean(lam))
            scale = np.maximum(np.abs(lam.values), 1.0)
            err = float(np.max(np.abs(back.values - lam.values) / scale))
            if err < 1e-8:
                passed += 1
            else:
                failed += 1
                msgs.append(f"roundtrip {kind} trial {trial}: relative error {err:g}")
    return passed, failed, msgs


def _model_instances(seed: int):
    rng = np.random.default_rng(seed)
    tl_data = models.TwoLevelMixtureData(
        rng.normal(size=6), rng.normal(size=6), 1.5, 2.0
    )
    mf_data = models.MatrixFactorizationData(rng.normal(size=(4, 3)), 2, 0.5, 0.8)
    gmm_data = models.GMMData(rng.normal(size=(8, 2)), 1.0, 1.0, 0.5, 3.0, np.eye(2))
    ln_data = models.LogitNormalMixtureData(rng.normal(size=6), rng.normal(size=6), 0.4)
    return [
        ("simple_mixture", models.build_simple_mixture(models.SimpleMixtureData(0.3, 0.8, 0.2)),
         models.SimpleMixtureData(0.3, 0.8, 0.2)),
        ("two_level", models.build_two_level(tl_data, seed=seed), tl_data),
        ("gmm2", models.build_gmm2(gmm_data, seed=seed), gmm_data),
        ("matfac_vmp", models.build_matfac(mf_data, "vmp", seed=seed), mf_data),
        ("matfac_ppca", models.build_matfac(mf_data, "ppca", seed=seed), mf_data),
        ("logitnormal", models.build_logitnormal(ln_data, seed=seed), ln_data),
    ]


def matfac_reference_log_joint(mus, data):
    """matfac's expected log-joint summed term by term from the expectations, not read off u's coefficient.

    The provider's own log-joint is u's coefficient dotted with u's
    expectations, so a wrong u coefficient would move both sides of the
    slope identity alike; the multilinearity suite takes this one instead.
    """
    k = data.k
    u1, u2 = mus["u"][:, :k], mus["u"][:, k:].reshape(-1, k, k)
    v1, v2 = mus["v"][:, :k], mus["v"][:, k:].reshape(-1, k, k)
    log_2pi = math.log(2.0 * math.pi)
    total = -0.5 * float(np.sum(data.y * data.y))
    total += float(np.sum(data.y * (u1 @ v1.T)))
    total -= 0.5 * float(np.einsum("nab,dab->", u2, v2))
    total -= 0.5 * data.n * data.d * log_2pi
    total -= 0.5 * data.delta_u * float(np.trace(u2.sum(axis=0)))
    total -= 0.5 * data.delta_v * float(np.trace(v2.sum(axis=0)))
    total += 0.5 * data.n * k * (math.log(data.delta_u) - log_2pi)
    total += 0.5 * data.d * k * (math.log(data.delta_v) - log_2pi)
    return total


def suite_multilinearity(seed: int = 0, pairs: int = 10, tol: float = 1e-9):
    """What the engine's target memo relies on, for every plate of every model instance.

    A plate's coefficient is read off through the snapshot, which records
    the entries it reads (``Snapshot.reads``).  Moving every row of an entry
    outside those reads must leave the coefficient bitwise unchanged and
    its recorded reads the same: a provider that reads around the snapshot,
    through ``snap.plates`` or a cache of its own, fails here.  For a plate
    whose reads exclude itself the affine-slope identity must also hold for
    every row: moving one row's expectations from mu_b to mu_a changes the
    expected log-joint by exactly that row's coefficient times (mu_a - mu_b).
    The matfac log-joint there is ``matfac_reference_log_joint``.
    """
    rng = np.random.default_rng(seed)
    passed = failed = 0
    msgs = []
    for name, model, data in _model_instances(seed):
        provider, plates = model.provider, model.plates
        log_joint = provider.expected_log_joint
        if isinstance(provider, models.MatrixFactorizationProvider):
            log_joint = matfac_reference_log_joint
        snap = engine.mu_snapshot(plates)
        for plate in plates:
            coeff = snap.coefficient(provider, plate, data)
            reads = snap.reads(plate)
            for other in plates:
                if other in reads:
                    continue
                fam = plates[other].family
                lams = [_random_natural(rng, fam.kind, fam.dim) for _ in plates[other].ids]
                moved = _with_rows(plates, other, range(len(lams)), lams)
                if np.array_equal(coeff, moved.coefficient(provider, plate, data)) and moved.reads(plate) == reads:
                    passed += 1
                else:
                    failed += 1
                    msgs.append(f"multilinearity {name}/{plate}: moving {other!r}, which it does not read, moved it")
            if plate in reads:
                continue
            fam = plates[plate].family
            for row, nid in enumerate(plates[plate].ids):
                for _ in range(pairs):
                    snap_a = _with_rows(plates, plate, [row], [_random_natural(rng, fam.kind, fam.dim)])
                    snap_b = _with_rows(plates, plate, [row], [_random_natural(rng, fam.kind, fam.dim)])
                    lhs = log_joint(snap_a, data) - log_joint(snap_b, data)
                    rhs = float(coeff[row] @ (snap_a[plate][row] - snap_b[plate][row]))
                    if abs(lhs - rhs) <= tol * max(1.0, abs(lhs)):
                        passed += 1
                    else:
                        failed += 1
                        msgs.append(f"multilinearity {name}/{nid}: gap {abs(lhs - rhs):g}")
    return passed, failed, msgs


def _with_rows(plates: dict, plate: str, rows, lams) -> engine.Snapshot:
    """The snapshot of the plates with the given rows of a plate set to lams, and their expectations to match."""
    values = plates[plate].lam.values.copy()
    for row, lam in zip(rows, lams):
        values[row] = lam.values
    moved = plates[plate].with_lambda(expfam.NaturalParam(plates[plate].family, values))
    return engine.mu_snapshot({**plates, plate: moved})


def suite_monotonicity(seed: int = 0, slack: float = 1e-10):
    passed = failed = 0
    msgs = []
    for name, model, data in _model_instances(seed):
        trace = engine.fit(model, data, engine.Schedule(engine.CAVI), tol=1e-10, max_iter=200)
        elbos = trace.elbos
        drops = np.diff(elbos) < -slack * np.maximum(1.0, np.abs(elbos[:-1]))
        if drops.any():
            failed += 1
            msgs.append(f"monotonicity {name}: ELBO decreased at sweep {int(np.argmax(drops)) + 1}")
        else:
            passed += 1
    return passed, failed, msgs


SUITES = {
    "roundtrip": suite_roundtrip,
    "multilinearity": suite_multilinearity,
    "monotonicity": suite_monotonicity,
}


def run_suite(name: str):
    """Run one suite (or 'all'); returns a list of (suite, passed, failed, messages)."""
    if name == "all":
        return [(k, *fn()) for k, fn in SUITES.items()]
    if name not in SUITES:
        raise KeyError(name)
    return [(name, *SUITES[name]())]
