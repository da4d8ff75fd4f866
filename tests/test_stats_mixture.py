"""Tests for the Poisson mixture (LCA) and latent transition model."""

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from repro.obs.tracer import Tracer, set_tracer
from repro.stats.ltm import fit_latent_transitions
from repro.stats.mixture import (
    PoissonMixtureResult,
    fit_poisson_mixture,
    select_poisson_mixture,
)


def two_class_counts(seed=0, n1=600, n2=300, lam1=(5.0, 0.5), lam2=(0.5, 3.0)):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.poisson(lam1, size=(n1, 2)), rng.poisson(lam2, size=(n2, 2))]
    ).astype(float)


class TestPoissonMixture:
    def test_recovers_rates(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        rates = model.rates[np.argsort(model.rates[:, 0])]
        assert rates[0] == pytest.approx([0.5, 3.0], abs=0.35)
        assert rates[1] == pytest.approx([5.0, 0.5], abs=0.35)

    def test_recovers_weights(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        assert sorted(model.weights) == pytest.approx([1 / 3, 2 / 3], abs=0.06)

    def test_weights_sorted_descending(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        assert model.weights[0] >= model.weights[1]

    def test_assignment_accuracy(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        labels = model.assign(Y)
        # first block should mostly share one label
        first = np.bincount(labels[:600]).max()
        assert first > 560

    def test_responsibilities_sum_to_one(self):
        Y = two_class_counts(n1=50, n2=50)
        model = fit_poisson_mixture(Y, 2, seed=0)
        resp = model.responsibilities(Y)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_loglik_improves_with_true_k(self):
        Y = two_class_counts()
        one = fit_poisson_mixture(Y, 1, seed=0)
        two = fit_poisson_mixture(Y, 2, seed=0)
        assert two.log_likelihood > one.log_likelihood + 50

    def test_n_params(self):
        Y = two_class_counts(n1=40, n2=40)
        model = fit_poisson_mixture(Y, 3, seed=0)
        assert model.n_params == 3 * 2 + 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_poisson_mixture(np.array([1.0, 2.0]), 2)  # 1-D
        with pytest.raises(ValueError):
            fit_poisson_mixture(-np.ones((5, 2)), 2)  # negative
        with pytest.raises(ValueError):
            fit_poisson_mixture(np.ones((5, 2)), 0)

    def test_feature_names(self):
        Y = two_class_counts(n1=30, n2=30)
        model = fit_poisson_mixture(Y, 2, seed=0, feature_names=["make", "take"])
        assert model.feature_names == ["make", "take"]

    def test_deterministic_given_seed(self):
        Y = two_class_counts(n1=100, n2=100)
        a = fit_poisson_mixture(Y, 2, seed=7)
        b = fit_poisson_mixture(Y, 2, seed=7)
        assert a.log_likelihood == pytest.approx(b.log_likelihood)


# --------------------------------------------------------------------- #
# Dense row-level EM: the reference the distinct-pattern EM must equal.
# --------------------------------------------------------------------- #


def _dense_log_emission(Y, rates):
    log_rates = np.log(rates)
    term = Y @ log_rates.T - rates.sum(axis=1)[None, :]
    return term - gammaln(Y + 1.0).sum(axis=1, keepdims=True)


def _dense_em_once(Y, k, rng, max_iter, tol, reseeds):
    n, d = Y.shape
    seeds = rng.choice(n, size=k, replace=n < k)
    rates = Y[seeds] + rng.uniform(0.05, 0.5, size=(k, d))
    rates = np.maximum(rates, 1e-4)
    weights = np.full(k, 1.0 / k)

    loglik = -np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        log_joint = _dense_log_emission(Y, rates) + np.log(weights)[None, :]
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        new_loglik = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm)

        mass = resp.sum(axis=0)
        empty = mass < 1e-8
        if np.any(empty):
            reseeds.append(iteration)
            worst = np.argsort(log_norm.ravel())[: int(empty.sum())]
            for class_index, point in zip(np.where(empty)[0], worst):
                rates[class_index] = np.maximum(Y[point] + 0.1, 1e-4)
                mass[class_index] = 1.0
        weights = np.maximum(mass, 1e-8)
        weights = weights / weights.sum()
        rates = (resp.T @ Y) / np.maximum(mass[:, None], 1e-8)
        rates = np.maximum(rates, 1e-4)

        if np.isfinite(loglik) and abs(new_loglik - loglik) <= tol * (1.0 + abs(loglik)):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    return rates, weights, loglik, converged, iteration


def dense_fit(Y, k, n_init, seed, max_iter=300, tol=1e-7):
    """The row-level fit as it stood before EM moved to distinct rows."""
    Y = np.asarray(Y, dtype=float)
    rng = np.random.default_rng(seed)
    reseeds = []
    best = None
    for _ in range(max(1, n_init)):
        candidate = _dense_em_once(Y, k, rng, max_iter, tol, reseeds)
        if best is None or candidate[2] > best[2]:
            best = candidate
    rates, weights, loglik, converged, n_iter = best
    order = np.argsort(-weights)
    model = PoissonMixtureResult(
        rates=rates[order], weights=weights[order], log_likelihood=loglik,
        n_obs=len(Y), feature_names=[f"f{j}" for j in range(Y.shape[1])],
        converged=converged, n_iter=n_iter,
    )
    return model, reseeds


def assert_matches_dense(Y, k, n_init=2, seed=0):
    reference, reseeds = dense_fit(Y, k, n_init, seed)
    model = fit_poisson_mixture(Y, k, n_init=n_init, seed=seed, max_iter=300)
    np.testing.assert_allclose(model.rates, reference.rates, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.weights, reference.weights, rtol=0, atol=1e-9)
    assert model.log_likelihood == pytest.approx(reference.log_likelihood, rel=1e-12)
    assert model.n_iter == reference.n_iter
    assert model.converged == reference.converged
    np.testing.assert_array_equal(model.assign(Y), reference.assign(Y))
    return reseeds


class TestDenseParity:
    def test_heavily_duplicated_panel(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.05, 1.5, size=(4, 6))
        Y = rng.poisson(lam[rng.integers(0, 4, 20000)]).astype(float)
        assert len(np.unique(Y, axis=0)) < len(Y) / 5
        assert_matches_dense(Y, 4)

    def test_dead_class_reseeding(self):
        # Three large-count profiles plus two noise rows: with five
        # classes, some lose all their mass during EM.
        rng = np.random.default_rng(28)
        base = rng.poisson(300.0 * rng.uniform(0, 1, (3, 3)))
        Y = np.vstack([base[rng.integers(0, 3, 20)], rng.poisson(300.0, (2, 3))])
        reseeds = assert_matches_dense(Y.astype(float), 5, seed=28)
        assert reseeds, "the case no longer exercises dead-class reseeding"

    def test_more_classes_than_distinct_rows(self):
        Y = np.repeat(np.array([[0.0, 1.0], [3.0, 0.0], [1.0, 1.0]]), 10, axis=0)
        assert_matches_dense(Y, 5)


class TestFitDiagnostics:
    def test_restarts_recorded_and_best_selected(self):
        Y = two_class_counts(n1=200, n2=100)
        model = fit_poisson_mixture(Y, 2, n_init=3, seed=4)
        assert len(model.restarts) == 3
        best = max(model.restarts, key=lambda run: run[0])
        assert (model.log_likelihood, model.converged, model.n_iter) == best

    def test_default_budget_converges(self):
        Y = two_class_counts()
        assert fit_poisson_mixture(Y, 2, seed=0).converged

    def test_tracer_counts_fits_and_unconverged(self):
        Y = two_class_counts(n1=100, n2=100)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            fit_poisson_mixture(Y, 2, seed=0)
            fit_poisson_mixture(Y, 2, seed=0, max_iter=2)
        finally:
            set_tracer(previous)
        assert tracer.counters["stats.em.fits"] == 2
        assert tracer.counters["stats.em.unconverged"] == 1


class TestSelection:
    def test_bic_selects_true_k(self):
        Y = two_class_counts()
        model, scores = select_poisson_mixture(Y, (1, 4), seed=0, n_init=2)
        assert model.k == 2
        assert scores[2] < scores[1]

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            select_poisson_mixture(np.ones((10, 2)), (1, 2), criterion="dic")


class TestLatentTransitions:
    def make_panel(self, seed=0, periods=5, n=120, sticky=True):
        rng = np.random.default_rng(seed)
        classes = {u: (0 if u < n // 3 else 1) for u in range(n)}
        lams = [(6.0, 0.5), (0.5, 2.5)]
        panel = []
        for _ in range(periods):
            if not sticky:
                classes = {u: int(rng.integers(0, 2)) for u in range(n)}
            panel.append({u: rng.poisson(lams[c]) for u, c in classes.items()})
        return panel

    def test_sticky_panel_high_persistence(self):
        panel = self.make_panel(sticky=True)
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert result.persistence().min() > 0.8

    def test_random_panel_low_persistence(self):
        panel = self.make_panel(sticky=False)
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert result.persistence().max() < 0.75

    def test_rows_stochastic(self):
        panel = self.make_panel()
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert np.allclose(result.transition.sum(axis=1), 1.0)

    def test_occupancy_counts(self):
        panel = self.make_panel(periods=3, n=60)
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert result.occupancy.shape == (3, 2)
        assert result.occupancy.sum(axis=1).tolist() == [60, 60, 60]

    def test_stationary_distribution_sums_to_one(self):
        panel = self.make_panel()
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert result.stationary_distribution().sum() == pytest.approx(1.0)

    def test_reuse_prefitted_mixture(self):
        panel = self.make_panel(periods=3, n=60)
        pooled = np.vstack([np.vstack(list(p.values())) for p in panel])
        mixture = fit_poisson_mixture(pooled, 2, seed=1)
        result = fit_latent_transitions(panel, k=99, mixture=mixture)
        assert result.k == 2

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            fit_latent_transitions([], k=2)

    def test_users_entering_and_leaving(self):
        rng = np.random.default_rng(0)
        panel = [
            {1: rng.poisson((5, 0.5)), 2: rng.poisson((0.5, 3))},
            {2: rng.poisson((0.5, 3)), 3: rng.poisson((5, 0.5))},
            {3: rng.poisson((5, 0.5))},
        ]
        result = fit_latent_transitions(panel, k=2, seed=0)
        assert result.n_periods == 3
