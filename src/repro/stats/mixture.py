"""Poisson mixture models (Latent Class Analysis on count profiles).

§5.1 classifies each user-month by its vector of transaction counts
(made/accepted, per contract type) using a latent-class model with
Poisson emissions ("using a Poisson curve, due to non-overdispersed count
data"), selecting 12 classes by AIC and BIC.

This module implements the estimator from scratch: EM with log-space
responsibilities, multiple restarts, rate floors against degenerate
classes, and model selection across a class-count range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln, logsumexp

from ..obs.tracer import get_tracer
from .information import aic, bic

__all__ = ["PoissonMixtureResult", "fit_poisson_mixture", "select_poisson_mixture"]

_RATE_FLOOR = 1e-4


@dataclass
class PoissonMixtureResult:
    """A fitted K-class Poisson mixture.

    ``rates[k, j]`` is class k's mean count for feature j — directly
    comparable to the paper's Table 6 (average monthly transactions per
    class).  Classes are sorted by descending mixing weight.
    """

    rates: np.ndarray       # (K, d)
    weights: np.ndarray     # (K,)
    log_likelihood: float
    n_obs: int
    feature_names: List[str]
    converged: bool
    n_iter: int
    #: ``(log_likelihood, converged, n_iter)`` of every EM restart, in order.
    restarts: List[Tuple[float, bool, int]] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.rates.shape[0]

    @property
    def n_params(self) -> int:
        """K*d emission rates plus K-1 free mixing weights."""
        return self.rates.size + self.k - 1

    @property
    def aic(self) -> float:
        return aic(self.log_likelihood, self.n_params)

    @property
    def bic(self) -> float:
        return bic(self.log_likelihood, self.n_params, self.n_obs)

    def log_responsibilities(self, Y: np.ndarray) -> np.ndarray:
        """Log posterior class probabilities for each row of ``Y``."""
        Y = np.asarray(Y, dtype=float)
        log_factorials = gammaln(Y + 1.0).sum(axis=1, keepdims=True)
        log_joint = _log_emission(Y, self.rates, log_factorials) + np.log(self.weights)
        return log_joint - logsumexp(log_joint, axis=1, keepdims=True)

    def responsibilities(self, Y: np.ndarray) -> np.ndarray:
        return np.exp(self.log_responsibilities(Y))

    def assign(self, Y: np.ndarray) -> np.ndarray:
        """Hard class assignment (posterior argmax) per row."""
        return self.log_responsibilities(Y).argmax(axis=1)


def _log_emission(Y: np.ndarray, rates: np.ndarray,
                  log_factorials: np.ndarray) -> np.ndarray:
    """(n, K) log P(y_i | class k); ``log_factorials`` is sum_j lgamma(y_ij + 1)."""
    log_rates = np.log(rates)  # rates are floored, so this is finite
    # sum_j [ y_ij log λ_kj - λ_kj - lgamma(y_ij + 1) ]
    term = Y @ log_rates.T - rates.sum(axis=1)[None, :]
    return term - log_factorials


def _em_once(
    U: np.ndarray,
    counts: np.ndarray,
    inverse: np.ndarray,
    log_factorials: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, float, bool, int]:
    """Row-level EM, run on the distinct rows ``U`` weighted by ``counts``."""
    n, d = len(inverse), U.shape[1]
    # Seed rates from k random observations (jittered, floored).
    seeds = inverse[rng.choice(n, size=k, replace=n < k)]
    rates = np.maximum(U[seeds] + rng.uniform(0.05, 0.5, size=(k, d)), _RATE_FLOOR)
    weights = np.full(k, 1.0 / k)

    loglik = -np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        log_joint = _log_emission(U, rates, log_factorials) + np.log(weights)
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        new_loglik = float(counts @ log_norm[:, 0])
        resp = np.exp(log_joint - log_norm) * counts[:, None]  # (u, K) row mass

        mass = resp.sum(axis=0)  # (K,)
        # A dead class keeps a unit mass so its weight stays positive.
        mass[mass < 1e-8] = 1.0
        weights = mass / mass.sum()
        rates = np.maximum((resp.T @ U) / mass[:, None], _RATE_FLOOR)

        if np.isfinite(loglik) and abs(new_loglik - loglik) <= tol * (1.0 + abs(loglik)):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    return rates, weights, loglik, converged, iteration


def fit_poisson_mixture(
    Y: np.ndarray,
    k: int,
    n_init: int = 5,
    max_iter: int = 2000,
    tol: float = 1e-7,
    seed: int = 0,
    feature_names: Optional[Sequence[str]] = None,
) -> PoissonMixtureResult:
    """Fit a K-class Poisson mixture by EM (best of ``n_init`` restarts)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("expected a 2-D count matrix")
    if np.any(Y < 0):
        raise ValueError("counts must be non-negative")
    if not 1 <= k <= len(Y):
        raise ValueError(f"k must be in 1..{len(Y)}, got {k}")
    rng = np.random.default_rng(seed)
    # EM over distinct rows weighted by multiplicity is exact and far cheaper.
    U, inverse, counts = np.unique(Y, axis=0, return_inverse=True, return_counts=True)
    inverse, counts = inverse.ravel(), counts.astype(float)
    log_factorials = gammaln(U + 1.0).sum(axis=1, keepdims=True)

    runs = [
        _em_once(U, counts, inverse, log_factorials, k, rng, max_iter, tol)
        for _ in range(max(1, n_init))
    ]
    rates, weights, loglik, converged, n_iter = max(runs, key=lambda run: run[2])
    tracer = get_tracer()
    tracer.count("stats.em.fits")
    tracer.count("stats.em.unconverged", int(not converged))

    order = np.argsort(-weights)
    names = list(
        feature_names
        if feature_names is not None
        else [f"f{j}" for j in range(Y.shape[1])]
    )
    return PoissonMixtureResult(
        rates=rates[order],
        weights=weights[order],
        log_likelihood=loglik,
        n_obs=len(Y),
        feature_names=names,
        converged=converged,
        n_iter=n_iter,
        restarts=[(run[2], run[3], run[4]) for run in runs],
    )


def select_poisson_mixture(
    Y: np.ndarray,
    k_range: Tuple[int, int] = (2, 14),
    criterion: str = "bic",
    seed: int = 0,
    n_init: int = 3,
    feature_names: Optional[Sequence[str]] = None,
) -> Tuple[PoissonMixtureResult, Dict[int, float]]:
    """Fit mixtures across ``k_range`` and keep the criterion-best.

    Returns the winning model and the per-k criterion scores (lower is
    better for both AIC and BIC).
    """
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    scores: Dict[int, float] = {}
    best_model: Optional[PoissonMixtureResult] = None
    lo, hi = k_range
    for k in range(lo, hi + 1):
        if k > len(Y):
            break
        model = fit_poisson_mixture(
            Y, k, n_init=n_init, seed=seed + k, feature_names=feature_names
        )
        scores[k] = model.bic if criterion == "bic" else model.aic
        if best_model is None or scores[k] < scores[best_model.k]:
            best_model = model
    if best_model is None:
        raise ValueError("k_range produced no candidates")
    return best_model, scores
