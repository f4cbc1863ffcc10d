"""Assembly of joint one-step predictive moments from per-equation filters.

Factor moments are built recursively along an ordering: each position's
Student-t forecast is integrated over its parents' already-computed moments
(law of total mean and variance), producing the factor mean vector and
covariance.  Asset moments then combine each asset's selected prior with the
factor moments; the full asset covariance is a rank-K systematic part plus a
strictly positive idiosyncratic diagonal, so it is positive definite by
construction.

The engine runs none of this module.  It uses the batched
``_batch.recursive_factor_moments`` and ``_batch.batched_asset_moments``,
which apply the same integral as one formula in the second moments
E[x x'] of x = (1, factors) rather than in (mean, covariance).
``factor_moments`` and ``asset_moments`` are the scalar references that the
tests hold those against, with ``to_canonical`` mapping an ordering's moments
back to factor ids, and the benchmark's tracer hooks ``asset_moments`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dlm
from .errors import MomentError, ShapeError


@dataclass(frozen=True)
class PredictiveMoments:
    """One-step-ahead joint moments: factor block and asset block."""

    factor_mean: np.ndarray              # (K,)
    factor_cov: np.ndarray               # (K, K)
    asset_mean: np.ndarray               # (N,)
    asset_cov: np.ndarray                # (N, N)


def _dof_correction(r: float, label: str) -> float:
    if r <= 2.0:
        raise MomentError(f"{label}: predictive variance needs dof > 2, got r={r}")
    return r / (r - 2.0)


def _split(prior: dlm.PriorState):
    """Partition (a, R) into intercept and loading blocks."""
    a = prior.a
    R = prior.R
    return a[0], a[1:], R[0, 0], R[0, 1:], R[1:, 1:]


def _conditional_variance_load(mean_pa: np.ndarray, cov_pa: np.ndarray,
                               R_a: float, R_ab: np.ndarray, R_b: np.ndarray) -> float:
    """Expected value of F'RF over the parents, with F = (1, parents)."""
    return float(mean_pa @ R_b @ mean_pa + np.trace(R_b @ cov_pa)
                 + 2.0 * R_ab @ mean_pa + R_a)


def factor_moments(perm: Sequence[int], priors: Sequence[dlm.PriorState]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Recursive factor moments under one ordering, in canonical coordinates.

    ``priors[j]`` is the selected evolved prior of the equation at position j,
    whose parents are the factors at positions 0..j-1 of ``perm``.
    """
    K = len(perm)
    if len(priors) != K:
        raise ShapeError("need one prior per factor position")
    mean = np.zeros(K)
    cov = np.zeros((K, K))
    for j, prior in enumerate(priors):
        if prior.dim != j + 1:
            raise ShapeError(f"position {j} prior has dimension {prior.dim}, expected {j + 1}")
        corr = _dof_correction(prior.r, f"factor position {j}")
        if j == 0:
            mean[0] = prior.a[0]
            cov[0, 0] = corr * (prior.R[0, 0] + prior.s_prev)
            continue
        a_a, a_b, R_a, R_ab, R_b = _split(prior)
        m_pa = mean[:j]
        c_pa = cov[:j, :j]
        mean[j] = a_a + m_pa @ a_b
        u = _conditional_variance_load(m_pa, c_pa, R_a, R_ab, R_b)
        cov[j, j] = corr * (prior.s_prev + u) + a_b @ c_pa @ a_b
        cross = c_pa @ a_b
        cov[j, :j] = cross
        cov[:j, j] = cross
    return to_canonical(tuple(perm), mean, cov)


def to_canonical(perm: tuple[int, ...], mean_perm: np.ndarray,
                 cov_perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map position-indexed moments back to factor-id coordinates."""
    perm = np.asarray(perm)
    mean, cov = np.empty(perm.size), np.empty((perm.size, perm.size))
    mean[perm] = mean_perm
    cov[np.ix_(perm, perm)] = cov_perm
    return mean, cov


def asset_moments(factor_mean: np.ndarray, factor_cov: np.ndarray,
                  selections: Sequence[tuple[Sequence[int], dlm.PriorState]]
                  ) -> PredictiveMoments:
    """Asset-block predictive moments given factor moments and selected models.

    ``selections[j]`` pairs the parent factor indices of asset j's selected
    model with its evolved prior.  Loading vectors are embedded into K
    dimensions with zeros on unselected factors, so assets with disjoint
    parental sets have zero systematic covariance.
    """
    factor_mean = np.asarray(factor_mean, float)
    factor_cov = np.asarray(factor_cov, float)
    K = factor_mean.size
    N = len(selections)
    B = np.zeros((N, K))
    mean = np.zeros(N)
    idio = np.zeros(N)
    for j, (parents, prior) in enumerate(selections):
        idx = list(parents)
        if prior.dim != 1 + len(idx):
            raise ShapeError(f"asset {j}: prior dimension {prior.dim} does not match "
                             f"parents {tuple(idx)}")
        corr = _dof_correction(prior.r, f"asset equation {j}")
        a_a, a_b, R_a, R_ab, R_b = _split(prior)
        m_pa = factor_mean[idx]
        c_pa = factor_cov[np.ix_(idx, idx)]
        mean[j] = a_a + m_pa @ a_b
        u = _conditional_variance_load(m_pa, c_pa, R_a, R_ab, R_b)
        idio[j] = corr * (prior.s_prev + u)
        B[j, idx] = a_b
    cov = B @ factor_cov @ B.T
    cov[np.diag_indices(N)] += idio
    cov = (cov + cov.T) / 2.0
    return PredictiveMoments(factor_mean, factor_cov, mean, cov)
