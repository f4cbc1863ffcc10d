"""Dynamic learning over permutations of the factor block.

The triangular dependency structure makes factor forecasts depend on the
order in which the factors enter the system.  All K! orderings of the factor
block are filtered side by side; ordering probabilities follow the same
forget-then-Bayes recursion as model probabilities (the engine runs both on
one normalizer), and factor predictive moments are averaged across orderings
(law of total mean and variance) rather than selected.

The engine runs ``enumerate_orderings`` and ``mixture_factor_moments``.
It does not run ``to_canonical``: that is part of the scalar
``recouple.factor_moments``, which the tests keep as the reference for the
batched factor moments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError, ShapeError

ORDERING_CAP = 6


def enumerate_orderings(n_factors: int, cap: int = ORDERING_CAP) -> list[tuple[int, ...]]:
    """All n_factors! permutations in lexicographic order.

    Raises CapacityError above the cap; use a fixed ordering for larger
    factor blocks.
    """
    if n_factors > cap:
        raise CapacityError(
            f"{n_factors} factors give {math.factorial(n_factors)} orderings, "
            f"above the cap of {cap}!; run with a fixed ordering instead")
    return list(itertools.permutations(range(n_factors)))


def to_canonical(perm: tuple[int, ...], mean_perm: np.ndarray,
                 cov_perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map position-indexed moments back to factor-id coordinates."""
    perm = np.asarray(perm)
    K = perm.size
    mean = np.empty(K)
    cov = np.empty((K, K))
    mean[perm] = mean_perm
    cov[np.ix_(perm, perm)] = cov_perm
    return mean, cov


def mixture_factor_moments(log_probs: np.ndarray, means, covs) -> tuple[np.ndarray, np.ndarray]:
    """Probability-weighted moments of the ordering mixture.

    means and covs are per-ordering moments already in canonical factor
    coordinates.  The mixture covariance adds the between-ordering spread of
    the means to the average within-ordering covariance.
    """
    p = np.exp(np.asarray(log_probs, float))
    means = np.asarray(means, float)
    covs = np.asarray(covs, float)
    if means.shape[0] != p.size or covs.shape[0] != p.size:
        raise ShapeError("per-ordering moments must align with probabilities")
    mean_mix = p @ means
    second = np.einsum("o,oij->ij", p, covs) + np.einsum("o,oi,oj->ij", p, means, means)
    cov_mix = second - np.outer(mean_mix, mean_mix)
    return mean_mix, (cov_mix + cov_mix.T) / 2.0
