"""Dynamic learning over permutations of the factor block.

The triangular dependency structure makes factor forecasts depend on the
order in which the factors enter the system.  The K! orderings share their
equations (position j regresses a factor on the j placed before it), so the
engine filters each distinct (parent set, target) equation once.  Ordering
probabilities follow the same forget-then-Bayes recursion as model
probabilities (the engine runs both on one normalizer).  Factor predictive
moments are averaged across orderings rather than selected: the mixture's
second moments E[x x'] of x = (1, factors) are the probability-weighted
average of each ordering's, which is the law of total mean and variance.

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


def mixture_factor_moments(log_probs: np.ndarray, S) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the ordering mixture.

    ``S`` (o, K+1, K+1) holds each ordering's second moments E[x x'] of
    x = (1, factors) in canonical factor coordinates.  The mixture's second
    moments are their probability-weighted average, so its covariance needs
    no separate between-ordering spread of the means.
    """
    p = np.exp(np.asarray(log_probs, float))
    S = np.asarray(S, float)
    if S.shape[0] != p.size:
        raise ShapeError("per-ordering moments must align with probabilities")
    S_mix = np.einsum("o,oij->ij", p, S)
    mean = S_mix[0, 1:]
    cov = S_mix[1:, 1:] - np.outer(mean, mean)
    return mean, (cov + cov.T) / 2.0
