"""Univariate conjugate Normal-Gamma dynamic linear model kernel.

One equation regresses its series on an intercept plus a parental set of
contemporaneous regressors.  State evolution is discount-based: the
coefficient scale is inflated by 1/delta and the volatility degrees of
freedom deflated by kappa between observations.  With delta = kappa = 1 the
filter is exactly batch conjugate Bayesian regression.

The engine runs none of this module: ``_batch.PoolGroup`` carries the same
recursions for whole pools at once.  The scalar kernel is kept as the
reference that the tests hold ``PoolGroup`` against, and the benchmark's
tracer hooks ``evolve`` and ``update`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._batch import C0_STAR, N0
from .errors import NumericError, ParameterError, ShapeError

SYMMETRY_TOL = 1e-10
JITTER_SCALE = 1e-12


def _check_spd(M: np.ndarray, name: str) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"{name} must be square, got {M.shape}")
    if np.max(np.abs(M - M.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(M))):
        raise NumericError(f"{name} is not symmetric within tolerance")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NumericError(f"{name} is not positive definite") from None


@dataclass(frozen=True)
class NGState:
    """Normal-Gamma posterior: mean m, scale C, degrees of freedom n, variance estimate s."""

    m: np.ndarray
    C: np.ndarray
    n: float
    s: float

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.m, float))
        C = np.asarray(self.C, float)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "C", C)
        if C.shape != (m.size, m.size):
            raise ShapeError(f"C has shape {C.shape}, expected ({m.size}, {m.size})")
        _check_spd(C, "C")
        if self.n <= 0 or self.s <= 0:
            raise ParameterError(f"need n > 0 and s > 0, got n={self.n}, s={self.s}")

    @property
    def dim(self) -> int:
        return self.m.size


@dataclass(frozen=True)
class PriorState:
    """One-step-evolved prior: location a, scale R, dof r, carried variance s_prev."""

    a: np.ndarray
    R: np.ndarray
    r: float
    s_prev: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, float))
        R = np.asarray(self.R, float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", R)
        if R.shape != (a.size, a.size):
            raise ShapeError(f"R has shape {R.shape}, expected ({a.size}, {a.size})")
        _check_spd(R, "R")
        if self.r <= 0 or self.s_prev <= 0:
            raise ParameterError(f"need r > 0 and s_prev > 0, got r={self.r}, s_prev={self.s_prev}")

    @property
    def dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class TForecast:
    """One-step Student-t forecast: mean f, variance factor q, dof."""

    f: float
    q: float
    dof: float

    def __post_init__(self):
        if self.q <= 0 or self.dof <= 0:
            raise ParameterError(f"need q > 0 and dof > 0, got q={self.q}, dof={self.dof}")


def init_state(dim: int, s0: float, c0: float = C0_STAR) -> NGState:
    """Default starting state: zero mean, scale c0 * s0 * I, N0 degrees of freedom.

    ``s0`` is conventionally the OLS residual variance of the equation over
    the training window.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if s0 <= 0:
        raise ParameterError(f"s0 must be > 0, got {s0}")
    return NGState(np.zeros(dim), c0 * s0 * np.eye(dim), N0, float(s0))


def evolve(state: NGState, delta: float, kappa: float) -> PriorState:
    """Discount evolution: a = m, R = C/delta, r = kappa*n."""
    if not 0 < delta <= 1:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    if not 0 < kappa <= 1:
        raise ParameterError(f"kappa must lie in (0, 1], got {kappa}")
    return PriorState(state.m, state.C / delta, kappa * state.n, state.s)


def forecast(prior: PriorState, regressor: np.ndarray) -> TForecast:
    """One-step forecast given the realized regressor vector (intercept included)."""
    F = np.atleast_1d(np.asarray(regressor, float))
    if F.shape != prior.a.shape:
        raise ShapeError(f"regressor has shape {F.shape}, state dimension is {prior.a.shape}")
    f = float(F @ prior.a)
    q = float(prior.s_prev + F @ prior.R @ F)
    return TForecast(f, q, prior.r)


def t_logpdf(y, f, q, dof):
    """Log density of the location-scale Student-t; vectorized over any argument."""
    y = np.asarray(y, float)
    z2 = (y - f) ** 2 / (dof * q)
    return (gammaln((dof + 1.0) / 2.0) - gammaln(dof / 2.0)
            - 0.5 * np.log(dof * np.pi * q) - (dof + 1.0) / 2.0 * np.log1p(z2))


def log_predictive_density(fc: TForecast, y: float) -> float:
    """Log one-step predictive density of the realized value under the forecast."""
    return float(t_logpdf(y, fc.f, fc.q, fc.dof))


def _repair_spd(C: np.ndarray) -> np.ndarray:
    """Symmetrize, then jitter the diagonal if the Cholesky still fails."""
    C = (C + C.T) / 2.0
    try:
        np.linalg.cholesky(C)
        return C
    except np.linalg.LinAlgError:
        pass
    d = C.shape[0]
    C = C + (JITTER_SCALE * np.trace(C) / d) * np.eye(d)
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise NumericError("posterior scale matrix lost positive definiteness") from None
    return C


def update(prior: PriorState, regressor: np.ndarray, y: float) -> NGState:
    """Bayes update of the evolved prior after observing y.

    e = y - F'a; A = RF/q; m = a + A e; n = r + 1;
    z = (r + e^2/q)/(r + 1); s = s_prev z; C = (R - A A' q) z.
    """
    F = np.atleast_1d(np.asarray(regressor, float))
    if F.shape != prior.a.shape:
        raise ShapeError(f"regressor has shape {F.shape}, state dimension is {prior.a.shape}")
    q = float(prior.s_prev + F @ prior.R @ F)
    e = float(y) - float(F @ prior.a)
    A = prior.R @ F / q
    z = (prior.r + e * e / q) / (prior.r + 1.0)
    m = prior.a + A * e
    C = _repair_spd((prior.R - np.outer(A, A) * q) * z)
    return NGState(m, C, prior.r + 1.0, prior.s_prev * z)
