"""Reference covariance and mean estimators used for comparison runs.

All estimators emit symmetric matrices that are positive semi-definite up to
float tolerance; consumers add a small documented diagonal jitter before
inversion.  The exchangeable local-level model with discounted matrix
volatility follows the standard recursion:

    prior scale     rho = c / delta
    forecast        Sigma_pred = (rho + 1) * S * r/(r - 2),  r = kappa * n
    innovation      e = y - m,  q = rho + 1,  A = rho / q
    update          m <- m + A e,  c <- rho / q,
                    S <- (r S + e e' / q) / (r + 1),  n <- r + 1

which reduces to the running conjugate covariance estimate when both
discounts equal one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _batch
from .errors import MomentError, NumericError, ParameterError, ShapeError


def ewma_cov(prev_cov: np.ndarray, y: np.ndarray, decay: float) -> np.ndarray:
    """Exponentially weighted covariance update: (1-decay) y y' + decay * previous."""
    if not 0 < decay < 1:
        raise ParameterError(f"decay must lie in (0, 1), got {decay}")
    y = np.asarray(y, float)
    prev_cov = np.asarray(prev_cov, float)
    if prev_cov.shape != (y.size, y.size):
        raise ShapeError(f"covariance shape {prev_cov.shape} does not match y of size {y.size}")
    return (1.0 - decay) * np.outer(y, y) + decay * prev_cov


def lw_shrinkage(window: np.ndarray) -> np.ndarray:
    """Linear shrinkage of the sample covariance toward constant correlation.

    The target keeps the sample variances on the diagonal and replaces every
    correlation with the average sample correlation; the shrinkage intensity
    is the analytically optimal estimate, clipped to [0, 1].
    """
    X = np.asarray(window, float)
    t, n = X.shape
    if t <= 2:
        raise ParameterError(f"window must have more than 2 observations, got {t}")
    X = X - X.mean(axis=0)
    sample = X.T @ X / t
    var = np.diag(sample).copy()
    if np.any(var <= 0):
        bad = int(np.flatnonzero(var <= 0)[0])
        raise NumericError(f"asset {bad} has zero variance over the window")
    sd = np.sqrt(var)
    corr_sum = (sample / np.outer(sd, sd)).sum()
    avg_corr = (corr_sum - n) / (n * (n - 1)) if n > 1 else 0.0
    target = avg_corr * np.outer(sd, sd)
    np.fill_diagonal(target, var)

    y = X ** 2
    phi_mat = (y.T @ y) / t - sample ** 2
    phi = phi_mat.sum()
    theta = ((X ** 3).T @ X) / t - var[:, None] * sample
    np.fill_diagonal(theta, 0.0)
    rho = np.trace(phi_mat) + avg_corr * ((1.0 / sd)[:, None] * sd[None, :] * theta).sum()
    gamma = np.linalg.norm(sample - target, "fro") ** 2
    if gamma <= 0:
        intensity = 0.0
    else:
        intensity = max(0.0, min(1.0, (phi - rho) / gamma / t))
    sigma = intensity * target + (1.0 - intensity) * sample
    return (sigma + sigma.T) / 2.0


def efm_cov(returns_window: np.ndarray, factor_window: np.ndarray) -> np.ndarray:
    """Rolling exact-factor-model covariance from per-asset OLS on the window.

    Factor columns with numerically zero variance carry zero loadings by
    definition and are excluded from the regressions; collinearity among the
    remaining factors raises NumericError.
    """
    R = np.asarray(returns_window, float)
    F = np.asarray(factor_window, float)
    t, k = F.shape
    if R.shape[0] != t:
        raise ShapeError("returns and factor windows must share the row count")
    if t < k + 2:
        raise ParameterError(f"window of {t} rows is too short for {k} factors")
    keep = np.flatnonzero(F.var(axis=0) > 1e-20)
    Fk = F[:, keep]
    X = np.column_stack([np.ones(t), Fk])
    coef, _, rank, _ = np.linalg.lstsq(X, R, rcond=None)
    if rank < keep.size + 1:
        raise NumericError("factor window is rank deficient")
    resid = R - X @ coef
    B = np.zeros((R.shape[1], k))
    B[:, keep] = coef[1:].T
    fc = np.cov(F.T, ddof=1).reshape(k, k)
    idio = resid.var(axis=0, ddof=keep.size + 1)
    sigma = B @ fc @ B.T + np.diag(idio)
    return (sigma + sigma.T) / 2.0


@dataclass(frozen=True)
class WishartDLMState:
    """Exchangeable local-level state: mean m, level scale c, volatility (S, n)."""

    m: np.ndarray
    c: float
    S: np.ndarray
    n: float
    delta: float
    kappa: float

    def __post_init__(self):
        m = np.asarray(self.m, float)
        S = np.asarray(self.S, float)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "S", S)
        if S.shape != (m.size, m.size):
            raise ShapeError("S must be square and match m")
        if self.n <= 0 or self.c <= 0:
            raise ParameterError("need n > 0 and c > 0")
        if not (0 < self.delta <= 1 and 0 < self.kappa <= 1):
            raise ParameterError("discounts must lie in (0, 1]")


def initial_wishart_state(n_series: int, s0_diag: float = 0.1, delta: float = 0.997,
                          kappa: float = 0.99, c0: float = 100.0, n0: float = 10.0
                          ) -> WishartDLMState:
    return WishartDLMState(np.zeros(n_series), c0, s0_diag * np.eye(n_series),
                           n0, delta, kappa)


def wishart_dlm_step(state: WishartDLMState, y: np.ndarray
                     ) -> tuple[WishartDLMState, np.ndarray, np.ndarray]:
    """Advance one period: returns (new state, predicted mean, predicted covariance).

    The predictions are the one-step-ahead forecasts made before observing y.
    """
    y = np.asarray(y, float)
    if y.shape != state.m.shape:
        raise ShapeError("observation does not match the state dimension")
    rho = state.c / state.delta
    r = state.kappa * state.n
    q = rho + 1.0
    if r <= 2.0:
        raise MomentError(f"local-level model: predictive variance needs dof > 2, got r={r}")
    cov_pred = q * state.S * (r / (r - 2.0))
    mean_pred = state.m.copy()
    e = y - state.m
    A = rho / q
    m_new = state.m + A * e
    c_new = rho / q
    S_new = (r * state.S + np.outer(e, e) / q) / (r + 1.0)
    S_new = (S_new + S_new.T) / 2.0
    try:
        np.linalg.cholesky(S_new + 1e-12 * np.trace(S_new) / y.size * np.eye(y.size))
    except np.linalg.LinAlgError:
        raise NumericError("volatility location matrix lost positive definiteness") from None
    new = WishartDLMState(m_new, c_new, S_new, r + 1.0, state.delta, state.kappa)
    return new, mean_pred, (cov_pred + cov_pred.T) / 2.0


class FactorWishartDLM:
    """Factor-augmented variant: one local-level model on the factor block and
    per-asset regression filters on the factors, recoupled each period.

    The asset filters are one ``PoolGroup`` with every factor as a parent and
    a single (delta, kappa) pair, so all assets advance in one set of array
    operations; their predictive moments come from ``batched_asset_moments``
    given the factor block's forecast.  The recursions are those of
    ``dlm.evolve`` / ``dlm.update`` and ``recouple.asset_moments``, which
    remain the reference in the tests.
    """

    def __init__(self, n_assets: int, n_factors: int, s0_assets: np.ndarray | float = 0.1,
                 delta: float = 0.997, kappa: float = 0.99, s0_diag: float = 0.1):
        self.factor_state = initial_wishart_state(n_factors, s0_diag, delta, kappa)
        s0 = np.maximum(np.broadcast_to(np.asarray(s0_assets, float), (n_assets,)), 1e-12)
        self.assets = _batch.PoolGroup(np.arange(n_factors), n_assets, (delta,), (kappa,), s0)
        self._sel = np.zeros(n_assets, dtype=int)

    def step(self, y_factors: np.ndarray, y_assets: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """Predict the asset block for the current period, then update."""
        self.factor_state, lam, sig_f = wishart_dlm_step(self.factor_state, y_factors)
        grp = self.assets
        grp.evolve()
        r = float(grp.r[0])
        if r <= 2.0:
            raise MomentError(f"asset equations: predictive variance needs dof > 2, got r={r}")
        mean, B, idio = _batch.batched_asset_moments([grp], self._sel, lam, sig_f, dof_floor=2.0)
        F = np.concatenate(([1.0], np.asarray(y_factors, float)))
        f, q = grp.forecast(F)
        grp.update(y_assets, f, q)
        return mean, _batch.asset_covariance(B, sig_f, idio)
