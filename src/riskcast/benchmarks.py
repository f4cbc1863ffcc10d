"""Comparison models: reference covariance and mean estimators.

``PREDICTORS`` maps each comparison row's name to a generator function
``predict(R, F, train)`` of the (T, N) asset and (T, K) factor returns.  After
fitting on the first ``train`` dates it yields, for each evaluation date t in
turn, the (mean, covariance) predicted from the dates before t.  Each
covariance is a fresh symmetric (N, N) array, PSD up to float tolerance, which
the engine changes in place: it adds ``engine.COV_JITTER`` times the mean
variance to the diagonal before the weight solve and the Gaussian LPD.  The
rolling-window and EWMA rows predict the mean by momentum.  The estimators are
called through this module's globals, so a wrapper set on the module sees
every call.  The exchangeable local-level model with discounted matrix
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
from . import portfolio as pf
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
    return np.asarray(_batch.FactorCovariance(B, fc, resid.var(axis=0, ddof=keep.size + 1)))


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
    mean_pred, cov_pred = wishart_predictive(state)
    rho = state.c / state.delta
    r = state.kappa * state.n
    q = rho + 1.0
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
    return new, mean_pred, cov_pred


def wishart_predictive(state: WishartDLMState) -> tuple[np.ndarray, np.ndarray]:
    """One-step predictive mean and covariance of a local-level state."""
    r = state.kappa * state.n
    if r <= 2.0:
        raise MomentError(f"local-level model: predictive variance needs dof > 2, got r={r}")
    cov = (state.c / state.delta + 1.0) * state.S * (r / (r - 2.0))
    return state.m.copy(), (cov + cov.T) / 2.0


class FactorWishartDLM:
    """Factor-augmented variant: one local-level model on the factor block and
    per-asset regression filters on the factors, recoupled on request.

    The asset filters are one ``PoolGroup`` with every factor as a parent and
    a single (delta, kappa) pair, so all assets advance in one set of array
    operations on their one shared row (1, factors), as one group; their predictive
    moments come from ``batched_asset_moments`` given the factor forecast.
    ``s0`` is the asset filters' prior scale, one value or one per asset.
    The recursions are those of ``dlm.evolve`` / ``dlm.update`` and
    ``recouple.asset_moments``, which remain the reference in the tests.
    ``predict`` raises MomentError at asset dof r <= 2; ``_batch.DOF_FLOOR``
    does not bind, as r = kappa n starts at 4.95 under the default kappa.
    """

    def __init__(self, n_assets: int, n_factors: int, s0: np.ndarray | float = 0.1,
                 delta: float = 0.997, kappa: float = 0.99, s0_diag: float = 0.1):
        self.factor_state = initial_wishart_state(n_factors, s0_diag, delta, kappa)
        s0 = np.maximum(np.broadcast_to(np.asarray(s0, float), (n_assets,)), 1e-12)
        self.assets = _batch.PoolGroup(1 + n_factors, n_assets, (delta,), (kappa,), s0, groups=1)
        self._sel = (np.arange(n_assets), np.zeros(n_assets, dtype=int))   # (member, spec) of each asset
        self.assets.evolve()    # kept evolved between periods, so predict may precede step

    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and covariance of the asset block for the coming period."""
        lam, sig_f = wishart_predictive(self.factor_state)
        if (r := float(self.assets.r[0])) <= 2.0:
            raise MomentError(f"asset equations: predictive variance needs dof > 2, got r={r}")
        mean, B, idio = _batch.batched_asset_moments(*self.assets.selected(*self._sel), lam, sig_f)
        return mean, np.asarray(_batch.FactorCovariance(B, sig_f, idio))

    def step(self, y_factors: np.ndarray, y_assets: np.ndarray) -> None:
        """Update the factor block and every asset filter on one period."""
        self.factor_state = wishart_dlm_step(self.factor_state, y_factors)[0]
        grp = self.assets
        f, qs = grp.forecast(np.concatenate(([1.0], np.asarray(y_factors, float)))[None])
        grp.log_densities(y_assets, f, qs)
        grp.update()
        grp.evolve()


def _efm(R, F, train):
    for t in range(train, len(R)):
        cov = efm_cov(R[t - train:t], F[t - train:t])
        yield pf.momentum_signal(R, t), cov


def _lw(R, F, train):
    for t in range(train, len(R)):
        cov = lw_shrinkage(R[t - train:t])
        yield pf.momentum_signal(R, t), cov


def _ewma(decay: float):
    def predict(R, F, train):
        sigma = np.cov(R[:train].T, ddof=1).reshape(R.shape[1], R.shape[1])
        for t in range(train, len(R)):
            mean = pf.momentum_signal(R, t)
            cov, sigma = sigma, ewma_cov(sigma, R[t], decay)
            yield mean, cov
    return predict


def _wdlm(R, F, train):
    state = initial_wishart_state(R.shape[1])
    for t in range(len(R)):
        state, mean, cov = wishart_dlm_step(state, R[t])
        if t >= train:
            yield mean, cov


def _factor_wdlm(R, F, train):
    X = np.column_stack([np.ones(train), F[:train]])
    model = FactorWishartDLM(R.shape[1], F.shape[1], _batch._ols_residual_variance(
        R[:train], X, [f"asset {j}" for j in range(R.shape[1])]))
    for t in range(train):
        model.step(F[t], R[t])
    for t in range(train, len(R)):
        predicted = model.predict()
        model.step(F[t], R[t])
        yield predicted


PREDICTORS = {"efm": _efm, "lw": _lw, "ewma97": _ewma(0.97), "ewma99": _ewma(0.99),
              "wdlm": _wdlm, "factor-wdlm": _factor_wdlm}
