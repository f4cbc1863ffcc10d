"""Sequential backtest orchestration.

One pass over dates drives every equation pool through
evolve -> forecast -> select -> recouple -> optimize -> update.  Weights at
date t use information through t-1 only; the realized values of date t enter
afterwards via the Bayes updates.  The training window runs through the same
filter but records no metrics or weights.

Reduction order is fixed (by equation index, then pool-group index, then
ordering index), so multi-threaded runs are bit-identical to serial ones.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import benchmarks as bench
from . import portfolio as pf
from ._batch import (DOF_FLOOR, PoolGroup, asset_covariance, batched_asset_moments, moment_offsets,
                     recursive_factor_moments)
from .data import ReturnPanel
from .errors import ParameterError, RiskcastError, WindowError
from .ordering import ORDERING_CAP, enumerate_orderings, mixture_factor_moments
from .portfolio import BacktestReport, ModelRow, TCResult

MODEL_NAME = "dfs-dlm"

# Discount grids.  A discount g has effective memory 1/(1-g) periods:
#   delta:   0.95 -> 20, 0.975 -> 40, 1.0 -> static loadings
#   kappa_r: 0.99 -> 100, 0.995 -> 200, 1.0 -> constant volatility
#   kappa_f: 0.999 -> 1000, 1.0 -> constant volatility
# The delta grid maximized the model's cumulative LPD over 3-point grids
# (delta_lo, (1+delta_lo)/2, 1) on held-out synthetic panels whose loadings
# drift and switch in ~133-period regimes; a 0.998 floor (memory 500+) is too
# slow to track them.  Those panels have constant volatilities, so they say
# nothing about kappa, and both kappa grids are kept.  delta_grid is shared by
# the asset pools and the factor pools.
DEFAULT_DELTA_GRID = (0.95, 0.975, 1.0)
DEFAULT_KAPPA_R_GRID = (0.99, 0.995, 1.0)
DEFAULT_KAPPA_F_GRID = (0.999, 1.0)

# Comparison models that run_backtest can add next to the model's own row.
COMPARISON_MODELS = ("efm", "lw", "ewma97", "ewma99", "wdlm", "factor-wdlm", "ew")

# Relative diagonal jitter added to each comparison model's covariance
# before its weight solve and Gaussian LPD.
COV_JITTER = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Everything a backtest needs beyond the panel itself."""

    factor_set: tuple[int, ...] | None = None
    delta_grid: tuple[float, ...] = DEFAULT_DELTA_GRID
    kappa_r_grid: tuple[float, ...] = DEFAULT_KAPPA_R_GRID
    kappa_f_grid: tuple[float, ...] = DEFAULT_KAPPA_F_GRID
    alpha: float = 0.99
    alpha_ord: float = 0.99
    ordering: str = "learn"                 # "learn" | "fixed"
    ordering_cap: int = ORDERING_CAP        # caps the factor count K, not the K! orderings
    sparsity: bool = True
    strategy: str = "mvp"                   # "mvp" | "gmv" | "constrained"
    max_weight: float | None = None
    tau_annual: float = 0.10
    tc_bps: tuple[float, ...] = (5.0,)
    gamma: tuple[float, ...] = (10.0,)
    mean_signal: str = "model"              # "model" | "momentum"
    benchmarks: tuple[str, ...] = ()
    fee_reference: str = "wdlm"
    train_len: int | None = None
    periods_per_year: int = 52
    threads: int = 1

    def __post_init__(self):
        if not self.delta_grid or not self.kappa_r_grid or not self.kappa_f_grid:
            raise ParameterError("discount grids must be non-empty")
        for g in (*self.delta_grid, *self.kappa_r_grid, *self.kappa_f_grid):
            if not 0 < g <= 1:
                raise ParameterError(f"discount {g} outside (0, 1]")
        if not 0 < self.alpha <= 1 or not 0 < self.alpha_ord <= 1:
            raise ParameterError("forgetting factors must lie in (0, 1]")
        if self.ordering not in ("learn", "fixed"):
            raise ParameterError(f"unknown ordering mode {self.ordering!r}")
        if self.strategy not in ("mvp", "gmv", "constrained"):
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        if self.mean_signal not in ("model", "momentum"):
            raise ParameterError(f"unknown mean signal {self.mean_signal!r}")
        for name in self.benchmarks:
            if name not in COMPARISON_MODELS:
                raise ParameterError(f"unknown benchmark {name!r}")
        if self.max_weight is not None and self.max_weight <= 0:
            raise ParameterError("max_weight must be > 0")
        if any(tc < 0 for tc in self.tc_bps):
            raise ParameterError("transaction costs must be >= 0")
        if any(g <= 0 for g in self.gamma):
            raise ParameterError("risk aversions must be > 0")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")

    @property
    def tau_periodic(self) -> float:
        return self.tau_annual / self.periods_per_year

    @property
    def box_bound(self) -> float | None:
        if self.strategy == "constrained":
            return self.max_weight if self.max_weight is not None else 0.05
        return self.max_weight

    def header(self) -> dict:
        return {
            "model": MODEL_NAME,
            "strategy": self.strategy,
            "tau_annual": self.tau_annual,
            "tau_conversion": "annual/periods_per_year",
            "turnover_first_period": "excluded",
            "max_weight": self.box_bound,
            "alpha": self.alpha,
            "alpha_ord": self.alpha_ord,
            "ordering": self.ordering,
            "sparsity": self.sparsity,
            "mean_signal": self.mean_signal,
            "delta_grid": list(self.delta_grid),
            "kappa_r_grid": list(self.kappa_r_grid),
            "kappa_f_grid": list(self.kappa_f_grid),
            "tc_bps": list(self.tc_bps),
            "gamma": list(self.gamma),
            "periods_per_year": self.periods_per_year,
            "threads": self.threads,
        }


@dataclass
class StatsResult:
    """Per-date diagnostics of a statistics-only run."""

    lpd: float
    acc: float
    lpd_series: np.ndarray          # (T_eval,)
    asset_mean: np.ndarray          # (T_eval, N)
    inclusion: np.ndarray           # (T_eval, N, K)
    ordering_log_probs: np.ndarray  # (T_eval, n_orderings)
    factor_mean: np.ndarray         # (T_eval, K)
    factor_cov: np.ndarray          # (T_eval, K, K)
    orderings: list[tuple[int, ...]]
    dates: tuple[str, ...]
    factors: tuple[str, ...]


def _ols_residual_variance(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Plain sample variance of the OLS residuals of each column of Y on X,
    floored away from zero; one least-squares fit for all columns."""
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coef
    return np.maximum(resid.var(axis=0), 1e-12)


def logsumexp(a: np.ndarray, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over ``axis``, shifted by the maximum for stability.

    Rows whose maximum is not finite are shifted by 0, so a row of -inf
    gives -inf and a row holding +inf gives +inf.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True))
    out += shift
    return out if keepdims else np.squeeze(out, axis=axis)[()]


def _normalize_rows(lp: np.ndarray) -> np.ndarray:
    return lp - logsumexp(lp, axis=-1, keepdims=True)


class _DynamicFactorFilter:
    """Batched state of the full model: asset pools plus per-position factor pools."""

    def __init__(self, panel: ReturnPanel, config: RunConfig):
        self.config = config
        train = config.train_len if config.train_len is not None else panel.train_len
        if not 0 < train < panel.T:
            raise ParameterError(f"train_len must lie in (0, {panel.T}), got {train}")
        self.train_len = train
        fs = tuple(config.factor_set) if config.factor_set is not None else tuple(range(panel.n_factors))
        if not fs or any(i < 0 or i >= panel.n_factors for i in fs):
            raise ParameterError(f"factor_set {fs} empty or outside the panel's {panel.n_factors} factors")
        self.factor_names = tuple(panel.factors[i] for i in fs)
        self.all_factors = fs == tuple(range(panel.n_factors))
        # every regressor is a set of columns of x_t = (1, factors at t):
        # column 0 is the constant and column i + 1 is factor i
        self.X = np.column_stack([np.ones(panel.T), panel.F[:, list(fs)]])
        self.R = panel.R
        self.K = len(fs)
        self.N = panel.n_assets
        if train < self.K + 2:
            raise ParameterError(f"train_len {train} too short for OLS priors over {self.K} factors")

        if config.ordering == "learn":
            perms = enumerate_orderings(self.K, config.ordering_cap)
        else:
            perms = [tuple(range(self.K))]
        self.perms = np.array(perms, dtype=int)
        self.n_ord = len(perms)
        self.ordering_log_probs = np.full(self.n_ord, -np.log(self.n_ord))

        # asset pools: one group per parent mask, shared spec layout across assets
        self.P_r = len(config.delta_grid) * len(config.kappa_r_grid)
        masks = list(range(1, 1 << self.K)) if config.sparsity else [(1 << self.K) - 1]
        self.masks = masks
        self.s0_assets = _ols_residual_variance(self.R[:train], self.X[:train])
        self.asset_groups = [
            PoolGroup([i for i in range(self.K) if (m >> i) & 1], self.N,
                      config.delta_grid, config.kappa_r_grid, self.s0_assets)
            for m in masks
        ]
        self.asset_cols = [np.concatenate(([0], grp.idx + 1)) for grp in self.asset_groups]
        n_specs = len(masks) * self.P_r
        self.asset_log_probs = np.full((self.N, n_specs), -np.log(n_specs))
        self.include_mask = np.zeros((n_specs, self.K))
        for gi, m in enumerate(masks):
            for i in range(self.K):
                if (m >> i) & 1:
                    self.include_mask[gi * self.P_r:(gi + 1) * self.P_r, i] = 1.0

        # factor pools: group j holds each distinct equation of position j
        # once, as its regressor columns (the constant, then the parents in
        # sorted order) and its target column; the group's idx only sets the
        # regression dimension.  factor_eq[j][o] is the member that ordering o
        # uses there, and factor_offsets[j] its block of o's second moments.
        self.P_f = len(config.delta_grid) * len(config.kappa_f_grid)
        self.factor_groups, self.factor_log_probs = [], []
        self.factor_cols, self.factor_targets, self.factor_eq = [], [], []
        for jj in range(self.K):
            eqs = [((0, *sorted(i + 1 for i in perm[:jj])), perm[jj] + 1) for perm in perms]
            keys = sorted(set(eqs))
            s0 = [_ols_residual_variance(self.X[:train, y], self.X[:train, cols])
                  for cols, y in keys]
            self.factor_eq.append(np.array([keys.index(eq) for eq in eqs]))
            self.factor_cols.append(np.array([cols for cols, _ in keys]))
            self.factor_targets.append(np.array([y for _, y in keys]))
            self.factor_groups.append(PoolGroup(list(range(jj)), len(keys),
                                                config.delta_grid, config.kappa_f_grid, s0))
            self.factor_log_probs.append(np.full((len(keys), self.P_f), -np.log(self.P_f)))
        self.factor_offsets = moment_offsets([
            np.column_stack((cols[eq], tg[eq]))
            for cols, tg, eq in zip(self.factor_cols, self.factor_targets, self.factor_eq)])

        self._executor = (ThreadPoolExecutor(max_workers=config.threads)
                          if config.threads > 1 else None)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def _map(self, fn: Callable, items: Sequence) -> list:
        if self._executor is None:
            return [fn(x) for x in items]
        return list(self._executor.map(fn, items))

    # ---- one step ----------------------------------------------------------

    def forecast_step(self):
        """Evolve everything and build the one-step predictive moments.

        Uses only information through the previous date.  Returns
        (asset mean, loading matrix, idiosyncratic variances,
        factor mixture mean, factor mixture covariance, selection record).
        """
        cfg = self.config
        self._map(lambda g: g.evolve(), self.asset_groups + self.factor_groups)

        # factor block: select per equation on predicted probabilities, then
        # gather each ordering's equations.  The predicted log probabilities
        # of the equation pools stay unnormalized: argmax ignores the row
        # constant, and update_step normalizes after adding the densities.
        lp_pred_f = [cfg.alpha * lp for lp in self.factor_log_probs]
        sel_f = [np.argmax(lp, axis=1) for lp in lp_pred_f]
        a_sel, R_sel, r_sel, s_sel = zip(*(
            grp.selected(eq, sel[eq])
            for grp, eq, sel in zip(self.factor_groups, self.factor_eq, sel_f)))
        S = recursive_factor_moments(self.factor_offsets, a_sel, R_sel, r_sel, s_sel)
        if np.any(np.concatenate(r_sel) <= DOF_FLOOR):
            warnings.warn("factor equation degrees of freedom at the floor", RuntimeWarning)
        lp_ord_pred = _normalize_rows(cfg.alpha_ord * self.ordering_log_probs)
        lam, sig = mixture_factor_moments(lp_ord_pred, S)

        # asset block: select per asset on predicted probabilities
        lp_pred_assets = cfg.alpha * self.asset_log_probs
        sel_assets = np.argmax(lp_pred_assets, axis=1)
        if np.any(np.concatenate([g.r for g in self.asset_groups])[sel_assets] <= DOF_FLOOR):
            warnings.warn("asset equation degrees of freedom at the floor", RuntimeWarning)
        mean, B, idio = batched_asset_moments(self.asset_groups, sel_assets, lam, sig)
        selection = (sel_assets, sel_f, lp_ord_pred, lp_pred_assets, lp_pred_f)
        return mean, B, idio, lam, sig, selection

    def update_step(self, t: int, selection) -> float:
        """Observe date t, update probabilities and states everywhere.

        Returns the asset-block log predictive density of the selected models.
        """
        sel_assets, sel_f, lp_ord_pred, lp_pred_assets, lp_pred_f = selection
        x = self.X[t]
        yR = self.R[t]

        # factor pools
        joint = np.zeros(self.n_ord)
        for jj, grp in enumerate(self.factor_groups):
            eq = self.factor_eq[jj]
            y = x[self.factor_targets[jj]]
            f, q = grp.forecast(x[self.factor_cols[jj]])
            dens = grp.log_densities(y, f, q)
            joint += dens[eq, sel_f[jj][eq]]
            self.factor_log_probs[jj] = _normalize_rows(lp_pred_f[jj] + dens)
            grp.update(y, f, q)
        self.ordering_log_probs = _normalize_rows(lp_ord_pred + joint)

        # asset pools
        def advance(item):
            grp, cols = item
            f, q = grp.forecast(x[cols])
            dens = grp.log_densities(yR, f, q)
            grp.update(yR, f, q)
            return dens

        dens_groups = self._map(advance, list(zip(self.asset_groups, self.asset_cols)))
        dens_all = np.concatenate(dens_groups, axis=1)
        self.asset_log_probs = _normalize_rows(lp_pred_assets + dens_all)
        return float(dens_all[np.arange(self.N), sel_assets].sum())

    def inclusion(self) -> np.ndarray:
        """Posterior inclusion probability of each factor in each asset's
        parent set, (N, K)."""
        return np.exp(self.asset_log_probs) @ self.include_mask


def _run_model(panel: ReturnPanel, config: RunConfig, collect_weights: bool):
    """Drive the filter over all dates; return diagnostics and optional weights."""
    flt = _DynamicFactorFilter(panel, config)
    try:
        train = flt.train_len
        T_eval = panel.T - train
        N, K = flt.N, flt.K
        lpd_series = np.zeros(T_eval)
        asset_mean = np.zeros((T_eval, N))
        inclusion = np.zeros((T_eval, N, K))
        ord_lp = np.zeros((T_eval, flt.n_ord))
        fac_mean = np.zeros((T_eval, K))
        fac_cov = np.zeros((T_eval, K, K))
        weights = np.zeros((T_eval, N)) if collect_weights else None
        bound = config.box_bound
        tau = config.tau_periodic

        for t in range(panel.T):
            evaluating = t >= train
            try:
                mean, B, idio, lam, sig, selection = flt.forecast_step()
                if evaluating:
                    i = t - train
                    asset_mean[i] = mean
                    fac_mean[i] = lam
                    fac_cov[i] = sig
                    if collect_weights:
                        cov = asset_covariance(B, sig, idio)
                        if config.mean_signal == "momentum" and config.strategy != "gmv":
                            mu = pf.momentum_signal(flt.R, t)
                        else:
                            mu = mean
                        start = weights[i - 1] if i > 0 else None
                        weights[i] = _solve_weights(config.strategy, mu, cov, tau, bound,
                                                    start).w
                lpd_t = flt.update_step(t, selection)
                if evaluating:
                    i = t - train
                    lpd_series[i] = lpd_t
                    inclusion[i] = flt.inclusion()
                    ord_lp[i] = flt.ordering_log_probs
            except RiskcastError as exc:
                raise type(exc)(f"date {panel.dates[t]}: {exc}") from exc
    finally:
        flt.close()

    realized = flt.R[train:]
    stats = StatsResult(
        lpd=float(lpd_series.sum()),
        acc=pf.hit_rate(asset_mean, realized),
        lpd_series=lpd_series,
        asset_mean=asset_mean,
        inclusion=inclusion,
        ordering_log_probs=ord_lp,
        factor_mean=fac_mean,
        factor_cov=fac_cov,
        orderings=[tuple(p) for p in flt.perms],
        dates=panel.dates[train:],
        factors=flt.factor_names,
    )
    # the asset OLS priors, reusable by a comparison model on the same regressors
    s0_assets = flt.s0_assets if flt.all_factors else None
    return stats, weights, train, s0_assets


def _solve_weights(strategy: str, mean: np.ndarray, cov: np.ndarray, tau: float,
                   bound: float | None, start: np.ndarray | None = None) -> pf.WeightVector:
    """Weights for one date; ``start`` (the previous date's weights of the same
    row) warm-starts the box solve."""
    if strategy == "gmv":
        if bound is not None:
            return pf.constrained_weights(cov, bound, start=start)
        return pf.gmv_weights(cov)
    if bound is not None:
        return pf.constrained_weights(cov, bound, mean, tau, start=start)
    return pf.mvp_weights(mean, cov, tau)


def _gaussian_lpd(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    L, low = cho_factor(cov, lower=True)
    e = y - mean
    z = cho_solve((L, low), e)
    return float(-0.5 * (y.size * np.log(2.0 * np.pi)) - np.log(np.diag(L)).sum()
                 - 0.5 * e @ z)


def _run_covariance_benchmark(name: str, panel: ReturnPanel, config: RunConfig,
                              train: int, s0_assets: np.ndarray | None = None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Benchmark loop -> (weights, lpd_series, forecast means) over evaluation dates.

    EFM / LW / EWMA use the momentum signal as their mean predictor; the
    local-level models predict their own means.  Densities are Gaussian.
    ``s0_assets`` are the OLS residual variances of the assets on all factors
    over the training window, when the model has already fitted them.
    """
    R, F = panel.R, panel.F
    N = panel.n_assets
    T_eval = panel.T - train
    weights = np.zeros((T_eval, N))
    lpd = np.zeros(T_eval)
    means = np.zeros((T_eval, N))
    bound = config.box_bound
    tau = config.tau_periodic
    needs_momentum = name in ("efm", "lw", "ewma97", "ewma99")
    if needs_momentum and train < 52:
        raise WindowError(f"benchmark {name} needs train_len >= 52 for the momentum signal")

    state = None
    if name == "wdlm":
        state = bench.initial_wishart_state(N)
        for t in range(train):
            state, _, _ = bench.wishart_dlm_step(state, R[t])
    elif name == "factor-wdlm":
        if s0_assets is None:
            s0_assets = _ols_residual_variance(R[:train],
                                               np.column_stack([np.ones(train), F[:train]]))
        state = bench.FactorWishartDLM(N, panel.n_factors, s0_assets)
        for t in range(train):
            state.step(F[t], R[t])
    elif name in ("ewma97", "ewma99"):
        sigma = np.cov(R[:train].T, ddof=1).reshape(N, N)

    for t in range(train, panel.T):
        i = t - train
        if name == "efm":
            cov = bench.efm_cov(R[t - train:t], F[t - train:t])
            mu = pf.momentum_signal(R, t)
        elif name == "lw":
            cov = bench.lw_shrinkage(R[t - train:t])
            mu = pf.momentum_signal(R, t)
        elif name in ("ewma97", "ewma99"):
            cov = sigma
            mu = pf.momentum_signal(R, t)
        elif name == "wdlm":
            state, mu, cov = bench.wishart_dlm_step(state, R[t])
        elif name == "factor-wdlm":
            mu, cov = state.step(F[t], R[t])
        cov = cov + (COV_JITTER * np.trace(cov) / N) * np.eye(N)
        weights[i] = _solve_weights(config.strategy, mu, cov, tau, bound,
                                    weights[i - 1] if i > 0 else None).w
        lpd[i] = _gaussian_lpd(R[t], mu, cov)
        means[i] = mu
        if name in ("ewma97", "ewma99"):
            decay = 0.97 if name == "ewma97" else 0.99
            sigma = bench.ewma_cov(sigma, R[t], decay)
    return weights, lpd, means


def _build_row(name: str, weights: np.ndarray, realized: np.ndarray, config: RunConfig,
               lpd: float | None, acc: float | None) -> ModelRow:
    per_tc = []
    gross = None
    turnover = None
    for tc in config.tc_bps:
        g, net, to = pf.apply_costs(weights, realized, tc)
        stats = pf.performance(net, config.periods_per_year)
        per_tc.append(TCResult(tc, net, stats.mean, stats.sd, stats.sharpe))
        gross, turnover = g, to
    return ModelRow(name, turnover, gross, per_tc, lpd=lpd, acc=acc)


def run_backtest(panel: ReturnPanel, config: RunConfig) -> BacktestReport:
    """Full backtest of the dynamic factor model plus configured benchmarks."""
    stats, weights, train, s0_assets = _run_model(panel, config, collect_weights=True)
    realized = panel.R[train:]
    rows = [_build_row(MODEL_NAME, weights, realized, config, stats.lpd, stats.acc)]
    for name in config.benchmarks:
        if name == "ew":
            w = np.broadcast_to(np.full(panel.n_assets, 1.0 / panel.n_assets),
                                realized.shape).copy()
            rows.append(_build_row("ew", w, realized, config, None, None))
            continue
        bw, blpd, bmeans = _run_covariance_benchmark(name, panel, config, train, s0_assets)
        acc = pf.hit_rate(bmeans, realized)
        rows.append(_build_row(name, bw, realized, config, float(blpd.sum()), acc))

    ref = next((r for r in rows if r.name == config.fee_reference), None)
    if ref is not None:
        for row in rows:
            for cand, base in zip(row.per_tc, ref.per_tc):
                for g in config.gamma:
                    cand.fees_bps[g] = pf.management_fee(cand.net, base.net, g,
                                                         config.periods_per_year)
    header = config.header()
    header["train_len"] = train
    header["n_assets"] = panel.n_assets
    header["factors"] = list(stats.factors)
    header["fee_reference"] = config.fee_reference if ref is not None else None
    return BacktestReport(stats.dates, header, rows)


def run_statistics_only(panel: ReturnPanel, config: RunConfig) -> StatsResult:
    """Forecast-accuracy run: LPD and hit rate without portfolio construction."""
    stats, *_ = _run_model(panel, config, collect_weights=False)
    return stats
