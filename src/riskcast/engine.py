"""Sequential backtest orchestration.

One pass over dates drives the two equation pools, one per block padded to
x = (1, factors), through evolve -> select -> recouple -> optimize -> forecast
-> update, recoupling and optimizing on evaluation dates only; each date's
densities are read from a pool's buffer before its next step overwrites them.
The optimize step holds the model covariance in factor form
(``FactorCovariance``): the closed-form MVP and GMV solves apply its inverse by
the Woodbury identity in O(N K^2), and only the box solve, which indexes the
matrix, gets it dense.  Weights at date t use information through t-1 only;
the realized values of date t enter afterwards via the Bayes updates.  The
training window runs through the same filter but records no metrics or weights.

Factor forecasts depend on the order in which the factors enter the
triangular system, so the model learns over all K! orderings, K at most
``ORDERING_CAP``.  They share equations (position j regresses a factor on the
j placed before it), each filtered once, and their probabilities follow the
forget-then-Bayes recursion of the model probabilities.  Factor moments are
averaged over orderings, not selected: the mixture's E[x x'], x = (1, factors),
is the probability-weighted average of each ordering's (law of total variance).

The filter keeps three tables of log model probabilities: ``asset_log_weights``
(masks x P, N), a row per spec (parent mask, delta, kappa) and a column per asset;
``factor_log_weights`` (equations, P_f); ``ordering_log_weights`` (orderings,).
The recursion p_t ~ p_{t-1}^alpha f_t (Raftery, Karny & Ettler 2010) needs its
normalizer only where a probability is read, so all three follow one rule.  Each
is stored exact up to a constant per slice over its specs and is never
renormalized.  ``select`` forgets each table in place (so it runs once per date),
takes each slice's argmax, which that constant cannot move, and shifts the slice
so that its selected, largest entry is 0, which keeps the table as bounded as a
normalized one when alpha = 1; ``update_step`` only adds the date's log
densities, each asset pool's straight into its rows.  A reader normalizes a
copy: ``asset_log_probs()``, which ``inclusion`` reads, and
``ordering_log_probs()``, the mixture weights of ``recouple``.  A backtest reads
the factor and asset tables only through their argmaxes, so it normalizes once
per evaluation date, for the mixture, and not at all under a fixed ordering,
whose one ordering has log probability 0.

One scoring loop turns the (mean, covariance) that each comparison row's
predictor in ``benchmarks.PREDICTORS`` yields per date into weights and a
Gaussian LPD, both from one ``Covariance`` and so from one Cholesky factor;
"ew" is the only comparison model the engine names.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import benchmarks as bench
from . import portfolio as pf
from ._batch import (DOF_FLOOR, Covariance, FactorCovariance, PoolGroup, _ols_residual_variance,
                     batched_asset_moments, mixture_factor_moments, recursive_factor_moments)
from .data import ReturnPanel
from .errors import CapacityError, ParameterError, RiskcastError
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
# Every pool starts from C0 = c0* s0 I with n0 dof (_batch.C0_STAR = 1e3, N0 = 5): the
# highest mean model LPD per asset-date over c0* in {1e2, 1e3, 1e4, 1e5} at n0 = 10,
# then n0 in {5, 10, 20}, on the bench generator's three panel shapes, seeds 7000-7009:
#   (c0*, n0)       1e2,10  1e3,10  1e4,10  1e5,10  1e3,5   1e3,20
#   paper_learned   2.1322  2.1412  2.0921  2.0821  2.1459  2.1328
#   small_regimes   2.2833  2.2845  2.2842  2.2841  2.2845  2.2845
#   box_gmv         2.2757  2.2870  2.2849  2.2843  2.2871  2.2869
#   mean            2.2304  2.2376  2.2204  2.2168  2.2392  2.2347
DEFAULT_KAPPA_R_GRID = (0.99, 0.995, 1.0)
DEFAULT_KAPPA_F_GRID = (0.999, 1.0)

# Comparison models that run_backtest can add next to the model's own row.
COMPARISON_MODELS = (*bench.PREDICTORS, "ew")

# Relative diagonal jitter added to each comparison model's covariance
# before its weight solve and Gaussian LPD.
COV_JITTER = 1e-8

# Largest factor count K whose K! orderings a learned-ordering run enumerates.
ORDERING_CAP = 6


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
    strategy: str = "mvp"                   # "mvp" | "gmv"
    max_weight: float | None = None
    tau_annual: float = 0.10
    tc_bps: tuple[float, ...] = (5.0,)
    gamma: tuple[float, ...] = (10.0,)
    mean_signal: str = "model"              # "model" | "momentum"
    benchmarks: tuple[str, ...] = ()
    fee_reference: str = "wdlm"
    train_len: int | None = None
    periods_per_year: int = 52

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
        if self.strategy not in ("mvp", "gmv"):
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        if self.mean_signal not in ("model", "momentum"):
            raise ParameterError(f"unknown mean signal {self.mean_signal!r}")
        for name in self.benchmarks:
            if name not in COMPARISON_MODELS:
                raise ParameterError(f"unknown benchmark {name!r}")
        if self.fee_reference not in (MODEL_NAME, *COMPARISON_MODELS, "none"):
            raise ParameterError(f"unknown fee reference {self.fee_reference!r}")
        if self.max_weight is not None and self.max_weight <= 0:
            raise ParameterError("max_weight must be > 0")
        if not self.tc_bps:
            raise ParameterError("tc_bps must name at least one transaction cost")
        if any(tc < 0 for tc in self.tc_bps):
            raise ParameterError("transaction costs must be >= 0")
        if any(g <= 0 for g in self.gamma):
            raise ParameterError("risk aversions must be > 0")
        if not self.gamma and self.fee_reference != "none":
            raise ParameterError("gamma must name a risk aversion unless fee_reference is 'none'")
        if self.periods_per_year < 1:
            raise ParameterError("periods_per_year must be >= 1")
        # a repeated discount doubles its specs' prior mass, a repeated benchmark or
        # cost level its row or block, and a repeated gamma collapses to one fee
        for name in ("factor_set", "delta_grid", "kappa_r_grid", "kappa_f_grid", "benchmarks",
                     "tc_bps", "gamma"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ParameterError(f"{name} {tuple(values)} repeats a value")

    @property
    def tau_periodic(self) -> float:
        return self.tau_annual / self.periods_per_year

    def header(self) -> dict:
        return {
            "model": MODEL_NAME,
            "strategy": self.strategy,
            "tau_annual": self.tau_annual,
            "tau_conversion": "annual/periods_per_year",
            "turnover_first_period": "excluded",
            "max_weight": self.max_weight,
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
        }


@dataclass
class StatsResult:
    """Per-date diagnostics of a statistics-only run."""

    lpd: float
    acc: float
    lpd_series: np.ndarray                  # (T_eval,)
    asset_mean: np.ndarray                  # (T_eval, N)
    inclusion: np.ndarray | None            # (T_eval, N, K)
    ordering_log_probs: np.ndarray | None   # (T_eval, n_orderings)
    factor_mean: np.ndarray | None          # (T_eval, K)
    factor_cov: np.ndarray | None           # (T_eval, K, K)
    orderings: list[tuple[int, ...]]
    dates: tuple[str, ...]
    factors: tuple[str, ...]


def logsumexp(a: np.ndarray, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over ``axis``, shifted by the maximum for stability.

    Rows whose maximum is not finite are shifted by 0, so a row of -inf
    gives -inf and a row holding +inf gives +inf.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    e = a - shift
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(e, out=e), axis=axis, keepdims=True))
    out += shift
    return out if keepdims else np.squeeze(out, axis=axis)[()]


def _log_probs(log_weights: np.ndarray, axis: int) -> np.ndarray:
    """A table of log weights normalized over the specs on ``axis``: a new array."""
    return log_weights - logsumexp(log_weights, axis=axis, keepdims=True)


class _DynamicFactorFilter:
    """Batched state of the full model.  Every equation regresses one column of
    the date's row z_t = (1, factors, returns, 0) on x_t = (1, factors), columns
    0 to K: factor i is column 1 + i and asset j column 1 + K + j.  Outside its
    parents it reads the last entry of z_t, an exact 0, in place of x_t."""

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
        # x_t = (1, factors at t), the leading columns of z_t
        self.X = np.column_stack([np.ones(panel.T), panel.F[:, list(fs)]])
        self.R = panel.R
        self.K = K = len(fs)
        self.N = N = panel.n_assets
        if train < K + 2:
            raise ParameterError(f"train_len {train} too short for OLS priors over {K} factors")

        if config.ordering == "fixed":
            perms = [tuple(range(K))]
        elif K > config.ordering_cap:
            raise CapacityError(f"{K} factors give {math.factorial(K)} orderings, above the cap "
                                f"of {config.ordering_cap}!; run with a fixed ordering instead")
        else:
            perms = list(itertools.permutations(range(K)))     # lexicographic
        self.perms = np.array(perms, dtype=int)
        self.n_ord = len(perms)
        self.ordering_log_weights = np.zeros(self.n_ord)     # each table starts uniform

        # asset block: one group per parent mask, ordered by parent count, of the
        # N assets, mask-major (asset j on mask index i is member i N + j), and its
        # specs (mask, delta, kappa) fill contiguous rows of the log weights, kept
        # as (specs, N) so that they normalize over axis 0
        self.P_r = len(config.delta_grid) * len(config.kappa_r_grid)
        masks = range(1, 1 << K) if config.sparsity else [(1 << K) - 1]
        self.masks = np.array(sorted(masks, key=lambda m: (bin(m).count("1"), m)))
        G = len(self.masks)
        s0 = _ols_residual_variance(self.R[:train], self.X[:train],
                                    [f"asset {a}" for a in panel.assets])
        self.asset_cols, active = self._x_columns(self.masks)
        self.asset_targets = np.tile(1 + K + np.arange(N), G)
        self.asset_pool = PoolGroup(K + 1, G * N, config.delta_grid, config.kappa_r_grid,
                                    np.tile(s0, G), groups=G, active=active)
        self.asset_log_weights = np.zeros((G * self.P_r, N))
        self._assets = np.arange(N)
        self.include_mask = np.repeat((self.masks[:, None] >> np.arange(K)) & 1, self.P_r,
                                      axis=0).astype(float)

        # factor block: each distinct equation (parent mask, target) once, a group
        # of its own, by parent count.  Ordering o uses row factor_eq[j, o] at
        # position j.  The priors come from one OLS fit per parent mask, of all
        # its targets.
        self.P_f = len(config.delta_grid) * len(config.kappa_f_grid)
        eqs = [[(sum(1 << i for i in p[:jj]), p[jj] + 1) for p in perms] for jj in range(K)]
        factor_eqs = [eq for pos in eqs for eq in sorted(set(pos))]
        f_masks, self.factor_targets = np.array(factor_eqs).T
        self.factor_cols, active = self._x_columns(f_masks)
        s0, names = np.empty(len(factor_eqs)), np.array(["1", *self.factor_names])
        for mask in np.unique(f_masks):
            rows, on = np.flatnonzero(f_masks == mask), active[f_masks == mask][0]
            s0[rows] = _ols_residual_variance(
                self.X[:train, self.factor_targets[rows]], self.X[:train, on],
                [f"factor {names[t]} on {', '.join(names[on])}" for t in self.factor_targets[rows]])
        self.factor_pool = PoolGroup(K + 1, len(factor_eqs), config.delta_grid,
                                     config.kappa_f_grid, s0, active=active)
        row = {eq: e for e, eq in enumerate(factor_eqs)}
        self.factor_eq = np.array([[row[eq] for eq in pos] for pos in eqs])
        self.factor_log_weights = np.zeros((len(factor_eqs), self.P_f))
        self._factor_rows = np.arange(len(factor_eqs))

    def _x_columns(self, masks):
        """The columns of z_t that the equations on parent ``masks`` read for x_t,
        (equations, K + 1), and which of them are active: the constant and the
        parents, where the others read the zero entry of z_t."""
        active = ((masks[:, None] << 1 | 1) >> np.arange(self.K + 1)) & 1 == 1
        return np.where(active, np.arange(self.K + 1), self.K + self.N + 1), active

    # ---- one step ----------------------------------------------------------

    def select(self):
        """Evolve, forget the filter's three tables in place (so once per date), and
        pick the specs of highest forgotten probability: (row of the (masks x P, N)
        asset table per asset, column of the (equations, P_f) factor table per
        equation).  Each table's picked entries are shifted to 0."""
        cfg = self.config
        self.asset_pool.evolve()
        self.factor_pool.evolve()
        fw, ow, aw = self.factor_log_weights, self.ordering_log_weights, self.asset_log_weights
        fw *= cfg.alpha
        sel_f = np.argmax(fw, axis=1)
        fw -= fw[self._factor_rows, sel_f][:, None]
        ow *= cfg.alpha_ord
        ow -= ow.max()
        aw *= cfg.alpha
        sel_assets = np.argmax(aw, axis=0)
        aw -= aw[sel_assets, self._assets]
        # a pool keeps r = kappa n, one per kappa: spec p reads p % Pk
        for block, pool, p_idx in (("factor", self.factor_pool, sel_f),
                                   ("asset", self.asset_pool, sel_assets)):
            if pool.r.min() <= DOF_FLOOR and np.any(pool.r[p_idx % pool.kappas.size] <= DOF_FLOOR):
                warnings.warn(f"{block} equation degrees of freedom at the floor", RuntimeWarning)
        return sel_assets, sel_f

    def recouple(self, selection):
        """Predictive (asset mean, B, idio, factor mean, factor cov) of a selection,
        mixed over the ordering probabilities that ``select`` left; writes no state."""
        sel_assets, sel_f = selection
        eqs = self.factor_eq.ravel()
        S = recursive_factor_moments(self.perms.T + 1, *(
            v.reshape(*self.factor_eq.shape, *v.shape[1:])
            for v in self.factor_pool.selected(eqs, sel_f[eqs])))
        lam, sig = mixture_factor_moments(self.ordering_log_probs(), S)
        mask_idx, p_idx = np.divmod(sel_assets, self.P_r)
        mean, B, idio = batched_asset_moments(
            *self.asset_pool.selected(mask_idx * self.N + self._assets, p_idx), lam, sig)
        return mean, B, idio, lam, sig

    def update_step(self, t: int, selection) -> float:
        """Observe date t, update the states, and add the date's log densities to
        the three tables that ``select`` forgot: the factors' (equations, P_f), the
        orderings' and the assets' (masks x P, N).  Returns the asset-block log
        predictive density of the selected models."""
        sel_assets, sel_f = selection
        z = np.concatenate((self.X[t], self.R[t], [0.0]))
        dens = []
        for pool, cols, targets in ((self.factor_pool, self.factor_cols, self.factor_targets),
                                    (self.asset_pool, self.asset_cols, self.asset_targets)):
            f, qs = pool.forecast(z[cols])
            dens.append(pool.log_densities(z[targets], f, qs))
            pool.update()
        dens_f, dens_a = dens
        joint = dens_f[self.factor_eq, sel_f[self.factor_eq]].sum(axis=0)
        self.factor_log_weights += dens_f
        self.ordering_log_weights += joint

        # the asset densities, (P, masks x N) transposed, add into the rows
        # (masks x P, N), and those of each asset's selected spec into the LPD
        N, P, G = self.N, self.P_r, len(self.masks)
        dT = dens_a.T
        table = self.asset_log_weights.reshape(G, P, N)
        table += dT.reshape(P, G, N).transpose(1, 0, 2)
        mask_idx, p_idx = np.divmod(sel_assets, P)
        return float(dT[p_idx, mask_idx * N + self._assets].sum())

    def asset_log_probs(self) -> np.ndarray:
        """The asset table normalized over its specs: a new (masks x P, N) array."""
        return _log_probs(self.asset_log_weights, axis=0)

    def ordering_log_probs(self) -> np.ndarray:
        """The ordering table normalized: a new (orderings,) array, exactly 0
        for a single ordering."""
        if self.n_ord == 1:
            return np.zeros(1)
        return _log_probs(self.ordering_log_weights, axis=0)

    def inclusion(self) -> np.ndarray:
        """Posterior inclusion probability of each factor in each asset's
        parent set, (N, K), from the asset table normalized on read."""
        return (self.include_mask.T @ np.exp(self.asset_log_probs())).T


def _run_model(panel: ReturnPanel, config: RunConfig, collect_weights: bool):
    """Drive the filter over all dates.  A backtest (``collect_weights``) also gets
    weights, but no inclusion, ordering or factor-moment series (left None).
    Each evaluation date's weights solve on a new ``FactorCovariance`` of the
    recoupled (B, sig, idio), so the unconstrained solves build no N x N array;
    a tracer may keep the object, so nothing of it is reused."""
    flt = _DynamicFactorFilter(panel, config)
    train = flt.train_len
    T_eval = panel.T - train
    N, K = flt.N, flt.K
    lpd_series, asset_mean = np.zeros(T_eval), np.zeros((T_eval, N))
    if collect_weights:
        weights = np.zeros((T_eval, N))
        inclusion = ord_lp = fac_mean = fac_cov = None
    else:
        weights = None
        inclusion, ord_lp = np.zeros((T_eval, N, K)), np.zeros((T_eval, flt.n_ord))
        fac_mean, fac_cov = np.zeros((T_eval, K)), np.zeros((T_eval, K, K))
    momentum = config.mean_signal == "momentum" and config.strategy != "gmv"

    for t in range(panel.T):
        i = t - train
        try:
            selection = flt.select()
            if i >= 0:
                mean, B, idio, lam, sig = flt.recouple(selection)
                asset_mean[i] = mean
                if collect_weights:
                    mu = pf.momentum_signal(flt.R, t) if momentum else mean
                    weights[i] = _solve_weights(config, mu, FactorCovariance(B, sig, idio),
                                                weights[i - 1] if i > 0 else None).w
            lpd_t = flt.update_step(t, selection)
            if i >= 0:
                lpd_series[i] = lpd_t
                if not collect_weights:
                    fac_mean[i], fac_cov[i], ord_lp[i] = lam, sig, flt.ordering_log_probs()
                    inclusion[i] = flt.inclusion()
        except RiskcastError as exc:
            raise type(exc)(f"date {panel.dates[t]}: {exc}") from exc

    return StatsResult(
        lpd=float(lpd_series.sum()), acc=pf.hit_rate(asset_mean, flt.R[train:]),
        lpd_series=lpd_series, asset_mean=asset_mean, inclusion=inclusion,
        ordering_log_probs=ord_lp, factor_mean=fac_mean, factor_cov=fac_cov,
        orderings=[tuple(p) for p in flt.perms.tolist()], dates=panel.dates[train:],
        factors=flt.factor_names), weights, train


def _solve_weights(config: RunConfig, mean: np.ndarray, cov: Covariance,
                   start: np.ndarray | None) -> pf.WeightVector:
    """Weights for one date under the run's strategy; ``start`` (the previous
    date's weights of the same row) warm-starts the box solve.  The closed forms
    take ``cov`` itself; the box solve, whose active-set method indexes blocks
    of the matrix, gets it as a dense array."""
    bound, tau = config.max_weight, config.tau_periodic
    if config.strategy == "gmv":
        if bound is not None:
            return pf.constrained_weights(np.asarray(cov), bound, start=start)
        return pf.gmv_weights(cov)
    if bound is not None:
        return pf.constrained_weights(np.asarray(cov), bound, mean, tau, start=start)
    return pf.mvp_weights(mean, cov, tau)


def _run_covariance_benchmark(name: str, panel: ReturnPanel, config: RunConfig,
                              train: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score comparison row ``name`` -> (weights, lpd_series, forecast means)
    over the evaluation dates: its predictor's covariance, plus the jitter,
    gives warm-started weights and a Gaussian density of the realized returns."""
    R, N = panel.R, panel.n_assets
    T_eval = panel.T - train
    weights, lpd, means = np.zeros((T_eval, N)), np.zeros(T_eval), np.zeros((T_eval, N))
    predictions = bench.PREDICTORS[name](R, panel.F, train)
    for i, t in enumerate(range(train, panel.T)):
        try:
            mu, cov = next(predictions)
            cov.flat[::N + 1] += COV_JITTER * np.trace(cov) / N    # into this row's own copy
            cov = Covariance(cov)
            weights[i] = _solve_weights(config, mu, cov, weights[i - 1] if i > 0 else None).w
            e = R[t] - mu
            lpd[i] = float(-0.5 * (N * np.log(2.0 * np.pi)) - 0.5 * cov.logdet()
                           - 0.5 * e @ cov.solve(e))
            means[i] = mu
        except RiskcastError as exc:
            raise type(exc)(f"{name}, date {panel.dates[t]}: {exc}") from exc
    return weights, lpd, means


def _build_row(name: str, weights: np.ndarray, realized: np.ndarray, config: RunConfig,
               lpd: float | None, acc: float | None) -> ModelRow:
    per_tc, gross, turnover = [], None, None
    for tc in config.tc_bps:
        g, net, to = pf.apply_costs(weights, realized, tc)
        stats = pf.performance(net, config.periods_per_year)
        per_tc.append(TCResult(tc, net, stats.mean, stats.sd, stats.sharpe))
        gross, turnover = g, to
    return ModelRow(name, turnover, gross, per_tc, lpd=lpd, acc=acc)


def run_backtest(panel: ReturnPanel, config: RunConfig) -> BacktestReport:
    """Full backtest of the dynamic factor model plus configured benchmarks."""
    stats, weights, train = _run_model(panel, config, collect_weights=True)
    realized = panel.R[train:]
    rows = [_build_row(MODEL_NAME, weights, realized, config, stats.lpd, stats.acc)]
    for name in config.benchmarks:
        if name == "ew":
            w = np.full(realized.shape, 1.0 / panel.n_assets)
            rows.append(_build_row(name, w, realized, config, None, None))
        else:
            bw, blpd, bmeans = _run_covariance_benchmark(name, panel, config, train)
            acc = pf.hit_rate(bmeans, realized)
            rows.append(_build_row(name, bw, realized, config, float(blpd.sum()), acc))

    ref = next((r for r in rows if r.name == config.fee_reference), None)
    if ref is not None:
        for row in rows:
            for cand, base in zip(row.per_tc, ref.per_tc):
                for g in config.gamma:
                    cand.fees_bps[g] = pf.management_fee(cand.net, base.net, g,
                                                         config.periods_per_year)
    header = {**config.header(), "train_len": train, "n_assets": panel.n_assets,
              "factors": list(stats.factors),
              "fee_reference": config.fee_reference if ref is not None else None}
    return BacktestReport(stats.dates, header, rows)


def run_statistics_only(panel: ReturnPanel, config: RunConfig) -> StatsResult:
    """Forecast-accuracy run: LPD and hit rate without portfolio construction."""
    stats, *_ = _run_model(panel, config, collect_weights=False)
    return stats
