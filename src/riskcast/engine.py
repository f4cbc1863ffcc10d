"""Sequential backtest orchestration.

One pass over dates drives every equation pool through evolve -> select ->
recouple -> optimize -> forecast -> update, recoupling and optimizing on
evaluation dates only.  Weights at date t use information through t-1 only;
the realized values of date t enter afterwards via the Bayes updates.  The
training window runs through the same filter but records no metrics or weights.

Factor forecasts depend on the order in which the factors enter the
triangular system, so the model learns over all K! orderings, K at most
``ORDERING_CAP``.  They share equations (position j regresses a factor on the
j placed before it), each filtered once, and their probabilities follow the
forget-then-Bayes recursion of the model probabilities.  Factor moments are
averaged over orderings, not selected: the mixture's E[x x'], x = (1, factors),
is the probability-weighted average of each ordering's (law of total variance).

The filter keeps three tables of log model probabilities, forgotten in place by
``select`` (so it runs once per date) and Bayes-updated in place by ``update_step``:
``asset_log_weights`` (masks x P, N), a row per spec (parent mask, delta, kappa) and
a column per asset; ``factor_log_probs`` (equations, P_f); ``ordering_log_probs``.
The recursion p_t ~ p_{t-1}^alpha f_t (Raftery, Karny & Ettler 2010) needs its
normalizer only where probabilities are read, and a backtest reads only each
asset's argmax, which a per-asset constant cannot move.  So the asset table is
never renormalized: it holds the log probabilities exact up to a per-asset
constant, and ``asset_log_probs()`` normalizes a copy on read, as ``inclusion``
does.  ``select`` subtracts each asset's selected, largest entry, so the table
stays as bounded as a normalized one when alpha = 1.  The factor and ordering
tables are renormalized in place on every update.

One scoring loop turns the (mean, covariance) that each comparison row's
predictor in ``benchmarks.PREDICTORS`` yields per date into weights and a
Gaussian LPD; "ew" is the only comparison model the engine names.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import benchmarks as bench
from . import portfolio as pf
from ._batch import (DOF_FLOOR, PoolGroup, _ols_residual_variance, asset_covariance,
                     batched_asset_moments, mixture_factor_moments, moment_offsets,
                     recursive_factor_moments)
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


def _normalize(lp: np.ndarray, axis: int) -> None:
    """Renormalize log probabilities over ``axis``, in place."""
    lp -= logsumexp(lp, axis=axis, keepdims=True)


class _DynamicFactorFilter:
    """Batched state of the full model.  Every equation regresses one column
    of the date's row z_t = (1, factors, returns) on the constant, column 0,
    and its parents' columns: factor i is column 1 + i and asset j column
    1 + K + j.  Both blocks are pooled by regression dimension."""

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
        self.ordering_log_probs = np.full(self.n_ord, -np.log(self.n_ord))

        # asset block: the masks are ordered by parent count, so a pool holds
        # the (mask, asset) members of consecutive masks, mask-major (asset j
        # on mask index i is member i N + j of the pools in sequence), and its
        # specs (mask, delta, kappa) fill contiguous rows of the log
        # weights, kept as (specs, N) so that they normalize over axis 0
        self.P_r = len(config.delta_grid) * len(config.kappa_r_grid)
        masks = range(1, 1 << K) if config.sparsity else [(1 << K) - 1]
        self.masks = np.array(sorted(masks, key=lambda m: (bin(m).count("1"), m)))
        mi, j = np.divmod(np.arange(len(self.masks) * N), N)
        s0 = _ols_residual_variance(self.R[:train], self.X[:train])
        self.asset_groups, self.asset_eqs = self._pools(
            self.masks[mi], 1 + K + j, config.kappa_r_grid,
            lambda rec: s0[rec[..., -1].ravel() - 1 - K])
        n_specs = len(self.masks) * self.P_r
        self.asset_log_weights = np.full((n_specs, N), -np.log(n_specs))
        self._assets = np.arange(N)
        self.include_mask = np.repeat((self.masks[:, None] >> np.arange(K)) & 1, self.P_r,
                                      axis=0).astype(float)
        self._dens_a = np.empty((n_specs, N))      # densities, by pool as (masks, specs, N)
        self._dens_blocks = np.split(self._dens_a.reshape(-1, self.P_r, N),
                                     np.cumsum([g.n_eq // N for g in self.asset_groups])[:-1])

        # factor block: each distinct equation (parent mask, target) once, in pool
        # j, its parent count, from row factor_start[j] on.  Ordering o uses row
        # factor_eq[j, o] at position j, its second moments at factor_offsets[j].
        # The priors come from one OLS fit per parent mask, of all its targets.
        self.P_f = len(config.delta_grid) * len(config.kappa_f_grid)
        eqs = [[(sum(1 << i for i in p[:jj]), p[jj] + 1) for p in perms] for jj in range(K)]
        factor_eqs = [eq for pos in eqs for eq in sorted(set(pos))]
        self.factor_groups, self.factor_eqs = self._pools(
            *np.array(factor_eqs).T, config.kappa_f_grid,
            lambda rec: np.concatenate([_ols_residual_variance(self.X[:train, g[:, -1]],
                                                               self.X[:train, g[0, :-1]])
                                        for g in rec]))
        self.factor_start = np.cumsum([0] + [g.n_eq for g in self.factor_groups[:-1]])
        row = {eq: e for e, eq in enumerate(factor_eqs)}
        self.factor_eq = np.array([[row[eq] for eq in pos] for pos in eqs])
        self.factor_log_probs = np.full((len(factor_eqs), self.P_f), -np.log(self.P_f))
        self.factor_offsets = moment_offsets([
            rec[eq - st] for rec, eq, st in zip(self.factor_eqs, self.factor_eq, self.factor_start)])

        # per pool: the group, the x-columns of each group's row, each member's target
        self.pools = [(grp, rec[::grp.n_eq // grp.groups, :-1], rec[:, -1]) for grp, rec
                      in zip(self.asset_groups + self.factor_groups, self.asset_eqs + self.factor_eqs)]

    def _pools(self, masks, targets, kappas, prior_scales):
        """One PoolGroup per regression dimension d for the equations, given by
        parent count, that regress column targets[e] of z_t on the constant and
        the parents in bit mask masks[e], with its members' records (b, d + 1):
        regressor columns, then target, in Fortran order so that each column
        gathered through them is contiguous.  The members on one parent mask
        share a row, so they are one group: the masks come in consecutive blocks
        of equally many members.  ``prior_scales`` maps a pool's records by group,
        (groups, members, d + 1), to the s0 of its members in sequence."""
        in_x = ((masks[:, None] << 1 | 1) >> np.arange(self.K + 1)) & 1
        dims = in_x.sum(axis=1)
        groups, records = [], []
        for d in np.unique(dims):
            rows = np.flatnonzero(dims == d)
            cols = np.nonzero(in_x[rows])[1].reshape(-1, d)
            records.append(np.asfortranarray(np.column_stack((cols, targets[rows]))))
            n_groups = np.unique(masks[rows]).size
            groups.append(PoolGroup(int(d), rows.size, self.config.delta_grid, kappas,
                                    prior_scales(records[-1].reshape(n_groups, -1, d + 1)),
                                    groups=n_groups))
        return groups, records

    # ---- one step ----------------------------------------------------------

    def select(self):
        """Evolve, forget the filter's three tables in place (so once per date), and
        pick the specs of highest forgotten probability: (row of the (masks x P, N)
        asset table per asset, column of the (equations, P_f) factor table per
        equation).  The argmax is taken on the stored asset table, exact up to a
        per-asset constant, which it ignores; each asset's column is then shifted
        so that its selected entry is 0.  Only the orderings, ``recouple``'s
        mixture weights, are renormalized."""
        cfg = self.config
        for grp, *_ in self.pools:
            grp.evolve()
        self.factor_log_probs *= cfg.alpha
        sel_f = np.argmax(self.factor_log_probs, axis=1)
        self.ordering_log_probs *= cfg.alpha_ord
        _normalize(self.ordering_log_probs, axis=-1)
        lw = self.asset_log_weights
        lw *= cfg.alpha
        sel_assets = np.argmax(lw, axis=0)
        lw -= lw[sel_assets, self._assets]
        # the pools of a block share r = kappa n
        for block, grp, p_idx in (("factor", self.factor_groups[0], sel_f),
                                  ("asset", self.asset_groups[0], sel_assets % self.P_r)):
            if np.any(grp.r[p_idx] <= DOF_FLOOR):
                warnings.warn(f"{block} equation degrees of freedom at the floor", RuntimeWarning)
        return sel_assets, sel_f

    def recouple(self, selection):
        """Predictive (asset mean, B, idio, factor mean, factor cov) of a selection,
        mixed over the ``ordering_log_probs`` that ``select`` left; writes no state."""
        sel_assets, sel_f = selection
        a_sel, R_sel, r_sel, s_sel = zip(*(
            grp.selected(eq - st, sel_f[eq])
            for grp, eq, st in zip(self.factor_groups, self.factor_eq, self.factor_start)))
        S = recursive_factor_moments(self.factor_offsets, a_sel, R_sel, r_sel, s_sel)
        lam, sig = mixture_factor_moments(self.ordering_log_probs, S)
        mask_idx, p_idx = np.divmod(sel_assets, self.P_r)
        mean, B, idio = batched_asset_moments(self.asset_groups, self.asset_eqs,
                                              mask_idx * self.N + np.arange(self.N), p_idx, lam, sig)
        return mean, B, idio, lam, sig

    def update_step(self, t: int, selection) -> float:
        """Observe date t, update the states, and add the date's log densities to
        the three tables that ``select`` forgot: the factors' (equations, P_f) and
        the orderings, each renormalized in place over its specs, and the assets'
        (masks x P, N), left exact up to a per-asset constant.  Returns the
        asset-block log predictive density of the selected models."""
        sel_assets, sel_f = selection
        z = np.concatenate((self.X[t], self.R[t]))
        dens = []
        for grp, x_cols, targets in self.pools:
            f, q = grp.forecast(z[x_cols])
            dens.append(grp.log_densities(z[targets], f, q))
            grp.update()
        n_a = len(self.asset_groups)
        dens_f = np.concatenate(dens[n_a:])
        joint = dens_f[self.factor_eq, sel_f[self.factor_eq]].sum(axis=0)
        self.factor_log_probs += dens_f
        _normalize(self.factor_log_probs, axis=-1)
        self.ordering_log_probs += joint
        _normalize(self.ordering_log_probs, axis=-1)

        # a pool's densities (masks x N, P) fill its rows (masks x P, N)
        for block, d in zip(self._dens_blocks, dens[:n_a]):
            block[...] = d.T.reshape(self.P_r, -1, self.N).transpose(1, 0, 2)
        self.asset_log_weights += self._dens_a
        return float(self._dens_a[sel_assets, self._assets].sum())

    def asset_log_probs(self) -> np.ndarray:
        """The asset table normalized over its specs: a new (masks x P, N) array."""
        lp = self.asset_log_weights.copy()
        _normalize(lp, axis=0)
        return lp

    def inclusion(self) -> np.ndarray:
        """Posterior inclusion probability of each factor in each asset's
        parent set, (N, K), from the asset table normalized on read."""
        return (self.include_mask.T @ np.exp(self.asset_log_probs())).T


def _run_model(panel: ReturnPanel, config: RunConfig, collect_weights: bool):
    """Drive the filter over all dates.  A backtest (``collect_weights``) also gets
    weights, but no inclusion, ordering or factor-moment series (left None)."""
    flt = _DynamicFactorFilter(panel, config)
    train = flt.train_len
    T_eval = panel.T - train
    N, K = flt.N, flt.K
    lpd_series, asset_mean = np.zeros(T_eval), np.zeros((T_eval, N))
    if collect_weights:
        weights, cov = np.zeros((T_eval, N)), np.empty((N, N))
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
                    asset_covariance(B, sig, idio, out=cov)
                    mu = pf.momentum_signal(flt.R, t) if momentum else mean
                    weights[i] = _solve_weights(config, mu, cov,
                                                weights[i - 1] if i > 0 else None).w
            lpd_t = flt.update_step(t, selection)
            if i >= 0:
                lpd_series[i] = lpd_t
                if not collect_weights:
                    fac_mean[i], fac_cov[i], ord_lp[i] = lam, sig, flt.ordering_log_probs
                    inclusion[i] = flt.inclusion()
        except RiskcastError as exc:
            raise type(exc)(f"date {panel.dates[t]}: {exc}") from exc

    return StatsResult(
        lpd=float(lpd_series.sum()), acc=pf.hit_rate(asset_mean, flt.R[train:]),
        lpd_series=lpd_series, asset_mean=asset_mean, inclusion=inclusion,
        ordering_log_probs=ord_lp, factor_mean=fac_mean, factor_cov=fac_cov,
        orderings=[tuple(p) for p in flt.perms.tolist()], dates=panel.dates[train:],
        factors=flt.factor_names), weights, train


def _solve_weights(config: RunConfig, mean: np.ndarray, cov: np.ndarray,
                   start: np.ndarray | None) -> pf.WeightVector:
    """Weights for one date under the run's strategy; ``start`` (the previous
    date's weights of the same row) warm-starts the box solve."""
    bound, tau = config.box_bound, config.tau_periodic
    if config.strategy == "gmv":
        if bound is not None:
            return pf.constrained_weights(cov, bound, start=start)
        return pf.gmv_weights(cov)
    if bound is not None:
        return pf.constrained_weights(cov, bound, mean, tau, start=start)
    return pf.mvp_weights(mean, cov, tau)


def _gaussian_lpd(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    e = y - mean
    z, L = pf._solve_spd(cov, e)
    return float(-0.5 * (y.size * np.log(2.0 * np.pi)) - np.log(L.diagonal()).sum()
                 - 0.5 * e @ z)


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
            weights[i] = _solve_weights(config, mu, cov, weights[i - 1] if i > 0 else None).w
            lpd[i], means[i] = _gaussian_lpd(R[t], mu, cov), mu
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
