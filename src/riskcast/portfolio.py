"""Portfolio construction, cost accounting and performance evaluation.

Conventions, also echoed in report headers:
  - annual return targets convert to per-period targets as tau / periods_per_year;
  - first-period entry cost is excluded from turnover (configurable);
  - a zero forecast counts as a negative sign in hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (DegeneracyError, InfeasibleError, NumericError,
                     ParameterError, ShapeError, WindowError)

BUDGET_TOL = 1e-10
KKT_TOL = 1e-8


@dataclass(frozen=True)
class WeightVector:
    """Budget-feasible portfolio weights for one period."""

    w: np.ndarray
    date: str = ""

    def __post_init__(self):
        w = np.asarray(self.w, float)
        object.__setattr__(self, "w", w)
        if not np.all(np.isfinite(w)):
            raise NumericError("weights must be finite")
        if abs(w.sum() - 1.0) > BUDGET_TOL:
            raise NumericError(f"weights sum to {w.sum()}, not 1")


@dataclass(frozen=True)
class PerformanceStats:
    mean: float
    sd: float
    sharpe: float


@dataclass
class TCResult:
    """Metrics of one model under one transaction-cost assumption."""

    tc_bps: float
    net: np.ndarray
    mean: float
    sd: float
    sharpe: float
    fees_bps: dict[float, float] = field(default_factory=dict)   # gamma -> annualized bps


@dataclass
class ModelRow:
    """One backtested model: turnover, statistical scores, per-TC metrics."""

    name: str
    turnover: np.ndarray
    gross: np.ndarray
    per_tc: list[TCResult]
    lpd: float | None = None
    acc: float | None = None

    @property
    def mean_turnover(self) -> float:
        return float(self.turnover.mean())


@dataclass
class BacktestReport:
    """Full backtest output: evaluation dates, provenance header, model rows."""

    dates: tuple[str, ...]
    header: dict
    rows: list[ModelRow]


def _solve_spd(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return cho_solve(cho_factor(cov, lower=True), rhs)
    except np.linalg.LinAlgError:
        raise NumericError("covariance matrix is not positive definite") from None


def mvp_weights(mean: np.ndarray, cov: np.ndarray, target: float, date: str = "") -> WeightVector:
    """Closed-form mean-variance weights hitting a per-period return target.

    w = ((C - tau B)/(AC - B^2)) Sigma^-1 1 + ((tau A - B)/(AC - B^2)) Sigma^-1 mu
    with A = 1'Sigma^-1 1, B = 1'Sigma^-1 mu, C = mu'Sigma^-1 mu.
    """
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    n = mean.size
    if cov.shape != (n, n):
        raise ShapeError(f"cov has shape {cov.shape}, expected ({n}, {n})")
    ones = np.ones(n)
    si_one, si_mu = _solve_spd(cov, np.column_stack((ones, mean))).T
    A = float(ones @ si_one)
    B = float(ones @ si_mu)
    C = float(mean @ si_mu)
    det = A * C - B * B
    if det <= 1e-12 * A * C:
        raise DegeneracyError(
            "mean vector is collinear with the budget direction; use the "
            "minimum-variance portfolio instead")
    w = ((C - target * B) / det) * si_one + ((target * A - B) / det) * si_mu
    return WeightVector(w, date)


def gmv_weights(cov: np.ndarray, date: str = "") -> WeightVector:
    """Global minimum-variance weights: Sigma^-1 1 normalized to the budget."""
    cov = np.asarray(cov, float)
    si_one = _solve_spd(cov, np.ones(cov.shape[0]))
    return WeightVector(si_one / si_one.sum(), date)


def _box_extremes(mean: np.ndarray, bound: float) -> tuple[float, float]:
    """Attainable range of mu'w over {w : 1'w = 1, |w_i| <= bound}.

    Greedy fractional assignment: saturate the bound in order of the mean,
    leaving one fractional coordinate to meet the budget.
    """
    n = mean.size
    lo_w = np.full(n, -bound)
    budget = 1.0 - lo_w.sum()          # mass to distribute, each coord takes <= 2*bound
    order = np.argsort(-mean, kind="stable")
    w = lo_w.copy()
    remaining = budget
    for i in order:
        step = min(2.0 * bound, remaining)
        w[i] += step
        remaining -= step
        if remaining <= 0:
            break
    hi = float(mean @ w)
    w = lo_w.copy()
    remaining = budget
    for i in order[::-1]:
        step = min(2.0 * bound, remaining)
        w[i] += step
        remaining -= step
        if remaining <= 0:
            break
    lo = float(mean @ w)
    return lo, hi


def constrained_weights(cov: np.ndarray, bound: float, mean: np.ndarray | None = None,
                        target: float | None = None, date: str = "",
                        max_iter: int | None = None) -> WeightVector:
    """Minimum-variance weights under a symmetric box |w_i| <= bound.

    Solves min w'Sigma w subject to 1'w = 1, optionally mu'w = target, and the
    box, by an active-set iteration on the KKT system.  Bounds are added in
    index order when violated and dropped when their multiplier has the wrong
    sign, so the path is deterministic.
    """
    cov = np.asarray(cov, float)
    n = cov.shape[0]
    if bound <= 0:
        raise ParameterError(f"bound must be > 0, got {bound}")
    if bound * n < 1.0 - BUDGET_TOL:
        raise InfeasibleError(
            f"budget infeasible: n*bound = {n * bound:.6g} < 1 (all {n} weights at +{bound})")
    eq_rows = [np.ones(n)]
    eq_vals = [1.0]
    if target is not None:
        if mean is None:
            raise ParameterError("a return target requires a mean vector")
        mean = np.asarray(mean, float)
        lo, hi = _box_extremes(mean, bound)
        if not lo - 1e-12 <= target <= hi + 1e-12:
            raise InfeasibleError(
                f"return target {target:.6g} outside the attainable range "
                f"[{lo:.6g}, {hi:.6g}] under the box; binding set: every weight at +/-{bound}")
        eq_rows.append(mean)
        eq_vals.append(float(target))

    active: dict[int, float] = {}      # index -> fixed sign (+1 upper, -1 lower)
    if max_iter is None:
        max_iter = 4 * n + 16
    for _ in range(max_iter):
        rows = eq_rows + [np.eye(n)[i] for i in sorted(active)]
        vals = eq_vals + [active[i] * bound for i in sorted(active)]
        E = np.vstack(rows)
        m = E.shape[0]
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = 2.0 * cov
        kkt[:n, n:] = E.T
        kkt[n:, :n] = E
        rhs = np.concatenate([np.zeros(n), vals])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise NumericError("singular KKT system in the active-set solve") from None
        w = sol[:n]
        mult = sol[n + len(eq_rows):]
        # add the lowest-index violated bound
        viol = np.flatnonzero(np.abs(w) > bound + 1e-12)
        viol = [i for i in viol if i not in active]
        if viol:
            i = int(viol[0])
            active[i] = 1.0 if w[i] > 0 else -1.0
            continue
        # drop the lowest-index active bound with a wrong-sign multiplier
        dropped = False
        for pos, i in enumerate(sorted(active)):
            if active[i] * mult[pos] < -KKT_TOL:
                del active[i]
                dropped = True
                break
        if not dropped:
            residual = E @ w - np.asarray(vals)
            if np.max(np.abs(residual)) > 1e-10:
                raise NumericError("active-set solution violates equality constraints")
            return WeightVector(w, date)
    raise NumericError("active-set iteration did not converge")


def apply_costs(weights: np.ndarray, asset_returns: np.ndarray, tc_bps: float,
                include_entry_cost: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gross returns, net returns and turnover for a weight history.

    ``weights[t]`` is held over period t and earns ``asset_returns[t]``.
    Turnover compares new weights with the previous weights drifted by the
    previous period's realized returns; costs of tc_bps basis points per unit
    of turnover are deducted ex post.  The first period's entry turnover is
    excluded unless ``include_entry_cost``.
    """
    W = np.asarray(weights, float)
    R = np.asarray(asset_returns, float)
    if W.shape != R.shape:
        raise ShapeError(f"weights {W.shape} and returns {R.shape} must align")
    T = W.shape[0]
    gross = np.einsum("ti,ti->t", W, R)
    turnover = np.zeros(T)
    if include_entry_cost and T > 0:
        turnover[0] = np.abs(W[0]).sum()
    for t in range(1, T):
        drifted = W[t - 1] * (1.0 + R[t - 1])
        scale = drifted.sum()
        if abs(scale) < 1e-12:
            raise NumericError(f"portfolio value hit zero at period {t - 1}")
        turnover[t] = np.abs(W[t] - drifted / scale).sum()
    net = gross - (tc_bps / 1e4) * turnover
    return gross, net, turnover


def performance(net: np.ndarray, periods_per_year: int = 52) -> PerformanceStats:
    """Annualized mean, standard deviation and Sharpe ratio of a return series."""
    net = np.asarray(net, float)
    if net.size < 2:
        raise ParameterError("need at least two return observations")
    mean = periods_per_year * float(net.mean())
    sd = float(np.sqrt(periods_per_year) * net.std(ddof=1))
    if sd == 0.0 or np.all(net == net[0]):
        raise NumericError("zero return variance: Sharpe ratio undefined")
    return PerformanceStats(mean, sd, mean / sd)


def management_fee(candidate_net: np.ndarray, benchmark_net: np.ndarray, gamma: float,
                   periods_per_year: int = 52) -> float:
    """Annualized fee (bps) equating quadratic-utility averages of two strategies.

    Solves sum[(Rc - phi) - c (Rc - phi)^2] = sum[Rb - c Rb^2] for the
    per-period fee phi, with c = gamma / (2 (1 + gamma)).  The quadratic in
    phi has two roots; the one with smaller magnitude is the economically
    meaningful fee.
    """
    rc = np.asarray(candidate_net, float)
    rb = np.asarray(benchmark_net, float)
    if rc.shape != rb.shape:
        raise ShapeError("candidate and benchmark series must have equal length")
    if gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    c = gamma / (2.0 * (1.0 + gamma))
    T = rc.size
    gap = (rc.sum() - c * (rc ** 2).sum()) - (rb.sum() - c * (rb ** 2).sum())
    # c*T*phi^2 + (T - 2c*sum(rc))*phi - gap = 0
    a = c * T
    b = T - 2.0 * c * rc.sum()
    disc = b * b + 4.0 * a * gap
    if disc < 0:
        raise NumericError(
            f"utility gap exceeds the attainable range (discriminant {disc:.6g})")
    if gap == 0.0:
        return 0.0
    # numerically stable quadratic roots: the subtractive one via the product
    # of roots, avoiding cancellation when a is tiny
    root = np.sqrt(disc)
    qq = -(b + np.copysign(root, b)) / 2.0
    candidates = [qq / a, -gap / qq]
    phi = min(candidates, key=abs)
    return float(periods_per_year * phi * 1e4)


def hit_rate(forecast_means: np.ndarray, realized: np.ndarray) -> float:
    """Percent of entries whose forecast sign matches the realized sign.

    sign(x) is +1 for x > 0 and -1 otherwise (zero counts as negative).
    """
    f = np.asarray(forecast_means, float)
    r = np.asarray(realized, float)
    if f.shape != r.shape:
        raise ShapeError("forecasts and realizations must align")
    sf = np.where(f > 0, 1.0, -1.0)
    sr = np.where(r > 0, 1.0, -1.0)
    return float(100.0 * np.mean(sf == sr))


def momentum_signal(returns: np.ndarray, t: int) -> np.ndarray:
    """Trailing-year mean return skipping the most recent four periods.

    For a forecast at period t (0-based), averages rows t-52 .. t-5 per asset.
    """
    R = np.asarray(returns, float)
    if t < 52:
        raise WindowError(f"momentum needs 52 periods of history, have {t}")
    return R[t - 52:t - 4].mean(axis=0)
