"""Portfolio construction, cost accounting and performance evaluation.

Conventions, also echoed in report headers:
  - annual return targets convert to per-period targets as tau / periods_per_year;
  - the first period's entry cost is excluded from turnover;
  - a zero forecast counts as a negative sign in hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, InfeasibleError, NumericError,
                     ParameterError, ShapeError, WindowError)

BUDGET_TOL = 1e-10
KKT_TOL = 1e-8


@dataclass(frozen=True)
class WeightVector:
    """Budget-feasible portfolio weights for one period."""

    w: np.ndarray

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


def mvp_weights(mean: np.ndarray, cov, target: float) -> WeightVector:
    """Closed-form mean-variance weights hitting a per-period return target.

    w = ((C - tau B)/(AC - B^2)) Sigma^-1 1 + ((tau A - B)/(AC - B^2)) Sigma^-1 mu
    with A = 1'Sigma^-1 1, B = 1'Sigma^-1 mu, C = mu'Sigma^-1 mu, each Sigma^-1
    applied by ``solve`` of ``cov``, a ``_batch.Covariance`` in either form.
    """
    mean = np.asarray(mean, float)
    n = mean.size
    if cov.shape != (n, n):
        raise ShapeError(f"cov has shape {cov.shape}, expected ({n}, {n})")
    ones = np.ones(n)
    si_one, si_mu = cov.solve(np.column_stack((ones, mean))).T
    A = float(ones @ si_one)
    B = float(ones @ si_mu)
    C = float(mean @ si_mu)
    det = A * C - B * B
    if det <= 1e-12 * A * C:
        raise DegeneracyError(
            "mean vector is collinear with the budget direction; use the "
            "minimum-variance portfolio instead")
    w = ((C - target * B) / det) * si_one + ((target * A - B) / det) * si_mu
    return WeightVector(w)


def gmv_weights(cov) -> WeightVector:
    """Global minimum-variance weights: ``cov.solve`` of 1, normalized to the budget."""
    si_one = cov.solve(np.ones(cov.shape[0]))
    return WeightVector(si_one / si_one.sum())


def _box_extreme_points(mean: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights minimizing and maximizing mu'w over {w : 1'w = 1, |w_i| <= bound}.

    Greedy fractional assignment: every weight starts at -bound, and the
    1 + n*bound of budget left is handed out in order of the mean, up to
    2*bound per weight, so one weight at most ends between the bounds.
    """
    n = mean.size
    steps = np.clip(1.0 + n * bound - 2.0 * bound * np.arange(n), 0.0, 2.0 * bound)
    order = np.argsort(-mean, kind="stable")
    w_hi = np.full(n, -bound)
    w_hi[order] += steps
    w_lo = np.full(n, -bound)
    w_lo[order[::-1]] += steps
    return w_lo, w_hi


def _feasible_start(bound: float, start: np.ndarray | None, n: int,
                    mean: np.ndarray | None = None, target: float | None = None,
                    extremes: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """A point meeting the budget, the box and the return target.

    The given start, or equal weights, moved toward the extreme point
    (``extremes``, from ``_box_extreme_points``) on the side of the target
    until the target is met; both ends are feasible, and so is every point
    between them.
    """
    if start is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.array(start, float)
        if w.shape != (n,):
            raise ShapeError(f"start has shape {w.shape}, expected ({n},)")
        if (not np.all(np.isfinite(w)) or abs(w.sum() - 1.0) > BUDGET_TOL
                or np.abs(w).max() > bound + BUDGET_TOL):
            raise ParameterError("start must meet the budget and the box")
    if target is not None:
        w_lo, w_hi = extremes
        gap = target - float(mean @ w)
        end = w_hi if gap > 0 else w_lo
        span = float(mean @ end) - float(mean @ w)
        if span != 0.0:
            w += min(max(gap / span, 0.0), 1.0) * (end - w)
    return np.clip(w, -bound, bound)


def constrained_weights(cov: np.ndarray, bound: float, mean: np.ndarray | None = None,
                        target: float | None = None, start: np.ndarray | None = None
                        ) -> WeightVector:
    """Minimum-variance weights under a symmetric box |w_i| <= bound.

    Solves min w'Sigma w subject to 1'w = 1, optionally mu'w = target, and the
    box, by a primal active-set method.  The iterate stays feasible: it starts
    at ``start`` (typically the previous date's weights) or at equal weights,
    moved toward a box vertex when a return target must be met.  Each
    iteration holds the working set of bounds fixed and solves the bordered
    KKT system of the free weights for the minimizer on that face.  If a free
    weight would leave the box on the way, the step stops at the first bound
    it meets (the ratio test) and that bound joins the working set.  Otherwise
    the minimizer is taken, and the bound whose multiplier is most
    wrong-signed, beyond ``KKT_TOL``, leaves the working set; when none is,
    the minimizer is optimal.  A blocking bound's weight moved along a
    direction that every working constraint holds fixed, so its row is never
    a combination of theirs: the working set stays linearly independent and
    the KKT system nonsingular.
    """
    cov = np.asarray(cov, float)
    n = cov.shape[0]
    if bound <= 0:
        raise ParameterError(f"bound must be > 0, got {bound}")
    if bound * n < 1.0 - BUDGET_TOL:
        raise InfeasibleError(
            f"budget infeasible: n*bound = {n * bound:.6g} < 1 (all {n} weights at +{bound})")
    E = np.ones((1, n))
    vals = np.ones(1)
    extremes = None
    if target is not None:
        if mean is None:
            raise ParameterError("a return target requires a mean vector")
        mean = np.asarray(mean, float)
        extremes = _box_extreme_points(mean, bound)
        lo, hi = (float(mean @ x) for x in extremes)
        if not lo - 1e-12 <= target <= hi + 1e-12:
            raise InfeasibleError(
                f"return target {target:.6g} outside the attainable range "
                f"[{lo:.6g}, {hi:.6g}] under the box; binding set: every weight at +/-{bound}")
        if np.all(mean == mean[0]):
            raise DegeneracyError("mean vector is collinear with the budget direction")
        E = np.vstack([E, mean])
        vals = np.array([1.0, float(target)])
    if bound * n <= 1.0:
        # equal weights are the only point in the box that meets the budget
        return WeightVector(np.full(n, 1.0 / n))

    w = _feasible_start(bound, start, n, mean, target, extremes)
    fixed = np.abs(w) >= bound * (1.0 - 1e-12)
    w[fixed] = np.copysign(bound, w[fixed])
    # the free weights must leave the equality rows independent
    for i in np.flatnonzero(fixed)[::-1]:
        free = ~fixed
        if free.any() and (target is None or np.ptp(mean[free]) > 0):
            break
        fixed[i] = False

    m = E.shape[0]
    for _ in range(4 * n + 16):
        F = np.flatnonzero(~fixed)
        B = np.flatnonzero(fixed)
        k = F.size
        kkt = np.zeros((k + m, k + m))
        kkt[:k, :k] = 2.0 * cov[np.ix_(F, F)]
        kkt[:k, k:] = E[:, F].T
        kkt[k:, :k] = E[:, F]
        rhs = np.concatenate([-2.0 * cov[np.ix_(F, B)] @ w[B], vals - E[:, B] @ w[B]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise NumericError("singular KKT system in the active-set solve") from None
        if k > m:
            w_face = sol[:k]
            outside = np.abs(w_face) > bound + 1e-12
            if outside.any():
                # ratio test: stop at the first bound a free weight meets
                p = w_face - w[F]
                edge = np.copysign(bound, p)
                steps = np.full(k, np.inf)
                steps[outside] = (edge[outside] - w[F][outside]) / p[outside]
                j = int(np.argmin(steps))
                w[F] += steps[j] * p
                w[F[j]] = edge[j]
                fixed[F[j]] = True
                continue
            w[F] = np.clip(w_face, -bound, bound)
        # With k == m the face is the one point w, and the solve gives only its
        # multipliers.  Those of the bounds, signed so that >= 0 is right:
        mult = -(2.0 * cov[B] @ w + E[:, B].T @ sol[k:]) * np.sign(w[B])
        if B.size == 0 or mult.min() >= -KKT_TOL:
            if np.max(np.abs(E @ w - vals)) > 1e-10:
                raise NumericError("active-set solution violates equality constraints")
            return WeightVector(w)
        fixed[B[int(np.argmin(mult))]] = False
    raise NumericError("active-set iteration did not converge")


def apply_costs(weights: np.ndarray, asset_returns: np.ndarray,
                tc_bps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gross returns, net returns and turnover for a weight history.

    ``weights[t]`` is held over period t and earns ``asset_returns[t]``.
    Turnover compares new weights with the previous weights drifted by the
    previous period's realized returns; costs of tc_bps basis points per unit
    of turnover are deducted ex post.  The first period's entry turnover is
    excluded.
    """
    W = np.asarray(weights, float)
    R = np.asarray(asset_returns, float)
    if W.shape != R.shape:
        raise ShapeError(f"weights {W.shape} and returns {R.shape} must align")
    T = W.shape[0]
    gross = np.einsum("ti,ti->t", W, R)
    turnover = np.zeros(T)
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
