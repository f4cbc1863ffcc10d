"""Output checks made apart from the program.

Every check recomputes its reference from the generating parameters or from
the report's own primitive series; none compares against stored output.
Each returns a list of failure messages, empty when the check passes.
"""

from __future__ import annotations

import math

import numpy as np

MODEL_ROW = "dfs-dlm"
LOG_2PI = math.log(2.0 * math.pi)
# constrained_weights stops once no active bound's multiplier is wrong-signed
# by more than 1e-8 (riskcast.portfolio.KKT_TOL); in units of g = 2 cov w that
# is how far past the budget multiplier a bound coordinate's g may lie.
BOUND_SIGN_TOL = 1e-8


# ---- densities against the generating-parameter oracle ----------------------

def oracle_conditional_lpd(gen, train: int) -> float:
    """sum_{t >= train} sum_i log N(r_it; B_it f_t, sigma_i^2).

    This is the density the model's LPD estimates: each asset equation is
    scored given the same date's realized factors.
    """
    R, F, B, var = gen.R[train:], gen.F[train:], gen.loadings[train:], gen.idio_var
    resid = R - np.einsum("tnk,tk->tn", B, F)
    return math.fsum((-0.5 * (LOG_2PI + np.log(var) + resid ** 2 / var)).ravel())


def oracle_joint_lpd(gen, train: int) -> float:
    """sum_{t >= train} log N(r_t; 0, B_t Sigma_f B_t' + D), the true predictive."""
    total = []
    for r, B in zip(gen.R[train:], gen.loadings[train:]):
        cov = B @ gen.factor_cov @ B.T + np.diag(gen.idio_var)
        L = np.linalg.cholesky(cov)
        z = np.linalg.solve(L, r)
        total.append(-0.5 * r.size * LOG_2PI - np.log(np.diag(L)).sum() - 0.5 * z @ z)
    return math.fsum(total)


def check_lpds(report, gen, train: int, gap_per_obs: float) -> list[str]:
    """The model's LPD lies under the conditional oracle, within ``gap_per_obs``
    nats per asset and date; each comparison model's LPD lies under the
    joint oracle."""
    errors = []
    n_obs = gen.R[train:].size
    rows = {row.name: row for row in report.rows}
    model = rows[MODEL_ROW].lpd
    cond = oracle_conditional_lpd(gen, train)
    if not model < cond:
        errors.append(f"model LPD {model:.3f} is not below the oracle {cond:.3f}")
    elif cond - model > gap_per_obs * n_obs:
        errors.append(f"model LPD {model:.3f} falls {(cond - model) / n_obs:.4f} nats per "
                      f"observation short of the oracle {cond:.3f}; tolerance {gap_per_obs}")
    others = [row for row in report.rows if row.name != MODEL_ROW and row.lpd is not None]
    if others:
        joint = oracle_joint_lpd(gen, train)
        for row in others:
            if not row.lpd < joint:
                errors.append(f"{row.name} LPD {row.lpd:.3f} is not below the joint "
                              f"oracle {joint:.3f}")
    return errors


# ---- accounting recomputed from gross and turnover --------------------------

def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def utility_gap(rc: np.ndarray, rb: np.ndarray, phi: float, gamma: float) -> tuple[float, float]:
    """Residual of sum[(rc-phi) - c(rc-phi)^2] = sum[rb - c rb^2] and its scale."""
    c = gamma / (2.0 * (1.0 + gamma))
    x = rc - phi
    lhs = math.fsum(x) - c * math.fsum(x * x)
    rhs = math.fsum(rb) - c * math.fsum(rb * rb)
    scale = math.fsum(np.abs(x)) + math.fsum(np.abs(rb))
    return lhs - rhs, scale


def check_accounting(report, config) -> list[str]:
    """Net, mean, sd and Sharpe recomputed from gross and turnover; each fee
    must solve its quadratic-utility equation against the reference row."""
    errors = []
    ppy = config.periods_per_year
    T = len(report.dates)
    rows = {row.name: row for row in report.rows}
    ref = rows.get(config.fee_reference)
    for row in report.rows:
        if row.gross.shape != (T,) or row.turnover.shape != (T,):
            errors.append(f"{row.name}: gross/turnover do not span the {T} evaluation dates")
            continue
        if [tc.tc_bps for tc in row.per_tc] != list(config.tc_bps):
            errors.append(f"{row.name}: cost levels {[tc.tc_bps for tc in row.per_tc]}")
            continue
        for k, tc in enumerate(row.per_tc):
            label = f"{row.name} at {tc.tc_bps:g} bps"
            net = row.gross - tc.tc_bps * 1e-4 * row.turnover
            if not np.allclose(tc.net, net, rtol=1e-12, atol=1e-15):
                errors.append(f"{label}: net != gross - cost * turnover")
                continue
            mu = math.fsum(net) / T
            mean = ppy * mu
            sd = math.sqrt(ppy * math.fsum((net - mu) ** 2) / (T - 1))
            for what, got, want in (("mean", tc.mean, mean), ("sd", tc.sd, sd),
                                    ("sharpe", tc.sharpe, mean / sd)):
                if not _close(got, want):
                    errors.append(f"{label}: {what} {got!r}, recomputed {want!r}")
            if ref is None:
                if tc.fees_bps:
                    errors.append(f"{label}: fees reported without a reference row")
                continue
            if sorted(tc.fees_bps) != sorted(config.gamma):
                errors.append(f"{label}: fees for risk aversions {sorted(tc.fees_bps)}")
                continue
            base = ref.per_tc[k].net
            for gamma, fee in tc.fees_bps.items():
                res, scale = utility_gap(tc.net, base, fee / (ppy * 1e4), gamma)
                if abs(res) > 1e-10 * scale + 1e-15:
                    errors.append(f"{label}: fee {fee!r} bps at gamma {gamma:g} leaves a "
                                  f"utility gap of {res:.3g}")
    return errors


# ---- weight solves against an independent KKT solve -------------------------

def _bordered_solve(cov: np.ndarray, rows: np.ndarray, vals: np.ndarray,
                    shift: np.ndarray | None = None) -> np.ndarray:
    """Solve min w' cov w + 2 w' shift subject to rows @ w = vals, via the
    bordered (KKT) system by LU.  Returns w."""
    n, m = cov.shape[0], rows.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = 2.0 * cov
    kkt[:n, n:] = rows.T
    kkt[n:, :n] = rows
    rhs = np.concatenate([-2.0 * shift if shift is not None else np.zeros(n), vals])
    return np.linalg.solve(kkt, rhs)[:n]


def _variance_not_above(w: np.ndarray, w_ref: np.ndarray, cov: np.ndarray) -> bool:
    v, v_ref = float(w @ cov @ w), float(w_ref @ cov @ w_ref)
    return v <= v_ref + 1e-9 * abs(v_ref) + 1e-18


def check_weight_solve(kind: str, args: tuple, kwargs: dict, w: np.ndarray) -> list[str]:
    """Budget, box and optimality of one weight solve.

    ``kind`` is the solver's span name, ``args``/``kwargs`` the arguments it
    was called with and ``w`` its result.  Optimality is certified two ways:
    the stationarity conditions of the Lagrangian hold at ``w``, and ``w``
    has no more variance than the independent bordered-KKT solution on the
    same active set.
    """
    name = kind.split(".")[-1]
    errors = []
    if abs(math.fsum(w) - 1.0) > 1e-10:
        errors.append(f"{name}: weights sum to {math.fsum(w)!r}")
    if name == "gmv_weights":
        (cov,) = args
        n = cov.shape[0]
        w_ref = _bordered_solve(cov, np.ones((1, n)), np.ones(1))
        basis = np.ones((n, 1))
    elif name == "mvp_weights":
        mean, cov, target = args
        n = cov.shape[0]
        if abs(float(mean @ w) - target) > 1e-9 * (abs(target) + np.abs(mean).max()):
            errors.append(f"{name}: expected return {float(mean @ w)!r}, target {target!r}")
        w_ref = _bordered_solve(cov, np.vstack([np.ones(n), mean]), np.array([1.0, target]))
        basis = np.column_stack([np.ones(n), mean])
    elif name == "constrained_weights":
        cov, bound = args[:2]
        if len(args) > 2 or kwargs.get("mean") is not None:
            return errors + [f"{name}: only the budget-and-box problem is checked"]
        return errors + _check_box_gmv(cov, bound, w)
    else:
        return errors + [f"unknown solver {kind!r}"]
    # stationarity: 2 cov w lies in the span of the equality-constraint rows
    g = 2.0 * cov @ w
    lam, *_ = np.linalg.lstsq(basis, g, rcond=None)
    resid = np.abs(g - basis @ lam).max()
    if resid > 1e-8 * np.abs(2.0 * cov).max() * np.abs(w).sum():
        errors.append(f"{name}: stationarity residual {resid:.3g}")
    if not _variance_not_above(w, w_ref, cov):
        errors.append(f"{name}: variance {float(w @ cov @ w)!r} above the independent "
                      f"solution's {float(w_ref @ cov @ w_ref)!r}")
    return errors


def _check_box_gmv(cov: np.ndarray, bound: float, w: np.ndarray) -> list[str]:
    """min w' cov w s.t. 1'w = 1, |w_i| <= bound.

    With g = 2 cov w, optimality needs a multiplier lam with g_i = lam on
    free coordinates, g_i <= lam at the upper bound and g_i >= lam at the
    lower bound.  Free coordinates must meet their condition to rounding;
    bound ones to ``BOUND_SIGN_TOL`` more, the wrong-sign multiplier the
    active-set solver keeps a bound with.  The free coordinates are then
    re-solved with the bound ones fixed, by an independent bordered-KKT solve.
    """
    name = "constrained_weights"
    errors = []
    tol_w = 1e-9 * bound
    if np.abs(w).max() > bound + 1e-12:
        errors.append(f"{name}: weight {np.abs(w).max()!r} outside the box {bound!r}")
    upper = w >= bound - tol_w
    lower = w <= -bound + tol_w
    free = ~(upper | lower)
    g = 2.0 * cov @ w
    tol_g = 1e-8 * np.abs(2.0 * cov).max() * np.abs(w).sum()
    lam_lo = max(g[free].max(initial=-np.inf),
                 g[upper].max(initial=-np.inf) - BOUND_SIGN_TOL)
    lam_hi = min(g[free].min(initial=np.inf),
                 g[lower].min(initial=np.inf) + BOUND_SIGN_TOL)
    if lam_lo > lam_hi + tol_g:
        errors.append(f"{name}: no multiplier satisfies the KKT conditions "
                      f"(needs {lam_lo:.9g} <= {lam_hi:.9g})")
    if free.any():
        fixed = ~free
        w_ref = w.copy()
        w_ref[free] = _bordered_solve(cov[np.ix_(free, free)], np.ones((1, free.sum())),
                                      np.array([1.0 - w[fixed].sum()]),
                                      cov[np.ix_(free, fixed)] @ w[fixed])
        if not _variance_not_above(w, w_ref, cov):
            errors.append(f"{name}: variance {float(w @ cov @ w)!r} above the independent "
                          f"solution's {float(w_ref @ cov @ w_ref)!r}")
    return errors


# ---- bit-identity -------------------------------------------------------------

def fingerprint(report) -> list:
    """Every number in a report, as exact bytes, for bit-identity comparison."""
    out = [tuple(report.dates), repr(sorted(report.header.items()))]
    for row in report.rows:
        out += [row.name, row.turnover.tobytes(), row.gross.tobytes(), repr(row.lpd),
                repr(row.acc)]
        for tc in row.per_tc:
            out += [repr(tc.tc_bps), tc.net.tobytes(), repr((tc.mean, tc.sd, tc.sharpe)),
                    repr(sorted(tc.fees_bps.items()))]
    return out
