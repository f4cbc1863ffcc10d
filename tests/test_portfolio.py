"""Optimal weights, cost accounting, Sharpe/fee/hit-rate metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _oracles import bordered_box_weights, fee_bisection
from riskcast import _batch
from riskcast import portfolio as pf
from riskcast._batch import Covariance, FactorCovariance
from riskcast.errors import (DegeneracyError, InfeasibleError, NumericError,
                             ParameterError, ShapeError, WindowError)
from riskcast.portfolio import (KKT_TOL, apply_costs, constrained_weights, gmv_weights,
                                hit_rate, management_fee, momentum_signal,
                                mvp_weights, performance)


def kkt_equality_solve(cov, rows, vals):
    """Independent oracle: equality-constrained QP via one dense KKT solve."""
    n = cov.shape[0]
    E = np.vstack(rows)
    m = E.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = 2.0 * cov
    kkt[:n, n:] = E.T
    kkt[n:, :n] = E
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(n), vals]))
    return sol[:n]


def random_spd(n, rng, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


class TestMVP:
    def test_hand_case(self):
        w = mvp_weights(np.array([0.1, 0.0]), Covariance(np.eye(2)), 0.05)
        np.testing.assert_allclose(w.w, [0.5, 0.5], atol=1e-12)
        assert w.w @ np.array([0.1, 0.0]) == pytest.approx(0.05)

    def test_constraints_hold_and_match_kkt(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            cov = random_spd(n, rng)
            mu = rng.normal(size=n)
            tau = float(rng.normal(scale=0.1))
            w = mvp_weights(mu, Covariance(cov), tau).w
            assert w.sum() == pytest.approx(1.0, abs=1e-8)
            assert mu @ w == pytest.approx(tau, abs=1e-8)
            oracle = kkt_equality_solve(cov, [np.ones(n), mu], [1.0, tau])
            np.testing.assert_allclose(w, oracle, atol=1e-8)

    def test_collinear_mean_degenerates(self):
        with pytest.raises(DegeneracyError, match="minimum-variance"):
            mvp_weights(np.full(3, 0.2), Covariance(np.eye(3)), 0.1)


class TestGMV:
    def test_identity_cov_equal_weights(self):
        np.testing.assert_allclose(gmv_weights(Covariance(np.eye(4))).w, 0.25, atol=1e-14)

    def test_inverse_variance_oracle(self):
        w = gmv_weights(Covariance(np.diag([1.0, 4.0]))).w
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)

    def test_random_search_optimality(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            cov = random_spd(n, rng)
            w = gmv_weights(Covariance(cov)).w
            obj = w @ cov @ w
            v = rng.normal(size=(10_000, n))
            v /= v.sum(axis=1, keepdims=True)
            rand_obj = np.einsum("ki,ij,kj->k", v, cov, v)
            assert np.all(obj <= rand_obj + 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        cov = random_spd(5, rng)
        base = gmv_weights(Covariance(cov)).w
        for c in (1e-6, 3.0, 1e7):
            np.testing.assert_allclose(gmv_weights(Covariance(c * cov)).w, base, atol=1e-10)


LOADINGS = np.array([[1.0], [0.5]])
BAD_COVARIANCES = [
    (Covariance(np.array([[1.0, np.nan], [np.nan, 1.0]])), "not finite"),
    (Covariance(np.diag([1.0, np.inf])), "not finite"),
    (Covariance(np.array([[1.0, 2.0], [2.0, 1.0]])), "not positive definite"),
    (Covariance(np.diag([1.0, 0.0])), "not positive definite"),
    # the factor form, whose Woodbury solve divides by the idiosyncratic variances
    (FactorCovariance(np.array([[np.nan], [0.5]]), np.eye(1), np.ones(2)), "not finite"),
    (FactorCovariance(LOADINGS, np.eye(1), np.array([1.0, np.inf])), "not finite"),
    (FactorCovariance(LOADINGS, np.eye(1), np.array([1.0, 0.0])), "not positive definite"),
    (FactorCovariance(LOADINGS, np.eye(1), np.array([-1.0, 1.0])), "not positive definite"),
]


class TestCovarianceChecks:
    """A covariance that cannot be factored raises NumericError, which callers
    that catch RiskcastError can name, from both closed-form solvers and, for
    the dense matrices, from the box solve."""

    @pytest.mark.parametrize("cov, match", BAD_COVARIANCES)
    def test_gmv(self, cov, match):
        with pytest.raises(NumericError, match=match):
            gmv_weights(cov)

    @pytest.mark.parametrize("cov, match", BAD_COVARIANCES)
    def test_mvp(self, cov, match):
        with pytest.raises(NumericError, match=match):
            mvp_weights(np.array([0.1, 0.0]), cov, 0.05)

    @pytest.mark.parametrize("cov, match", BAD_COVARIANCES[:4])
    def test_constrained(self, cov, match):
        # (0.5, 0.5) is a stationary point of the indefinite matrix's variance,
        # but not a minimum: (0.8, 0.2) has 1.32 against its 1.5
        with pytest.raises(NumericError, match=match):
            constrained_weights(np.asarray(cov), 0.9)


class TestFactorCovariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_matches_the_dense_cholesky_solve(self, seed):
        # random shapes, N up to 120 and K up to 6, weekly-return scales, and
        # idiosyncratic variances over four orders of magnitude, with a singular
        # sig every other draw.  The Woodbury form subtracts D^-1 G (...) from
        # D^-1 rhs, so its gap to the dense solve grows like ||Sigma|| / min(idio);
        # over these 120 draws the worst gap is 1.8e-13 of the solution's scale.
        # logdet, inherited by the factor form, reads the dense factor; its worst
        # gap to LU's slogdet is 1.2e-15 of the value.
        rng = np.random.default_rng(seed)
        for draw in range(20):
            N, K = int(rng.integers(2, 121)), int(rng.integers(1, 7))
            B = rng.normal(size=(N, K))
            A = rng.normal(scale=0.02, size=(K, K))
            sig, idio = A @ A.T, 10.0 ** rng.uniform(-4.5, -0.5, N)
            if draw % 2:
                sig[-1] = sig[:, -1] = 0.0
            fc = FactorCovariance(B, sig, idio)
            cov = np.asarray(fc)
            for rhs in (np.ones(N), np.column_stack((np.ones(N), rng.normal(scale=0.01, size=N)))):
                x, ref = fc.solve(rhs), Covariance(cov).solve(rhs)
                assert x.shape == rhs.shape
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            sign, ref = np.linalg.slogdet(cov)
            assert sign == 1 and fc.logdet() == Covariance(cov).logdet()
            assert abs(fc.logdet() - ref) <= 1e-12 * abs(ref)

    def test_shape_is_checked_against_the_mean(self):
        fc = FactorCovariance(LOADINGS, np.eye(1), np.ones(2))
        with pytest.raises(ShapeError, match=r"expected \(3, 3\)"):
            mvp_weights(np.zeros(3), fc, 0.01)


class TestConstrained:
    def test_inactive_box_matches_closed_forms(self):
        rng = np.random.default_rng(3)
        cov = random_spd(4, rng)
        mu = rng.normal(size=4)
        unc = mvp_weights(mu, Covariance(cov), 0.05).w
        bound = np.abs(unc).max() * 2
        box = constrained_weights(cov, bound, mu, 0.05).w
        np.testing.assert_allclose(box, unc, atol=1e-8)
        unc_g = gmv_weights(Covariance(cov)).w
        box_g = constrained_weights(cov, np.abs(unc_g).max() * 2).w
        np.testing.assert_allclose(box_g, unc_g, atol=1e-8)

    def test_two_dim_clip_hand_solve(self):
        # unconstrained (100/101, 1/101): bound 0.6 forces (0.6, 0.4),
        # verified by dense grid search at 1e-4 resolution
        cov = np.diag([1.0, 100.0])
        w = constrained_weights(cov, 0.6).w
        np.testing.assert_allclose(w, [0.6, 0.4], atol=1e-10)
        grid = np.arange(-0.6, 0.6 + 1e-9, 1e-4)
        obj = grid ** 2 * 1.0 + (1 - grid) ** 2 * 100.0
        feasible = np.abs(1 - grid) <= 0.6 + 1e-12
        best = grid[feasible][np.argmin(obj[feasible])]
        assert abs(best - 0.6) < 2e-4

    def test_budget_infeasible(self):
        with pytest.raises(InfeasibleError, match="budget"):
            constrained_weights(np.eye(2), 0.4)

    def test_target_infeasible_reports_range(self):
        mu = np.array([0.01, 0.02])
        with pytest.raises(InfeasibleError, match="attainable range"):
            constrained_weights(np.eye(2), 0.6, mu, 10.0)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(4)
        for _ in range(4):
            n = int(rng.integers(3, 7))
            cov = random_spd(n, rng)
            bound = float(rng.uniform(1.2 / n, 0.9))
            w = constrained_weights(cov, bound).w
            assert np.all(np.abs(w) <= bound + 1e-10)
            obj = w @ cov @ w
            count = 0
            while count < 10_000:
                v = rng.uniform(-bound, bound, size=(20_000, n))
                v += (1.0 - v.sum(axis=1, keepdims=True)) / n
                ok = np.all(np.abs(v) <= bound, axis=1)
                v = v[ok]
                if v.size == 0:
                    continue
                rand_obj = np.einsum("ki,ij,kj->k", v, cov, v)
                assert np.all(obj <= rand_obj + 1e-12)
                count += v.shape[0]

    def test_case_that_made_the_index_order_rule_singular(self):
        # The unconstrained weights break the box on all three assets, and
        # adding violated bounds in index order fixed every weight, with the
        # budget row, into a singular KKT system.  On the face w_2 = 0.5 the
        # variance is 1.5^2 + 0.1 w_0^2 + w_1^2 + 0.025 with w_0 + w_1 = 0.5,
        # so w_0 = 10 w_1 = 5/11.
        cov = np.outer([2.0, 2.0, 1.0], [2.0, 2.0, 1.0]) + np.diag([0.1, 1.0, 0.1])
        w = constrained_weights(cov, 0.5).w
        np.testing.assert_allclose(w, [5 / 11, 1 / 22, 0.5], atol=1e-12)

    def test_constant_mean_with_target_degenerates(self):
        with pytest.raises(DegeneracyError, match="collinear"):
            constrained_weights(np.eye(3), 0.5, np.full(3, 0.2), 0.2)

    def test_start_is_validated(self):
        cov = np.eye(3)
        with pytest.raises(ParameterError, match="budget and the box"):
            constrained_weights(cov, 0.5, start=np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ParameterError, match="budget and the box"):
            constrained_weights(cov, 0.5, start=np.array([0.8, 0.1, 0.1]))


def box_kkt_holds(cov, bound, w, E):
    """Independent KKT test of a box solve: some multipliers nu of the rows
    of E make 2 cov w + E'nu vanish on the free weights (to rounding) and
    carry the right sign, within KKT_TOL, on the bound ones.  Found by a
    linear feasibility problem, so degenerate points are judged fairly."""
    g = 2.0 * cov @ w
    upper = w >= bound * (1 - 1e-12)
    lower = w <= -bound * (1 - 1e-12)
    free = ~(upper | lower)
    tol = 1e-9 * np.abs(2.0 * cov).max()
    A = np.vstack([E[:, free].T, -E[:, free].T, E[:, upper].T, -E[:, lower].T])
    b = np.concatenate([tol - g[free], tol + g[free], KKT_TOL - g[upper], KKT_TOL + g[lower]])
    res = linprog(np.zeros(E.shape[0]), A_ub=A, b_ub=b, bounds=[(None, None)] * E.shape[0])
    return res.status == 0


@st.composite
def box_problems(draw):
    """A factor-like covariance (so bounds bind), a box from 1/n to 1, and
    optionally a return target anywhere in the attainable range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    B = rng.normal(size=(n, 2))
    cov = B @ B.T + np.diag(rng.uniform(0.05, 1.0, n))
    bound = (1.0 + draw(st.floats(0.0, 1.0)) * (n - 1)) / n
    mean = target = None
    if draw(st.booleans()):
        mean = rng.normal(size=n)
        lo, hi = (float(mean @ x) for x in pf._box_extreme_points(mean, bound))
        target = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return rng, cov, bound, mean, target


class TestConstrainedProperties:
    @given(box_problems())
    @settings(max_examples=150, deadline=None)
    def test_cold_and_warm_starts_meet_kkt_and_agree(self, problem):
        rng, cov, bound, mean, target = problem
        n = cov.shape[0]
        E = np.ones((1, n)) if target is None else np.vstack([np.ones(n), mean])
        cold = constrained_weights(cov, bound, mean, target).w
        # starts: the solve of a nearby covariance, as on the previous date,
        # and a box vertex, where every weight but one sits at a bound
        nearby = cov + np.diag(rng.uniform(0.0, 0.2, n))
        starts = [constrained_weights(nearby, bound).w,
                  pf._box_extreme_points(rng.normal(size=n), bound)[1]]
        for w in [cold] + [constrained_weights(cov, bound, mean, target, start=s).w
                           for s in starts]:
            assert abs(w.sum() - 1.0) <= 1e-10
            assert np.abs(w).max() <= bound + 1e-12
            if target is not None:
                assert abs(mean @ w - target) <= 1e-10 * (1 + np.abs(mean).max())
            assert box_kkt_holds(cov, bound, w, E)
            np.testing.assert_allclose(w, cold, rtol=0, atol=1e-9)

    @given(box_problems())
    @settings(max_examples=150, deadline=None)
    def test_face_solve_matches_the_bordered_oracle(self, problem):
        # The same working set at every iteration, read off the order of each
        # iteration's system (m + |B| here, n - |B| + m in the oracle), the same
        # bounds at the end and the same weights, from one n x n factor per call.
        rng, cov, bound, mean, target = problem
        n = cov.shape[0]
        assume(bound * n > 1.0)
        m = 1 if target is None else 2
        vertex = pf._box_extreme_points(rng.normal(size=n), bound)[1]
        solve, cholesky = np.linalg.solve, _batch._cholesky
        orders, factored = [], []

        def counted_solve(a, b):
            orders.append(a.shape[0])
            return solve(a, b)

        def counted_cholesky(a):
            factored.append(a.shape)
            return cholesky(a)

        for start in (None, vertex):
            orders.clear()
            factored.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np.linalg, "solve", counted_solve)
                mp.setattr(_batch, "_cholesky", counted_cholesky)
                w = constrained_weights(cov, bound, mean, target, start=start).w
                bounds = [k - m for k in orders]
                orders.clear()
                ref = bordered_box_weights(cov, bound, mean, target, start=start)
            assert factored == [(n, n)]
            assert bounds == [n + m - k for k in orders]
            assert np.array_equal(np.abs(w) == bound, np.abs(ref) == bound)
            np.testing.assert_allclose(w, ref, rtol=0, atol=1e-12)

    @given(box_problems(), st.booleans(), st.floats(1e-6, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_unattainable_target_raises(self, problem, above, excess):
        rng, cov, bound, _, _ = problem
        n = cov.shape[0]
        mean = rng.normal(size=n)
        lo, hi = (float(mean @ x) for x in pf._box_extreme_points(mean, bound))
        target = hi + excess if above else lo - excess
        with pytest.raises(InfeasibleError, match="attainable range"):
            constrained_weights(cov, bound, mean, target)
        with pytest.raises(InfeasibleError, match="attainable range"):
            constrained_weights(cov, bound, mean, target, start=np.full(n, 1.0 / n))


class TestApplyCosts:
    def test_constant_weights_zero_returns(self):
        W = np.full((5, 2), 0.5)
        R = np.zeros((5, 2))
        gross, net, to = apply_costs(W, R, 10.0)
        np.testing.assert_array_equal(to, 0.0)
        np.testing.assert_array_equal(net, gross)

    def test_zero_cost_is_gross(self):
        rng = np.random.default_rng(5)
        W = rng.dirichlet(np.ones(3), size=6)
        R = rng.normal(scale=0.01, size=(6, 3))
        gross, net, _ = apply_costs(W, R, 0.0)
        np.testing.assert_array_equal(net, gross)

    def test_hand_turnover_cost(self):
        # 10% out of one asset into another at 5 bps: cost 0.0005 * 0.2
        W = np.array([[0.5, 0.5], [0.4, 0.6]])
        R = np.zeros((2, 2))
        _, net, to = apply_costs(W, R, 5.0)
        assert to[1] == pytest.approx(0.2)
        assert net[1] == pytest.approx(0.0 - 0.0005 * 0.2)

    def test_drift_adjustment(self):
        # equal weights, first asset doubles: drifted weights (2/3, 1/3)
        W = np.array([[0.5, 0.5], [0.5, 0.5]])
        R = np.array([[1.0, 0.0], [0.0, 0.0]])
        _, _, to = apply_costs(W, R, 0.0)
        assert to[1] == pytest.approx(abs(0.5 - 2 / 3) + abs(0.5 - 1 / 3))

    def test_first_period_excluded_by_default(self):
        W = np.array([[1.0, 0.0]])
        R = np.zeros((1, 2))
        _, _, to = apply_costs(W, R, 5.0)
        assert to[0] == 0.0

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_costs_monotone_in_tc(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.dirichlet(np.ones(4), size=8)
        R = rng.normal(scale=0.02, size=(8, 4))
        _, net1, _ = apply_costs(W, R, 1.0)
        _, net2, _ = apply_costs(W, R, 7.0)
        assert np.all(net1 >= net2)


class TestPerformance:
    def test_constant_series_has_undefined_sharpe(self):
        with pytest.raises(NumericError, match="Sharpe"):
            performance(np.full(10, 0.01))

    def test_alternating_zero_mean(self):
        stats = performance(np.array([0.01, -0.01] * 20))
        assert stats.mean == pytest.approx(0.0, abs=1e-15)
        assert stats.sharpe == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_annualization(self):
        rng = np.random.default_rng(6)
        mu, sd, T = 0.002, 0.02, 20_000
        x = rng.normal(mu, sd, size=T)
        stats = performance(x)
        assert abs(stats.mean - 52 * mu) < 3 * 52 * sd / np.sqrt(T)
        assert abs(stats.sd - np.sqrt(52) * sd) < 3 * np.sqrt(52) * sd / np.sqrt(2 * T)


class TestManagementFee:
    def test_identical_series_fee_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=0.01, size=100)
        assert management_fee(x, x, 10.0) == 0.0

    def test_gamma_to_zero_limit(self):
        rc = np.full(50, 0.002)
        rb = np.full(50, 0.001)
        phi = management_fee(rc, rb, 1e-9) / 52 / 1e4
        assert phi == pytest.approx(0.001, rel=1e-5)

    def test_bisection_oracle(self):
        rc = np.full(100, 0.002)
        rb = np.full(100, 0.001)
        phi = management_fee(rc, rb, 10.0) / 52 / 1e4
        oracle = fee_bisection(rc, rb, 10.0)
        assert phi == pytest.approx(oracle, abs=1e-12)

    def test_first_order_antisymmetry(self):
        rng = np.random.default_rng(8)
        base = rng.normal(0.001, 0.01, size=300)
        other = base + rng.normal(0, 1e-5, size=300)  # < 1 bp/week gap
        f1 = management_fee(base, other, 6.0)
        f2 = management_fee(other, base, 6.0)
        assert f1 == pytest.approx(-f2, rel=0.05, abs=1e-9)


class TestHitRate:
    def test_perfect(self):
        x = np.array([[0.1, -0.2], [0.3, -0.4]])
        assert hit_rate(x, x) == 100.0

    def test_inverted(self):
        x = np.array([[0.1, -0.2], [0.3, -0.4]])
        assert hit_rate(x, -x) == 0.0

    def test_random_signs_near_half(self):
        rng = np.random.default_rng(9)
        f = rng.choice([-1.0, 1.0], size=(100, 100))
        r = rng.choice([-1.0, 1.0], size=(100, 100))
        se = 100 * 0.5 / np.sqrt(f.size)
        assert abs(hit_rate(f, r) - 50.0) < 3 * se

    def test_zero_counts_negative(self):
        assert hit_rate(np.array([[0.0]]), np.array([[-0.1]])) == 100.0
        assert hit_rate(np.array([[0.0]]), np.array([[0.1]])) == 0.0


class TestMomentumSignal:
    def test_constant_returns(self):
        R = np.full((60, 3), 0.004)
        np.testing.assert_allclose(momentum_signal(R, 55), 0.004, atol=1e-15)

    def test_window_boundaries(self):
        # only rows outside [t-52, t-5] are nonzero: signal must be zero
        T, t = 80, 60
        R = np.zeros((T, 1))
        R[: t - 52] = 1.0
        R[t - 4:] = 1.0
        assert momentum_signal(R, t)[0] == 0.0

    def test_explicit_slice_mean(self):
        R = np.arange(53, dtype=float).reshape(-1, 1)
        # forecasting the final row uses rows 0..47
        assert momentum_signal(R, 52)[0] == pytest.approx(np.arange(48).mean())

    def test_insufficient_history(self):
        with pytest.raises(WindowError):
            momentum_signal(np.zeros((60, 1)), 51)
