"""Reference covariance estimators."""

import numpy as np
import pytest

from riskcast import dlm, recouple
from riskcast.benchmarks import (FactorWishartDLM, WishartDLMState, efm_cov, ewma_cov,
                                 initial_wishart_state, lw_shrinkage, wishart_dlm_step)
from test_engine import small_panel

from riskcast.data import ReturnPanel
from riskcast.engine import RunConfig, run_backtest
from riskcast.errors import MomentError, NumericError, ParameterError


class TestEWMA:
    def test_zero_observation_decays(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = ewma_cov(S, np.zeros(2), 0.97)
        np.testing.assert_allclose(out, 0.97 * S, atol=1e-15)

    def test_rank_one_from_zero(self):
        y = np.array([1.0, 2.0])
        out = ewma_cov(np.zeros((2, 2)), y, 0.9)
        np.testing.assert_allclose(out, 0.1 * np.outer(y, y), atol=1e-15)
        assert np.linalg.matrix_rank(out) == 1

    def test_three_step_scalar_recursion(self):
        # hand-unrolled: s1 = .03*1, s2 = .03*4 + .97*s1, s3 = .97*s2
        s = np.zeros((1, 1))
        for y in (1.0, 2.0, 0.0):
            s = ewma_cov(s, np.array([y]), 0.97)
        expected = 0.97 * (0.03 * 4.0 + 0.97 * 0.03)
        assert s[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_decay_range(self):
        with pytest.raises(ParameterError):
            ewma_cov(np.eye(1), np.zeros(1), 1.0)

    def test_long_run_scale_matches_truth(self):
        # Monte-Carlo: for i.i.d. y with covariance V the recursion is an
        # unbiased moving estimate of V
        rng = np.random.default_rng(0)
        V = np.array([[1.0, 0.3], [0.3, 2.0]])
        L = np.linalg.cholesky(V)
        s = V.copy()
        draws = rng.standard_normal((4000, 2)) @ L.T
        out = np.zeros_like(V)
        for t, y in enumerate(draws):
            s = ewma_cov(s, y, 0.97)
            if t >= 200:
                out += s
        out /= 4000 - 200
        np.testing.assert_allclose(out, V, atol=0.15)


class TestLedoitWolf:
    def test_diagonal_preserved_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        sigma = lw_shrinkage(X)
        Xc = X - X.mean(axis=0)
        sample_var = (Xc ** 2).mean(axis=0)
        np.testing.assert_allclose(np.diag(sigma), sample_var, rtol=1e-12)

    def test_equicorrelated_target_is_fixed_point(self):
        # when all pairwise correlations already equal the average, the target
        # coincides with the sample matrix up to noise, so any intensity works
        rng = np.random.default_rng(2)
        n, t = 3, 20_000
        rho = 0.4
        V = rho * np.ones((n, n)) + (1 - rho) * np.eye(n)
        X = rng.standard_normal((t, n)) @ np.linalg.cholesky(V).T
        sigma = lw_shrinkage(X)
        sample = np.cov(X.T, ddof=0)
        np.testing.assert_allclose(sigma, sample, atol=0.02)

    def test_uncorrelated_offdiagonals_shrink(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        sigma = lw_shrinkage(X)
        sample = np.cov(X.T, ddof=0)
        assert abs(sigma[0, 1]) <= abs(sample[0, 1]) + 1e-12

    def test_zero_variance_asset_named(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(NumericError, match="asset 0"):
            lw_shrinkage(X)


class TestEFM:
    def test_scalar_ols_oracle(self):
        rng = np.random.default_rng(4)
        t = 300
        f = rng.normal(size=(t, 1))
        beta, alpha = 1.5, 0.01
        eps = rng.normal(scale=0.1, size=t)
        r = (alpha + beta * f[:, 0] + eps).reshape(-1, 1)
        sigma = efm_cov(r, f)
        X = np.column_stack([np.ones(t), f[:, 0]])
        coef, *_ = np.linalg.lstsq(X, r[:, 0], rcond=None)
        resid_var = (r[:, 0] - X @ coef).var(ddof=2)
        expected = coef[1] ** 2 * f.var(ddof=1) + resid_var
        assert sigma[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_zero_factor_variance_gives_diagonal(self):
        rng = np.random.default_rng(5)
        t = 50
        f = np.zeros((t, 1)) + 1e-15 * rng.normal(size=(t, 1))
        r = rng.normal(size=(t, 3))
        sigma = efm_cov(r, f)
        off = sigma - np.diag(np.diag(sigma))
        np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_synthetic_truth_recovery(self):
        rng = np.random.default_rng(6)
        t, n, k = 5000, 4, 2
        B = rng.normal(size=(n, k))
        Vf = np.array([[1.0, 0.2], [0.2, 0.5]])
        f = rng.standard_normal((t, k)) @ np.linalg.cholesky(Vf).T
        idio = rng.uniform(0.2, 0.5, size=n)
        r = f @ B.T + rng.standard_normal((t, n)) * np.sqrt(idio)
        sigma = efm_cov(r, f)
        truth = B @ Vf @ B.T + np.diag(idio)
        scale = np.sqrt(np.outer(np.diag(truth), np.diag(truth)))
        np.testing.assert_allclose(sigma / scale, truth / scale, atol=3 * 2 / np.sqrt(t))

    def test_window_too_short(self):
        with pytest.raises(ParameterError):
            efm_cov(np.zeros((3, 1)), np.zeros((3, 2)))


class TestWishartDLM:
    def test_zero_innovation_keeps_mean(self):
        state = initial_wishart_state(2)
        y = state.m.copy()
        new, mean_pred, _ = wishart_dlm_step(state, y)
        np.testing.assert_array_equal(new.m, state.m)
        np.testing.assert_array_equal(mean_pred, state.m)
        # S shrinks toward the kappa-weighted prior: e = 0 contribution only
        r = state.kappa * state.n
        np.testing.assert_allclose(new.S, r * state.S / (r + 1.0), atol=1e-15)

    def test_scalar_two_step_hand_unroll(self):
        state = WishartDLMState(np.zeros(1), 4.0, np.eye(1), 10.0, 0.5, 0.8)
        ys = [1.0, -2.0]
        m, c, S, n = 0.0, 4.0, 1.0, 10.0
        for y in ys:
            rho = c / 0.5
            r = 0.8 * n
            q = rho + 1.0
            e = y - m
            m = m + (rho / q) * e
            c = rho / q
            S = (r * S + e * e / q) / (r + 1.0)
            n = r + 1.0
            state, _, _ = wishart_dlm_step(state, np.array([y]))
        assert state.m[0] == pytest.approx(m, abs=1e-14)
        assert state.c == pytest.approx(c, abs=1e-14)
        assert state.S[0, 0] == pytest.approx(S, abs=1e-14)
        assert state.n == pytest.approx(n)

    def test_unit_discounts_match_conjugate_running_covariance(self):
        # with delta = kappa = 1 the volatility recursion is the standard
        # conjugate update S_T = (n0 S0 + sum_t e_t e_t' / q_t) / (n0 + T)
        rng = np.random.default_rng(7)
        N, T = 3, 40
        state = initial_wishart_state(N, s0_diag=0.5, delta=1.0, kappa=1.0)
        num = state.n * state.S.copy()
        den = state.n
        m, c = state.m.copy(), state.c
        for _ in range(T):
            y = rng.normal(size=N)
            e = y - m
            q = c + 1.0
            num += np.outer(e, e) / q
            den += 1.0
            m = m + (c / q) * e
            c = c / q
            state, _, _ = wishart_dlm_step(state, y)
        np.testing.assert_allclose(state.S, num / den, atol=1e-12)

    def test_forecast_covariance_scale(self):
        state = initial_wishart_state(2, s0_diag=0.1)
        _, _, cov = wishart_dlm_step(state, np.zeros(2))
        r = state.kappa * state.n
        expected = (state.c / state.delta + 1.0) * 0.1 * r / (r - 2.0)
        assert cov[0, 0] == pytest.approx(expected)


class TestFactorWishartDLM:
    def test_predictions_precede_updates(self):
        rng = np.random.default_rng(8)
        model = FactorWishartDLM(n_assets=3, n_factors=2, s0_assets=0.05)
        mean1, cov1 = model.step(rng.normal(size=2), rng.normal(size=3))
        assert mean1.shape == (3,)
        assert cov1.shape == (3, 3)
        assert np.linalg.eigvalsh(cov1).min() > 0
        # first prediction comes from the zero-centered prior
        np.testing.assert_allclose(mean1, 0.0, atol=1e-12)

    def test_matches_scalar_filters_and_recoupling(self):
        # the reference: one scalar dlm filter per asset, recoupled by
        # recouple.asset_moments, next to the same Wishart factor block
        rng = np.random.default_rng(9)
        N, K, delta, kappa = 7, 3, 0.98, 0.97
        s0 = rng.uniform(0.5, 2.0, N) * 1e-4
        yF = rng.normal(scale=0.02, size=(60, K))
        yR = yF @ rng.normal(size=(K, N)) + rng.normal(scale=0.01, size=(60, N))
        model = FactorWishartDLM(N, K, s0, delta, kappa, s0_diag=4e-4)
        fstate = initial_wishart_state(K, 4e-4, delta, kappa)
        states = [dlm.init_state(1 + K, float(s)) for s in s0]
        parents = tuple(range(K))
        for t in range(60):
            mean, cov = model.step(yF[t], yR[t])
            fstate, lam, sig = wishart_dlm_step(fstate, yF[t])
            priors = [dlm.evolve(st, delta, kappa) for st in states]
            ref = recouple.asset_moments(lam, sig, [(parents, p) for p in priors])
            F = np.concatenate(([1.0], yF[t]))
            states = [dlm.update(p, F, float(y)) for p, y in zip(priors, yR[t])]
            for got, want in ((mean, ref.asset_mean), (cov, ref.asset_cov)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), t

    def test_low_dof_raises_like_the_scalar_stack(self):
        # r = kappa * n = 0.1 * 10 leaves no predictive variance
        model = FactorWishartDLM(n_assets=2, n_factors=1, kappa=0.1)
        with pytest.raises(MomentError, match="dof > 2"):
            model.step(np.zeros(1), np.zeros(2))
        prior = dlm.evolve(dlm.init_state(2, 0.1), 0.997, 0.1)
        with pytest.raises(MomentError, match="dof > 2"):
            recouple.asset_moments(np.zeros(1), np.eye(1), [((0,), prior)])


def ew_row(n, shift=0.0):
    """The ``ew`` row of a backtest on an n-asset panel whose returns are
    moved by ``shift``, with the realized returns of its evaluation dates."""
    panel = small_panel(seed=n, N=n, K=1, T=30, train=20)
    panel = ReturnPanel(panel.dates, panel.assets, panel.factors, panel.R + shift, panel.F,
                        panel.train_len)
    cfg = RunConfig(ordering="fixed", delta_grid=(1.0,), kappa_r_grid=(1.0,),
                    kappa_f_grid=(1.0,), strategy="gmv", tc_bps=(0.0,), benchmarks=("ew",),
                    fee_reference="none")
    row = run_backtest(panel, cfg).rows[1]
    assert row.name == "ew"
    return row, panel.R[panel.train_len:]


class TestEW:
    """The equal-weight row of ``run_backtest``."""

    def test_single_asset(self):
        row, realized = ew_row(1)
        np.testing.assert_array_equal(row.gross, realized[:, 0])

    def test_quarter_weights(self):
        row, realized = ew_row(4)
        np.testing.assert_allclose(row.gross, realized @ np.full(4, 0.25), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 7, 452])
    def test_budget(self, n):
        # moving every return by c moves the gross return by c times the budget
        base, _ = ew_row(n)
        moved, _ = ew_row(n, shift=0.01)
        np.testing.assert_allclose(moved.gross - base.gross, 0.01, rtol=0, atol=1e-12)
