"""Engine orchestration: oracle compositions, determinism, timing discipline."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from riskcast import dlm, engine, portfolio as pf, recouple
from riskcast._batch import (PoolGroup, batched_asset_moments, moment_offsets,
                             recursive_factor_moments)
from riskcast.data import ReturnPanel, SyntheticSpec, generate_synthetic
from riskcast.engine import (MODEL_NAME, RunConfig, _DynamicFactorFilter, logsumexp, run_backtest,
                             run_statistics_only)
from riskcast.errors import ParameterError


def moments_from_second(S):
    """Mean and covariance of the factors from E[x x'], x = (1, factors)."""
    mean = S[0, 1:]
    return mean, S[1:, 1:] - np.outer(mean, mean)


def small_panel(seed=0, N=6, K=2, T=120, train=40):
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.5, 1.5, size=(N, K))
    B[: N // 2, K - 1] = 0.0
    spec = SyntheticSpec(N=N, K=K, T=T, loadings=B,
                         factor_cov=4e-4 * (0.7 * np.eye(K) + 0.3),
                         idio_var=rng.uniform(0.015, 0.03, N) ** 2,
                         seed=seed, train_len=train)
    return generate_synthetic(spec)[0]


def check_pool_group_against_reference(per_equation_regressors, deltas=(0.998, 1.0),
                                       kappas=(0.99, 1.0), steps=15, jump_at=None,
                                       tol=None, dens_tol=None):
    """Advance a PoolGroup and the scalar ``dlm`` kernel side by side.

    With ``per_equation_regressors`` every equation gets its own regressor
    row, F of shape (b, d), as the factor pools use it; otherwise F is one
    (d,) vector shared by all equations, as in the asset pools.  From step
    ``jump_at`` on, the observations' scale is 4 times larger.  ``tol`` and
    ``dens_tol`` are the ``assert_allclose`` tolerances of the states and
    forecasts and of the densities.
    """
    tol = tol or dict(rtol=0, atol=1e-12)
    dens_tol = dens_tol or dict(rtol=0, atol=1e-10)
    rng = np.random.default_rng(0)
    specs = [(dl, kp) for dl in deltas for kp in kappas]    # the kernel's spec order
    P = len(specs)
    s0 = rng.uniform(0.5, 2.0, size=3)
    group = PoolGroup([0, 1], 3, deltas, kappas, s0)
    # one mean and covariance per delta, s per (delta, kappa)
    assert group._m.shape == (3, len(deltas), 3)
    assert group._C.shape == (3, 3, len(deltas), 3)
    assert group.s.shape == (3, P)
    states = [[dlm.init_state(3, float(s0[b])) for _ in range(P)] for b in range(3)]
    for t in range(steps):
        if per_equation_regressors:
            Freg = np.column_stack([np.ones(3), rng.normal(size=(3, 2))])
        else:
            Freg = np.concatenate(([1.0], rng.normal(size=2)))
        y = rng.normal(size=3) * (4.0 if jump_at is not None and t >= jump_at else 1.0)
        group.evolve()
        f, q = group.forecast(Freg)
        dens = group.log_densities(y, f, q)
        group.update(y, f, q)
        ref = {k: np.zeros((3, P)) for k in ("f", "q", "dens", "s")}
        ref_m, ref_C = np.zeros((3, P, 3)), np.zeros((3, P, 3, 3))
        for b in range(3):
            Fb = Freg[b] if per_equation_regressors else Freg
            for p, (dl, kp) in enumerate(specs):
                prior = dlm.evolve(states[b][p], dl, kp)
                fc = dlm.forecast(prior, Fb)
                ref["f"][b, p], ref["q"][b, p] = fc.f, fc.q
                ref["dens"][b, p] = dlm.log_predictive_density(fc, float(y[b]))
                states[b][p] = dlm.update(prior, Fb, float(y[b]))
                ref_m[b, p], ref_C[b, p] = states[b][p].m, states[b][p].C
                ref["s"][b, p] = states[b][p].s
        # f is (Pd, 1, b) and q is (Pd, Pk, b); spec p = i_delta * Pk + i_kappa
        np.testing.assert_allclose(np.broadcast_to(f, q.shape).reshape(P, 3).T, ref["f"], **tol)
        np.testing.assert_allclose(q.reshape(P, 3).T, ref["q"], **tol)
        np.testing.assert_allclose(dens, ref["dens"], **dens_tol)
        np.testing.assert_allclose(group.m, ref_m, **tol)
        np.testing.assert_allclose(group.C, ref_C, **tol)
        np.testing.assert_allclose(group.s, ref["s"], **tol)
        np.testing.assert_allclose(group.n, [st.n for st in states[0]], atol=1e-12)


class TestBatchedKernelEquivalence:
    def test_pool_group_matches_reference_ops(self):
        check_pool_group_against_reference(per_equation_regressors=False)

    def test_pool_group_matches_reference_ops_per_equation_regressors(self):
        check_pool_group_against_reference(per_equation_regressors=True)

    def test_pool_group_matches_reference_over_a_volatility_jump(self):
        # the paper's 3 x 3 grid over a long run whose residual scale jumps
        # 4x halfway, so the kappa < 1 specs' s and n move apart from kappa = 1
        for per_equation_regressors in (False, True):
            check_pool_group_against_reference(
                per_equation_regressors, deltas=(0.95, 0.975, 1.0), kappas=(0.99, 0.995, 1.0),
                steps=300, jump_at=150, tol=dict(rtol=1e-10), dens_tol=dict(rtol=1e-10))

    def test_covariance_stays_exactly_symmetric(self):
        # the update subtracts g g' instead of symmetrizing, so C - C' must be 0
        panel = small_panel(seed=16, N=5, K=3, T=60, train=20)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="learn"))
        assert flt.n_ord == 6
        for t in range(panel.T):
            flt.update_step(t, flt.forecast_step()[-1])
            for grp in flt.asset_groups + flt.factor_groups:
                assert np.max(np.abs(grp.C - np.swapaxes(grp.C, -1, -2))) == 0.0
        flt.close()

    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(17)
        lp = rng.normal(size=(6, 40)) * 30.0
        lp[:2] += 1e4
        lp[2] -= 1e4
        lp[3, ::3] = -np.inf
        lp[4, 5] = -np.inf
        lp[5] = -np.inf
        for axis in (-1, 0):
            np.testing.assert_allclose(logsumexp(lp, axis=axis, keepdims=True),
                                       scipy_logsumexp(lp, axis=axis, keepdims=True),
                                       rtol=0, atol=1e-12)
        for row in lp[:5]:
            assert logsumexp(row) == pytest.approx(scipy_logsumexp(row), rel=0, abs=1e-12)
        assert logsumexp(lp[5]) == -np.inf

    def test_recursive_factor_moments_match_reference(self):
        rng = np.random.default_rng(1)
        K = 3
        perms = np.array([(0, 1, 2), (2, 0, 1)])
        a_sel, R_sel, r_sel, s_sel = [], [], [], []
        ref = []
        for j in range(K):
            d = j + 1
            a = rng.normal(size=(2, d)) * 0.01
            A = rng.normal(size=(2, d, d)) * 0.05
            Rm = np.einsum("oij,okj->oik", A, A) + 0.01 * np.eye(d)
            r = rng.uniform(8, 20, size=2)
            s = rng.uniform(1e-4, 1e-3, size=2)
            a_sel.append(a)
            R_sel.append(Rm)
            r_sel.append(r)
            s_sel.append(s)
            ref.append((a, Rm, r, s))
        # position j regresses perms[:, j] on perms[:, :j], coefficients in
        # that order; factor i is column i + 1 of x = (1, factors)
        cols = [np.column_stack((np.zeros(2, int), perms[:, :j + 1] + 1)) for j in range(K)]
        S = recursive_factor_moments(moment_offsets(cols), a_sel, R_sel, r_sel, s_sel)
        for o, perm in enumerate(perms):
            priors = [dlm.PriorState(ref[j][0][o], ref[j][1][o], float(ref[j][2][o]),
                                     float(ref[j][3][o])) for j in range(K)]
            lam_ref, sig_ref = recouple.factor_moments(tuple(perm), priors)
            lam, sig = moments_from_second(S[o])
            np.testing.assert_allclose(lam, lam_ref, atol=1e-13)
            np.testing.assert_allclose(sig, sig_ref, atol=1e-13)

    def test_engine_second_moments_match_reference_for_every_ordering(self, monkeypatch):
        # K = 5 gives 120 orderings over 80 shared equations, so every
        # set-up layout (regressor columns, the equation each ordering uses,
        # the offsets of its block) is exercised against the scalar recursion,
        # which takes each ordering's coefficients in ordering order
        panel = small_panel(seed=21, N=4, K=5, T=33, train=30)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="learn"))
        captured = []

        def capture(*args, **kwargs):
            captured.append(recursive_factor_moments(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(engine, "recursive_factor_moments", capture)
        for t in range(panel.T):
            *_, selection = flt.forecast_step()
            if t >= panel.T - 3:
                S, sel_f = captured[-1], selection[1]
                for o, perm in enumerate(flt.perms):
                    priors = []
                    for j, grp in enumerate(flt.factor_groups):
                        eq = flt.factor_eq[j][o]
                        a, R, r, s = grp.selected(np.array([eq]), sel_f[j][[eq]])
                        # the equation stores its parents sorted; reorder them as perm
                        order = [0, *(1 + np.searchsorted(np.sort(perm[:j]), perm[:j]))]
                        priors.append(dlm.PriorState(a[0][order], R[0][np.ix_(order, order)],
                                                     float(r[0]), float(s[0])))
                    lam_ref, sig_ref = recouple.factor_moments(tuple(perm), priors)
                    lam, sig = moments_from_second(S[o])
                    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-13)
                    np.testing.assert_allclose(sig, sig_ref, rtol=0, atol=1e-13)
            flt.update_step(t, selection)
        flt.close()

    def test_batched_asset_moments_match_reference(self):
        rng = np.random.default_rng(2)
        K, N = 2, 5
        deltas, kappas = [1.0], [1.0]
        groups = [PoolGroup([i for i in range(K) if (m >> i) & 1], N, deltas, kappas,
                            rng.uniform(1e-4, 1e-3, N)) for m in range(1, 1 << K)]
        for grp in groups:
            grp.evolve()
            # desynchronize states so the test is not trivial
            grp._m += rng.normal(size=grp._m.shape) * 0.1
        lam = rng.normal(size=K) * 0.01
        A = rng.normal(size=(K, K)) * 0.02
        sig = A @ A.T + 1e-4 * np.eye(K)
        sel = rng.integers(0, len(groups), size=N)  # P = 1, flat index = group index
        mean, B, idio = batched_asset_moments(groups, sel, lam, sig)
        sels = []
        for j in range(N):
            g = groups[sel[j]]
            # delta = 1, so the prior scale R is C
            prior = dlm.PriorState(g.m[j, 0], g.C[j, 0], float(g.r[0]), float(g.s[j, 0]))
            sels.append((g.idx, prior))
        ref = recouple.asset_moments(lam, sig, sels)
        np.testing.assert_allclose(mean, ref.asset_mean, atol=1e-13)
        cov = B @ sig @ B.T
        cov[np.diag_indices(N)] += idio
        np.testing.assert_allclose(cov, ref.asset_cov, atol=1e-13)


def reference_singleton_run(panel):
    """Hand-built batch conjugate pipeline for the K=1 singleton model space."""
    R, F = panel.R, panel.F
    N, train = panel.n_assets, panel.train_len
    X = np.column_stack([np.ones(train), F[:train, 0]])
    astates = []
    for j in range(N):
        coef, *_ = np.linalg.lstsq(X, R[:train, j], rcond=None)
        s0 = max(float((R[:train, j] - X @ coef).var()), 1e-12)
        astates.append(dlm.init_state(2, s0))
    fs0 = max(float((F[:train, 0] - F[:train, 0].mean()).var()), 1e-12)
    # intercept-only OLS residuals are the demeaned series
    fstate = dlm.init_state(1, fs0)
    weights, lpds = [], []
    for t in range(panel.T):
        fprior = dlm.evolve(fstate, 1.0, 1.0)
        apriors = [dlm.evolve(st, 1.0, 1.0) for st in astates]
        lam, sig_f = recouple.factor_moments((0,), [fprior])
        moments = recouple.asset_moments(lam, sig_f, [((0,), p) for p in apriors])
        Freg = np.array([1.0, F[t, 0]])
        if t >= train:
            weights.append(pf.gmv_weights(moments.asset_cov).w)
            # the decoupled likelihood: each asset conditions on the realized factor
            lpds.append(sum(dlm.log_predictive_density(dlm.forecast(p, Freg), float(R[t, j]))
                            for j, p in enumerate(apriors)))
        astates = [dlm.update(p, Freg, float(R[t, j])) for j, p in enumerate(apriors)]
        fstate = dlm.update(fprior, np.ones(1), float(F[t, 0]))
    return np.array(weights), np.array(lpds)


class TestComposedOracle:
    def test_singleton_space_matches_reference_pipeline(self):
        panel = small_panel(seed=3, N=5, K=1, T=50, train=12)
        cfg = RunConfig(delta_grid=(1.0,), kappa_r_grid=(1.0,), kappa_f_grid=(1.0,),
                        ordering="fixed", strategy="gmv", tc_bps=(0.0,))
        report = run_backtest(panel, cfg)
        stats = run_statistics_only(panel, cfg)
        w_ref, lpd_ref = reference_singleton_run(panel)
        assert stats.lpd == pytest.approx(lpd_ref.sum(), abs=1e-8)
        np.testing.assert_allclose(stats.lpd_series, lpd_ref, atol=1e-8)
        # recover weights by replaying costs: gross = sum w * r
        row = report.rows[0]
        gross_ref = np.einsum("ti,ti->t", w_ref, panel.R[panel.train_len:])
        np.testing.assert_allclose(row.gross, gross_ref, atol=1e-10)

    def test_alpha_one_probabilities_are_cumulative_bayes_factors(self):
        panel = small_panel(seed=4, N=3, K=2, T=60, train=20)
        cfg = RunConfig(delta_grid=(1.0,), kappa_r_grid=(1.0,), kappa_f_grid=(1.0,),
                        alpha=1.0, alpha_ord=1.0, ordering="fixed")
        flt = _DynamicFactorFilter(panel, cfg)
        # reference: three masks per asset, cumulative density sums
        masks = [0b01, 0b10, 0b11]
        X = np.column_stack([np.ones(panel.train_len), panel.F[:panel.train_len]])
        cum = np.zeros((panel.n_assets, 3))
        states = {}
        for j in range(panel.n_assets):
            coef, *_ = np.linalg.lstsq(X, panel.R[:panel.train_len, j], rcond=None)
            s0 = max(float((panel.R[:panel.train_len, j] - X @ coef).var()), 1e-12)
            for mi, m in enumerate(masks):
                states[j, mi] = dlm.init_state(1 + bin(m).count("1"), s0)
        for t in range(panel.T):
            sel = flt.forecast_step()[-1]
            flt.update_step(t, sel)
            for j in range(panel.n_assets):
                for mi, m in enumerate(masks):
                    idx = [i for i in range(2) if (m >> i) & 1]
                    Freg = np.concatenate(([1.0], panel.F[t, idx]))
                    prior = dlm.evolve(states[j, mi], 1.0, 1.0)
                    fc = dlm.forecast(prior, Freg)
                    cum[j, mi] += dlm.log_predictive_density(fc, float(panel.R[t, j]))
                    states[j, mi] = dlm.update(prior, Freg, float(panel.R[t, j]))
            expected = cum - scipy_logsumexp(cum, axis=1, keepdims=True)
            np.testing.assert_allclose(flt.asset_log_probs, expected, atol=1e-8)
        flt.close()


class TestEngineInvariants:
    def test_bit_identical_reruns(self):
        panel = small_panel(seed=5, train=60)
        cfg = RunConfig(strategy="gmv", tc_bps=(0.0, 5.0), benchmarks=("ewma97",))
        r1 = run_backtest(panel, cfg)
        r2 = run_backtest(panel, cfg)
        for a, b in zip(r1.rows, r2.rows):
            np.testing.assert_array_equal(a.gross, b.gross)
            np.testing.assert_array_equal(a.turnover, b.turnover)
            for ta, tb in zip(a.per_tc, b.per_tc):
                np.testing.assert_array_equal(ta.net, tb.net)
                assert ta.fees_bps == tb.fees_bps

    def test_parallel_serial_identical(self):
        panel = small_panel(seed=6, N=8, K=2, T=90, train=30)
        base = RunConfig(strategy="gmv")
        r1 = run_backtest(panel, base)
        r4 = run_backtest(panel, RunConfig(strategy="gmv", threads=4))
        np.testing.assert_array_equal(r1.rows[0].gross, r4.rows[0].gross)
        np.testing.assert_array_equal(r1.rows[0].turnover, r4.rows[0].turnover)
        s1 = run_statistics_only(panel, base)
        s4 = run_statistics_only(panel, RunConfig(strategy="gmv", threads=4))
        np.testing.assert_array_equal(s1.lpd_series, s4.lpd_series)
        np.testing.assert_array_equal(s1.inclusion, s4.inclusion)

    def test_no_look_ahead(self):
        panel = small_panel(seed=7, N=4, K=2, T=100, train=40)
        cfg = RunConfig(strategy="gmv", tc_bps=(0.0,))
        t0 = 70  # absolute index of the perturbed date
        R2 = panel.R.copy()
        F2 = panel.F.copy()
        R2[t0, 1] += 0.05
        F2[t0, 0] -= 0.03
        panel2 = ReturnPanel(panel.dates, panel.assets, panel.factors, R2, F2,
                             panel.train_len)
        s1 = run_statistics_only(panel, cfg)
        s2 = run_statistics_only(panel2, cfg)
        cut = t0 - panel.train_len
        # forecasts made at or before t0 use data through t0-1 only
        np.testing.assert_array_equal(s1.asset_mean[: cut + 1], s2.asset_mean[: cut + 1])
        np.testing.assert_array_equal(s1.factor_mean[: cut + 1], s2.factor_mean[: cut + 1])
        assert not np.array_equal(s1.asset_mean[cut + 1], s2.asset_mean[cut + 1])
        r1 = run_backtest(panel, cfg)
        r2 = run_backtest(panel2, cfg)
        # weights enter gross returns; gross at dates < t0 must agree exactly
        np.testing.assert_array_equal(r1.rows[0].gross[:cut], r2.rows[0].gross[:cut])

    def test_asset_permutation_equivariance(self):
        panel = small_panel(seed=8, N=5, K=2, T=80, train=30)
        perm = [3, 0, 4, 2, 1]
        panel_p = ReturnPanel(panel.dates, tuple(panel.assets[i] for i in perm),
                              panel.factors, panel.R[:, perm], panel.F, panel.train_len)
        s1 = run_statistics_only(panel, RunConfig())
        s2 = run_statistics_only(panel_p, RunConfig())
        assert s1.lpd == pytest.approx(s2.lpd, abs=1e-9)
        assert s1.acc == pytest.approx(s2.acc, abs=1e-12)
        np.testing.assert_allclose(s2.asset_mean, s1.asset_mean[:, perm], atol=1e-12)
        np.testing.assert_allclose(s2.inclusion, s1.inclusion[:, perm, :], atol=1e-12)

    def test_stats_match_backtest_lpd(self):
        panel = small_panel(seed=9)
        cfg = RunConfig(strategy="gmv")
        report = run_backtest(panel, cfg)
        stats = run_statistics_only(panel, cfg)
        assert report.rows[0].lpd == pytest.approx(stats.lpd, abs=1e-12)
        assert report.rows[0].acc == pytest.approx(stats.acc, abs=1e-12)

    def test_error_carries_date_context(self):
        panel = small_panel(seed=10, N=3, K=2, T=70, train=30)
        cfg = RunConfig(strategy="mvp", mean_signal="momentum")
        # momentum needs 52 periods; date t0031 (index 31 > train) is too early
        with pytest.raises(Exception, match="t000"):
            run_backtest(panel, cfg)


def twelve_asset_panel(seed):
    """12 assets on 2 factors, 72 dates of which 56 train: small panels on
    which box solves of the comparison models often bind many weights."""
    rng = np.random.default_rng(500 + seed)
    N, K = 12, 2
    B = rng.normal(0.0, 0.6, size=(N, K))
    B[:, 0] = rng.uniform(0.6, 1.4, N)
    vol = np.array([0.02, 0.01])
    spec = SyntheticSpec(N=N, K=K, T=72, loadings=B,
                         factor_cov=(0.7 * np.eye(K) + 0.3) * np.outer(vol, vol),
                         idio_var=rng.uniform(0.015, 0.035, N) ** 2, seed=seed, train_len=56)
    return generate_synthetic(spec)[0]


class TestBoxSolves:
    """Backtests whose box solves made the former active-set rule (add the
    lowest-index violated bound, no ratio test) build a singular KKT system."""

    def test_model_box_gmv_on_regime_panel(self):
        from test_acceptance import _time_varying_sparse_panel
        panel = _time_varying_sparse_panel(1)
        report = run_backtest(panel, RunConfig(strategy="gmv", max_weight=0.05,
                                               ordering="fixed", tc_bps=(0.0,)))
        assert np.all(np.isfinite(report.rows[0].gross))

    @pytest.mark.parametrize("box", [0.15, 0.2])
    @pytest.mark.parametrize("seed", range(4))
    def test_factor_wdlm_box_gmv(self, seed, box):
        cfg = RunConfig(strategy="gmv", max_weight=box, ordering="fixed", tc_bps=(0.0,),
                        benchmarks=("factor-wdlm",), fee_reference="none")
        report = run_backtest(twelve_asset_panel(seed), cfg)
        assert [r.name for r in report.rows] == [MODEL_NAME, "factor-wdlm"]
        assert all(np.all(np.isfinite(r.gross)) for r in report.rows)

    def test_warm_start_matches_cold_start(self, monkeypatch):
        cfg = RunConfig(strategy="gmv", max_weight=0.15, ordering="fixed", tc_bps=(0.0,),
                        benchmarks=("efm", "lw", "ewma99", "wdlm", "factor-wdlm"),
                        fee_reference="none")
        panel = twelve_asset_panel(0)
        warm = run_backtest(panel, cfg)
        cold_solve = pf.constrained_weights
        monkeypatch.setattr(pf, "constrained_weights",
                            lambda *args, start=None, **kwargs: cold_solve(*args, **kwargs))
        cold = run_backtest(panel, cfg)
        for a, b in zip(warm.rows, cold.rows):
            np.testing.assert_allclose(a.gross, b.gross, rtol=0, atol=1e-12, err_msg=a.name)
            np.testing.assert_allclose(a.turnover, b.turnover, rtol=0, atol=1e-12,
                                       err_msg=a.name)


class TestEngineBehaviors:
    def test_perfect_foresight_accuracy_limit(self):
        # noise-free loadings on one factor: signs become predictable as the
        # filter converges, so accuracy climbs far above chance
        rng = np.random.default_rng(11)
        N, K, T = 4, 1, 300
        spec = SyntheticSpec(N=N, K=K, T=T, loadings=np.full((N, 1), 1.0),
                             intercepts=np.full(N, 0.004),
                             factor_cov=np.eye(1) * 1e-8,
                             idio_var=np.full(N, 1e-8), seed=11, train_len=60)
        panel, _ = generate_synthetic(spec)
        stats = run_statistics_only(panel, RunConfig(ordering="fixed"))
        assert stats.acc > 95.0

    def test_pure_noise_accuracy_near_half(self):
        panel = small_panel(seed=12, N=10, K=2, T=400, train=60)
        # loadings exist but means hover near zero; just check a sane range
        stats = run_statistics_only(panel, RunConfig(ordering="fixed"))
        se = 100 * 0.5 / np.sqrt(stats.asset_mean.size)
        assert abs(stats.acc - 50.0) < 6 * se + 5.0

    def test_no_sparsity_mode_keeps_all_factors(self):
        panel = small_panel(seed=13, N=4, K=2, T=80, train=30)
        stats = run_statistics_only(panel, RunConfig(sparsity=False))
        np.testing.assert_allclose(stats.inclusion, 1.0, atol=1e-12)

    def test_momentum_mean_signal_runs(self):
        panel = small_panel(seed=14, N=4, K=2, T=160, train=60)
        cfg = RunConfig(strategy="mvp", mean_signal="momentum", tc_bps=(5.0,))
        report = run_backtest(panel, cfg)
        assert report.rows[0].gross.shape == (100,)

    def test_factor_priors_fit_each_parent_set_once(self, monkeypatch):
        panel = small_panel(seed=3, N=5, K=4, T=60, train=30)
        lstsq = np.linalg.lstsq
        calls = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="learn"))
        monkeypatch.undo()
        # one fit for all assets, one per (parent set, target): K 2^(K-1)
        assert len(calls) == 1 + 4 * 2 ** 3
        train = panel.train_len
        for jj, grp in enumerate(flt.factor_groups):
            for o, perm in enumerate(flt.perms):
                X = np.column_stack([np.ones(train), panel.F[:train, list(perm[:jj])]])
                y = panel.F[:train, perm[jj]]
                coef, *_ = np.linalg.lstsq(X, y, rcond=None)
                eq = flt.factor_eq[jj][o]
                assert grp.s[eq, 0] == pytest.approx((y - X @ coef).var(), rel=1e-12)
        X = np.column_stack([np.ones(train), panel.F[:train]])
        for j in range(panel.n_assets):
            coef, *_ = np.linalg.lstsq(X, panel.R[:train, j], rcond=None)
            resid = panel.R[:train, j] - X @ coef
            assert flt.asset_groups[0].s[j, 0] == pytest.approx(resid.var(), rel=1e-12)

    @pytest.mark.parametrize("block, grid", [("asset", "kappa_r_grid"),
                                             ("factor", "kappa_f_grid")])
    def test_dof_floor_hits_warn(self, block, grid):
        # kappa = 0.5 drives r = kappa n toward 1, below DOF_FLOOR, in one block only
        panel = small_panel(seed=5, N=4, K=2, T=60, train=30)
        with pytest.warns(RuntimeWarning, match=f"{block} equation degrees of freedom") as rec:
            run_backtest(panel, RunConfig(**{grid: (0.5,)}))
        assert {str(w.message).split()[0] for w in rec} == {block}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_backtest(panel, RunConfig())

    def test_report_header_records_conventions(self):
        panel = small_panel(seed=15)
        report = run_backtest(panel, RunConfig(strategy="gmv"))
        assert report.header["turnover_first_period"] == "excluded"
        assert report.header["tau_conversion"] == "annual/periods_per_year"
        assert report.header["train_len"] == panel.train_len
        assert "seed" not in report.header   # the model draws nothing at random
        assert report.rows[0].name == MODEL_NAME

    @pytest.mark.parametrize("settings, match", [
        (dict(benchmarks=("ewma97", "wdml")), "unknown benchmark 'wdml'"),
        (dict(max_weight=0.0), "max_weight"),
        (dict(strategy="constrained", max_weight=-0.05), "max_weight"),
    ])
    def test_bad_run_settings_rejected_before_filtering(self, settings, match):
        # a misspelt comparison model or a non-positive box used to surface
        # only after the whole model run
        with pytest.raises(ParameterError, match=match):
            RunConfig(**settings)
