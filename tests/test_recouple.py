"""Joint predictive moment assembly and the decoupled likelihood."""

import numpy as np
import pytest

from test_engine import small_panel

from riskcast import dlm, recouple
from riskcast.data import ReturnPanel
from riskcast.engine import RunConfig, run_statistics_only
from riskcast.errors import MomentError


def parents_of(mask):
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def random_factor_priors(K, rng, scale=0.05):
    priors = []
    for j in range(K):
        d = 1 + j
        a = rng.normal(scale=0.01, size=d)
        A = rng.normal(size=(d, d)) * scale
        R = A @ A.T + 0.01 * np.eye(d)
        priors.append(dlm.PriorState(a, R, float(rng.uniform(8, 30)),
                                     float(rng.uniform(1e-4, 1e-3))))
    return priors


def random_asset_selection(N, K, rng, scale=0.05):
    sels = []
    for _ in range(N):
        mask = int(rng.integers(1, 1 << K))
        d = 1 + bin(mask).count("1")
        a = rng.normal(scale=0.2, size=d)
        A = rng.normal(size=(d, d)) * scale
        R = A @ A.T + 0.01 * np.eye(d)
        prior = dlm.PriorState(a, R, float(rng.uniform(8, 30)),
                               float(rng.uniform(1e-4, 1e-3)))
        sels.append((parents_of(mask), prior))
    return sels


def simulate_factor_block(priors, perm, n, rng):
    """Sequential draws from the per-position Student-t predictives, mapped to
    canonical factor coordinates."""
    K = len(priors)
    draws_pos = np.zeros((n, K))
    for j, pr in enumerate(priors):
        F = np.column_stack([np.ones(n), draws_pos[:, :j]])
        f = F @ pr.a
        q = pr.s_prev + np.einsum("ni,ij,nj->n", F, pr.R, F)
        draws_pos[:, j] = f + rng.standard_t(pr.r, size=n) * np.sqrt(q)
    draws = np.zeros_like(draws_pos)
    draws[:, list(perm)] = draws_pos
    return draws


class TestFactorMoments:
    def test_scalar_intercept_only(self):
        prior = dlm.PriorState([0.002], [[0.01]], 20.0, 0.0004)
        lam, sig = recouple.factor_moments((0,), [prior])
        assert lam[0] == pytest.approx(0.002)
        assert sig[0, 0] == pytest.approx((20.0 / 18.0) * (0.01 + 0.0004))

    def test_zero_loadings_give_diagonal_cov(self):
        K = 3
        priors = []
        for j in range(K):
            d = 1 + j
            a = np.zeros(d)
            a[0] = 0.01 * (j + 1)
            R = np.zeros((d, d))
            R[0, 0] = 0.02   # only intercept uncertainty; loadings pinned at zero
            R[np.diag_indices(d)] += 1e-12
            priors.append(dlm.PriorState(a, R, 10.0, 0.001))
        lam, sig = recouple.factor_moments((0, 1, 2), priors)
        np.testing.assert_allclose(sig - np.diag(np.diag(sig)), 0.0, atol=1e-12)
        np.testing.assert_allclose(lam, [0.01, 0.02, 0.03], atol=1e-14)

    def test_low_dof_rejected(self):
        prior = dlm.PriorState([0.0], [[1.0]], 2.0, 1.0)
        with pytest.raises(MomentError, match="position 0"):
            recouple.factor_moments((0,), [prior])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_monte_carlo_oracle(self, seed):
        rng = np.random.default_rng(seed)
        perm = tuple(rng.permutation(3))
        priors = random_factor_priors(3, rng)
        lam, sig = recouple.factor_moments(perm, priors)
        n = 400_000
        draws = simulate_factor_block(priors, perm, n, rng)
        se_mean = draws.std(axis=0) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(lam - draws.mean(axis=0)), 3 * se_mean + 1e-12)
        dm = draws - draws.mean(axis=0)
        mc_cov = dm.T @ dm / (n - 1)
        for i in range(3):
            for j in range(3):
                se = (dm[:, i] * dm[:, j]).std() / np.sqrt(n)
                assert abs(sig[i, j] - mc_cov[i, j]) < 3 * se + 1e-12


class TestAssetMoments:
    def test_disjoint_masks_zero_cross_term(self):
        lam = np.zeros(2)
        sig_f = np.diag([0.0004, 0.0009])
        mk = lambda parents, beta: (parents,
                                    dlm.PriorState([0.0, beta], np.eye(2) * 1e-12, 20.0, 0.0001))
        moments = recouple.asset_moments(lam, sig_f, [mk((0,), 1.0), mk((1,), 1.0)])
        assert moments.asset_cov[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert moments.asset_cov[0, 0] == pytest.approx(
            (20.0 / 18.0) * (0.0001 + 1e-12 + 1e-12) + 0.0004, rel=1e-6)

    def test_identical_loadings_share_systematic_variance(self):
        # two-asset hand evaluation against B Sigma_f B'
        lam = np.array([0.001, -0.002])
        sig_f = np.array([[4e-4, 1e-4], [1e-4, 9e-4]])
        beta = np.array([0.8, 1.2])
        prior = dlm.PriorState(np.concatenate(([0.0], beta)), np.eye(3) * 1e-12, 20.0, 1e-4)
        moments = recouple.asset_moments(lam, sig_f, [((0, 1), prior), ((0, 1), prior)])
        expected = beta @ sig_f @ beta
        assert moments.asset_cov[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_systematic_part_identity(self):
        # Sigma_r minus the idiosyncratic diagonal equals B Sigma_f B' exactly
        rng = np.random.default_rng(3)
        lam = rng.normal(size=3) * 0.01
        A = rng.normal(size=(3, 3)) * 0.02
        sig_f = A @ A.T + 1e-4 * np.eye(3)
        sels = random_asset_selection(6, 3, rng)
        moments = recouple.asset_moments(lam, sig_f, sels)
        B = np.zeros((6, 3))
        for j, (parents, prior) in enumerate(sels):
            B[j, list(parents)] = prior.a[1:]
        systematic = B @ sig_f @ B.T
        off = moments.asset_cov - np.diag(np.diag(moments.asset_cov))
        np.testing.assert_allclose(off, systematic - np.diag(np.diag(systematic)), atol=1e-12)
        idio = np.diag(moments.asset_cov) - np.diag(systematic)
        assert np.all(idio > 0)

    def test_mean_identity(self):
        # f = alpha + B lambda, cross-checked against the per-equation scalars
        rng = np.random.default_rng(4)
        lam = rng.normal(size=2) * 0.01
        sig_f = np.eye(2) * 1e-4
        sels = random_asset_selection(5, 2, rng)
        moments = recouple.asset_moments(lam, sig_f, sels)
        for j, (parents, prior) in enumerate(sels):
            idx = list(parents)
            assert moments.asset_mean[j] == pytest.approx(prior.a[0] + lam[idx] @ prior.a[1:])

    def test_asset_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        lam = rng.normal(size=2) * 0.01
        sig_f = np.eye(2) * 1e-4
        sels = random_asset_selection(5, 2, rng)
        base = recouple.asset_moments(lam, sig_f, sels)
        perm = [3, 1, 4, 0, 2]
        out = recouple.asset_moments(lam, sig_f, [sels[i] for i in perm])
        np.testing.assert_allclose(out.asset_mean, base.asset_mean[perm], atol=1e-15)
        np.testing.assert_allclose(out.asset_cov, base.asset_cov[np.ix_(perm, perm)], atol=1e-15)

    def test_cov_positive_definite(self):
        rng = np.random.default_rng(12)
        lam = rng.normal(size=3) * 0.01
        A = rng.normal(size=(3, 3)) * 0.02
        sig_f = A @ A.T + 1e-4 * np.eye(3)
        moments = recouple.asset_moments(lam, sig_f, random_asset_selection(10, 3, rng))
        assert np.linalg.eigvalsh(moments.asset_cov).min() > 0

    @pytest.mark.parametrize("seed", [2, 5])
    def test_monte_carlo_oracle(self, seed):
        # draw factors from the factor joint, then each asset from its
        # conditional Student-t; compare assembled moments
        rng = np.random.default_rng(seed)
        perm = (0, 1)
        fpriors = random_factor_priors(2, rng)
        lam, sig_f = recouple.factor_moments(perm, fpriors)
        sels = random_asset_selection(5, 2, rng)
        moments = recouple.asset_moments(lam, sig_f, sels)
        n = 400_000
        fdraws = simulate_factor_block(fpriors, perm, n, rng)
        adraws = np.zeros((n, 5))
        for j, (parents, pr) in enumerate(sels):
            idx = list(parents)
            F = np.column_stack([np.ones(n), fdraws[:, idx]])
            f = F @ pr.a
            q = pr.s_prev + np.einsum("ni,ij,nj->n", F, pr.R, F)
            adraws[:, j] = f + rng.standard_t(pr.r, size=n) * np.sqrt(q)
        se_mean = adraws.std(axis=0) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(moments.asset_mean - adraws.mean(axis=0)),
                                     3 * se_mean + 1e-12)
        dm = adraws - adraws.mean(axis=0)
        mc_cov = dm.T @ dm / (n - 1)
        for i in range(5):
            for j in range(5):
                se = (dm[:, i] * dm[:, j]).std() / np.sqrt(n)
                assert abs(moments.asset_cov[i, j] - mc_cov[i, j]) < 3 * se + 1e-12


class TestJointLPD:
    """The engine's asset-block LPD: each asset's selected model scored by its
    Student-t density given the same date's realized factors."""

    def test_single_equation_reduction(self):
        # one asset, one spec (full mask, delta = kappa = 1): the LPD series is
        # the scalar filter's log predictive density date by date
        panel = small_panel(seed=1, N=1, K=2, T=60, train=20)
        cfg = RunConfig(ordering="fixed", sparsity=False, delta_grid=(1.0,),
                        kappa_r_grid=(1.0,), kappa_f_grid=(1.0,))
        stats = run_statistics_only(panel, cfg)
        train = panel.train_len
        X = np.column_stack([np.ones(train), panel.F[:train]])
        coef, *_ = np.linalg.lstsq(X, panel.R[:train, 0], rcond=None)
        state = dlm.init_state(3, float((panel.R[:train, 0] - X @ coef).var()))
        direct = []
        for t in range(panel.T):
            F = np.concatenate(([1.0], panel.F[t]))
            prior = dlm.evolve(state, 1.0, 1.0)
            if t >= train:
                direct.append(dlm.log_predictive_density(dlm.forecast(prior, F),
                                                         float(panel.R[t, 0])))
            state = dlm.update(prior, F, float(panel.R[t, 0]))
        np.testing.assert_allclose(stats.lpd_series, direct, atol=1e-10)
        assert stats.lpd == pytest.approx(sum(direct), abs=1e-9)

    def test_additive_across_assets(self):
        # the block LPD is the sum of the assets' own LPDs: a three-asset run
        # equals three one-asset runs on the same factors
        panel = small_panel(seed=2, N=3, K=2, T=60, train=20)
        cfg = RunConfig(ordering="fixed")
        total = run_statistics_only(panel, cfg).lpd_series
        parts = [run_statistics_only(ReturnPanel(panel.dates, (panel.assets[j],), panel.factors,
                                                 panel.R[:, [j]], panel.F, panel.train_len),
                                     cfg).lpd_series
                 for j in range(3)]
        np.testing.assert_allclose(total, np.sum(parts, axis=0), atol=1e-10)
