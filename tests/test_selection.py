"""Model spaces and dynamic model probabilities, as the engine runs them.

The filter stores the asset table ``asset_log_weights`` as (masks x P, N), a
row per spec and a column per asset, and the factor table
``factor_log_weights`` as (equations, P).  ``select`` forgets both in place
(times alpha) and shifts each selected entry to 0; ``update_step`` adds the
kernel's one-step predictive densities to both.  Neither is renormalized: each
stays exact up to a constant per asset or equation, and the tests read the
asset table normalized, through ``asset_log_probs()``.  The tests drive
``_DynamicFactorFilter`` where the densities can come from the filters
themselves, and the engine's ``_log_probs`` where they are given.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from test_engine import small_panel

from riskcast import dlm
from riskcast._batch import _ols_residual_variance
from riskcast.engine import RunConfig, _DynamicFactorFilter, _log_probs
from riskcast.errors import ParameterError


def panel_with(K, N=2, T=40, seed=0):
    return small_panel(seed=seed, N=N, K=K, T=T, train=20)


def make_filter(K=2, N=2, **config):
    return _DynamicFactorFilter(panel_with(K, N), RunConfig(ordering="fixed", **config))


def normalized(log_probs, axis):
    """A normalized copy of log probabilities over ``axis``."""
    return _log_probs(np.array(log_probs, float), axis)


def forget(flt, log_probs):
    """The engine's forgetting step on given asset log probabilities, in the
    stored (specs, N) layout: (forgotten log probabilities, normalized over
    the specs, selected spec per asset)."""
    flt.asset_log_weights = np.array(log_probs, float)
    sel_assets, _ = flt.select()
    return flt.asset_log_probs(), sel_assets


def update(predicted, log_densities):
    """The engine's Bayes step on given predicted probabilities and densities,
    over the last axis, as in the factor table, read normalized."""
    return normalized(np.asarray(predicted, float) + np.asarray(log_densities, float), -1)


def spec_masks(flt):
    """Parent mask of each flattened asset spec, in the engine's layout."""
    return np.repeat(flt.masks, flt.P_r)


class TestBuildPool:
    def test_asset_space_size(self):
        # (2^K - 1) parent masks x |delta| x |kappa_r|
        flt = make_filter(K=5, delta_grid=(0.95, 0.975, 1.0), kappa_r_grid=(0.99, 0.995, 1.0))
        assert flt.asset_log_weights.shape == (31 * 9, 2) == (279, 2)
        assert all(m != 0 for m in flt.masks)
        np.testing.assert_allclose(logsumexp(flt.asset_log_probs(), axis=0), 0.0, atol=1e-12)

    def test_singleton_space(self):
        flt = make_filter(K=1, delta_grid=(1.0,), kappa_r_grid=(1.0,))
        assert flt.asset_log_weights.shape == (1, 2)
        np.testing.assert_allclose(np.exp(flt.asset_log_probs()), 1.0)

    def test_factor_equation_space(self):
        # enumeration oracle: one full mask over the preceding factors
        # x 3 deltas x 2 kappas = 6 models at every position; a fixed
        # ordering has one equation per position
        flt = make_filter(K=3, delta_grid=(0.95, 0.975, 1.0), kappa_f_grid=(0.999, 1.0))
        assert flt.factor_log_weights.shape == (3, 6)
        pool = flt.factor_pool
        # one pool over x = (1, factors), one group per equation
        assert (pool.d, pool.P, pool.n_eq, pool.groups) == (4, 6, 3, 3)
        zero = 1 + 3 + 2
        for jj in range(3):
            assert flt.factor_eq[jj].tolist() == [jj]
            # columns of x = (1, factors): the constant, then factor i at i + 1,
            # and the zero entry of z_t past the parents; the target is jj + 1
            assert flt.factor_cols[jj].tolist() == [*range(jj + 1), *[zero] * (3 - jj)]
            assert flt.factor_targets[jj] == jj + 1
        # learned orderings share equations: position j holds each (sorted
        # parent set, target) once, C(K, j) (K - j) members, K 2^(K-1) in all
        K = 4
        flt = _DynamicFactorFilter(panel_with(K), RunConfig(ordering="learn"))
        members = [(tuple(c for c in cols if c != 1 + K + 2), t)
                   for cols, t in zip(flt.factor_cols.tolist(), flt.factor_targets)]
        assert np.bincount([len(c) - 1 for c, _ in members]).tolist() == [4, 12, 12, 4]
        assert flt.factor_log_weights.shape == (K * 2 ** (K - 1), flt.P_f)
        assert flt.factor_pool.n_eq == flt.factor_pool.groups == len(members)
        assert len(set(members)) == len(members)
        for jj in range(K):
            for o, perm in enumerate(flt.perms):
                assert members[flt.factor_eq[jj, o]] == ((0, *sorted(perm[:jj] + 1)), perm[jj] + 1)

    @pytest.mark.parametrize("sparsity", [True, False])
    def test_asset_equation_layout(self, sparsity):
        # one pool, a group per parent mask; asset j on mask m regresses column
        # 1 + K + j of (1, factors, returns, 0) on (0, parents of m + 1), and
        # reads the zero entry in place of every other factor
        K, N = 3, 4
        flt = make_filter(K=K, N=N, sparsity=sparsity)
        assert flt.asset_pool.groups == (2 ** K - 1 if sparsity else 1)
        assert sorted(flt.masks) == (list(range(1, 1 << K)) if sparsity else [(1 << K) - 1])
        members = [(tuple(c for c in flt.asset_cols[i] if c != 1 + K + N), t)
                   for i, t in zip(np.repeat(np.arange(len(flt.masks)), N), flt.asset_targets)]
        assert len(members) == N * len(flt.masks) == flt.asset_pool.n_eq
        for j in range(N):
            for mi, m in enumerate(flt.masks):
                parents = tuple(i + 1 for i in range(K) if (m >> i) & 1)
                assert members[mi * N + j] == ((0, *parents), 1 + K + j)

    def test_zero_factor_asset_equation_rejected(self):
        with pytest.raises(ParameterError, match="factor_set"):
            make_filter(K=2, factor_set=())


class TestPredictProbs:
    def test_no_forgetting_is_identity(self):
        flt = make_filter(alpha=1.0)
        lp = normalized(np.random.default_rng(0).normal(size=flt.asset_log_weights.shape), 0)
        np.testing.assert_allclose(forget(flt, lp)[0], lp, atol=1e-14)

    def test_uniform_is_fixed_point(self):
        flt = make_filter(alpha=0.9)
        n = flt.asset_log_weights.shape[0]
        lp_pred, _ = forget(flt, np.full((n, 2), -np.log(n)))
        np.testing.assert_allclose(np.exp(lp_pred), 1.0 / n, atol=1e-14)

    def test_forgetting_formula(self):
        # direct evaluation: p_i^alpha renormalized
        flt = make_filter(alpha=0.99)
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 1.0, size=flt.asset_log_weights.shape)
        p /= p.sum(axis=0, keepdims=True)
        raw = p ** 0.99
        lp_pred, _ = forget(flt, np.log(p))
        np.testing.assert_allclose(np.exp(lp_pred), raw / raw.sum(axis=0, keepdims=True),
                                   atol=1e-12)


class TestUpdateProbs:
    def test_constant_likelihood_is_identity(self):
        pred = np.log([[0.6, 0.4]])
        np.testing.assert_allclose(update(pred, np.full((1, 2), -3.0)), pred, atol=1e-14)

    def test_dominant_model(self):
        post = update(np.log([[0.5, 0.5]]), np.array([[0.0, -1e6]]))
        np.testing.assert_allclose(np.exp(post), [[1.0, 0.0]], atol=1e-12)

    def test_cumulative_bayes_factor_oracle(self):
        # with alpha = 1 the posterior equals the normalized sums of each
        # spec's log predictive densities, computed here by the scalar kernel
        panel = panel_with(K=1, N=1, T=60, seed=2)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed", alpha=1.0,
                                                    delta_grid=(0.95, 1.0),
                                                    kappa_r_grid=(0.99, 1.0)))
        specs = [(d, k) for d in (0.95, 1.0) for k in (0.99, 1.0)]
        s0 = float(_ols_residual_variance(panel.R[:20], flt.X[:20])[0])
        states = [dlm.init_state(2, s0) for _ in specs]
        cum = np.zeros(len(specs))
        for t in range(panel.T):
            flt.update_step(t, flt.select())
            F = np.array([1.0, panel.F[t, 0]])
            y = float(panel.R[t, 0])
            for i, (d, k) in enumerate(specs):
                prior = dlm.evolve(states[i], d, k)
                cum[i] += dlm.log_predictive_density(dlm.forecast(prior, F), y)
                states[i] = dlm.update(prior, F, y)
        np.testing.assert_allclose(flt.asset_log_probs()[:, 0], cum - logsumexp(cum), atol=1e-8)


class RenormalizingFilter(_DynamicFactorFilter):
    """The former asset recursion, which holds the log probabilities
    themselves: ``select`` forgets the table and takes its argmax without
    shifting it, and ``update_step`` renormalizes it over its specs."""

    def select(self):
        forgotten = self.config.alpha * self.asset_log_weights
        selection = super().select()
        self.asset_log_weights[...] = forgotten
        return selection

    def update_step(self, t, selection):
        lpd = super().update_step(t, selection)
        self.asset_log_weights[...] = _log_probs(self.asset_log_weights, axis=0)
        return lpd


class TestUnnormalizedAssetTable:
    @pytest.mark.parametrize("alpha, T", [(1.0, 2100), (0.9, 400)])
    def test_matches_renormalizing_every_date(self, alpha, T):
        # the stored table differs from the renormalized one by a per-asset
        # constant: the same selections, and the same table once normalized,
        # as probabilities and as log probabilities relative to their size
        panel = small_panel(seed=31, N=4, K=2, T=T, train=40)
        cfg = RunConfig(ordering="fixed", alpha=alpha)
        flt, ref = _DynamicFactorFilter(panel, cfg), RenormalizingFilter(panel, cfg)
        for t in range(T):
            sel, sel_ref = flt.select(), ref.select()
            np.testing.assert_array_equal(sel[0], sel_ref[0])
            np.testing.assert_array_equal(sel[1], sel_ref[1])
            assert flt.update_step(t, sel) == ref.update_step(t, sel_ref)
            lp, lp_ref = flt.asset_log_probs(), ref.asset_log_weights
            np.testing.assert_allclose(np.exp(lp), np.exp(lp_ref), rtol=0, atol=1e-12)
            assert np.all(np.abs(lp - lp_ref) <= 1e-12 * np.maximum(1.0, np.abs(lp_ref)))
        # select recenters each asset on its selected spec, whose entry is the
        # largest, so the stored table stays bounded at alpha = 1 too
        sel_assets, _ = flt.select()
        lw = flt.asset_log_weights
        assert np.array_equal(lw[sel_assets, np.arange(4)], np.zeros(4))
        assert np.array_equal(lw.max(axis=0), np.zeros(4))


class TestSelectBest:
    def test_argmax(self):
        flt = make_filter(K=1, N=1, delta_grid=(0.95, 1.0), kappa_r_grid=(0.99, 1.0))
        _, sel = forget(flt, np.log([[0.2], [0.4], [0.3], [0.1]]))
        assert sel[0] == 1

    def test_tie_breaks_low_index(self):
        flt = make_filter()
        n = flt.asset_log_weights.shape[0]
        lp = np.full((n, 2), -np.log(n))
        _, sel = forget(flt, lp)
        np.testing.assert_array_equal(sel, 0)
        lp[:, 1] = np.log(np.r_[0.001, np.full(n - 1, 0.999 / (n - 1))])
        _, sel = forget(flt, lp)
        assert sel[1] == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        flt = make_filter(K=1, N=1, delta_grid=(0.95, 1.0), kappa_r_grid=(0.99, 1.0))
        w = rng.uniform(0.1, 1.0, size=(4, 1))
        base = forget(flt, normalized(np.log(w), 0))[1]
        for c in (1e-7, 3.0, 1e9):
            assert forget(flt, normalized(np.log(c * w), 0))[1] == base


class TestInclusionProbability:
    def test_singleton_containing(self):
        flt = make_filter(K=1)
        flt.update_step(0, flt.select())
        np.testing.assert_allclose(flt.inclusion(), 1.0, atol=1e-12)

    def test_uniform_enumeration_oracle(self):
        # masks {01, 10, 11}: with the probabilities left uniform by equal
        # densities (the first date's factors zero, so every mask forecasts from
        # its prior alone; one spec per mask), factor 0 sits in 2 of 3.  The
        # training window keeps its factors, as a constant one is rejected.
        panel = panel_with(K=2)
        panel.F[0] = 0.0
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed", delta_grid=(1.0,),
                                                    kappa_r_grid=(1.0,)))
        flt.update_step(0, flt.select())
        np.testing.assert_allclose(flt.inclusion(), 2.0 / 3.0, atol=1e-12)

    def test_partition_sums_to_one(self):
        # brute force over the specs: inclusion is the total probability of
        # the specs whose parent mask holds the factor, exclusion the rest
        flt = make_filter(K=3, N=3)
        for t in range(10):
            flt.update_step(t, flt.select())
        inclusion = flt.inclusion()
        p = np.exp(flt.asset_log_probs())
        masks = spec_masks(flt)
        for k in range(3):
            holds = (masks >> k) & 1 == 1
            np.testing.assert_allclose(inclusion[:, k], p[holds].sum(axis=0), atol=1e-12)
            np.testing.assert_allclose(inclusion[:, k] + p[~holds].sum(axis=0), 1.0,
                                       atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ParameterError, match="factor_set"):
            make_filter(K=1, factor_set=(1,))

    def test_monotone_under_reweighting(self):
        # moving probability onto the specs holding factor 0 raises its inclusion
        base, shifted = make_filter(K=2, N=1), make_filter(K=2, N=1)
        for flt in (base, shifted):
            flt.update_step(0, flt.select())
        holds = (spec_masks(shifted) & 1) == 1
        shifted.asset_log_weights = normalized(shifted.asset_log_probs() + holds[:, None], 0)
        for flt in (base, shifted):
            flt.update_step(1, flt.select())
        after = [flt.inclusion()[0, 0] for flt in (base, shifted)]
        assert after[1] > after[0]


class TestProperties:
    @given(st.integers(2, 40), st.floats(0.5, 1.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_normalization_preserved(self, m, alpha, seed):
        rng = np.random.default_rng(seed)
        lp = normalized(rng.normal(size=(3, m)), -1)
        lp = normalized(alpha * lp, -1)
        np.testing.assert_array_less(np.abs(logsumexp(lp, axis=1)), 1e-10)
        lp = update(lp, rng.normal(size=(3, m)))
        np.testing.assert_array_less(np.abs(logsumexp(lp, axis=1)), 1e-10)

    def test_discounted_likelihood_identity(self):
        # two specs per asset (one mask, delta in {0.95, 1}): after the update
        # at t the log-odds equal sum_l alpha^l * density difference at t-l,
        # with the densities from the scalar kernel
        alpha = 0.95
        panel = panel_with(K=1, N=1, T=30, seed=4)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed", alpha=alpha,
                                                    delta_grid=(0.95, 1.0),
                                                    kappa_r_grid=(1.0,)))
        s0 = float(_ols_residual_variance(panel.R[:20], flt.X[:20])[0])
        states = [dlm.init_state(2, s0) for _ in range(2)]
        diffs = []
        for t in range(panel.T):
            flt.update_step(t, flt.select())
            F = np.array([1.0, panel.F[t, 0]])
            y = float(panel.R[t, 0])
            dens = []
            for i, d in enumerate((0.95, 1.0)):
                prior = dlm.evolve(states[i], d, 1.0)
                dens.append(dlm.log_predictive_density(dlm.forecast(prior, F), y))
                states[i] = dlm.update(prior, F, y)
            diffs.append(dens[0] - dens[1])
            expected = sum(alpha ** l * diffs[-1 - l] for l in range(len(diffs)))
            lp = flt.asset_log_probs()[:, 0]
            assert lp[0] - lp[1] == pytest.approx(expected, abs=1e-8)
