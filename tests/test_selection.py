"""Model spaces and dynamic model probabilities, as the engine runs them.

Every pool forgets its log probabilities (times alpha) in ``forecast_step``
and Bayes-updates them with the kernel's one-step predictive densities in
``update_step``, which renormalizes with ``_normalize_rows``; the forgotten
probabilities are left unnormalized, since the update removes any row
constant.  The tests drive ``_DynamicFactorFilter`` where the densities can
come from the filters themselves, and ``_normalize_rows`` where they are
given.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from test_engine import small_panel

from riskcast import dlm
from riskcast.engine import RunConfig, _DynamicFactorFilter, _normalize_rows
from riskcast.errors import ParameterError


def panel_with(K, N=2, T=40, seed=0):
    return small_panel(seed=seed, N=N, K=K, T=T, train=20)


def make_filter(K=2, N=2, **config):
    return _DynamicFactorFilter(panel_with(K, N), RunConfig(ordering="fixed", **config))


def forget(flt, log_probs):
    """The engine's forgetting step on given asset log probabilities:
    (predicted log probabilities, normalized, selected spec per asset)."""
    flt.asset_log_probs = np.asarray(log_probs, float)
    sel_assets, _, _, lp_pred, _ = flt.forecast_step()[-1]
    return _normalize_rows(lp_pred), sel_assets


def update(predicted, log_densities):
    """The engine's Bayes step on given predicted probabilities and densities."""
    return _normalize_rows(np.asarray(predicted, float) + np.asarray(log_densities, float))


def spec_masks(flt):
    """Parent mask of each flattened asset spec, in the engine's layout."""
    return np.repeat(flt.masks, flt.P_r)


class TestBuildPool:
    def test_asset_space_size(self):
        # (2^K - 1) parent masks x |delta| x |kappa_r|
        flt = make_filter(K=5, delta_grid=(0.95, 0.975, 1.0), kappa_r_grid=(0.99, 0.995, 1.0))
        assert flt.asset_log_probs.shape == (2, 31 * 9) == (2, 279)
        assert all(m != 0 for m in flt.masks)
        np.testing.assert_allclose(logsumexp(flt.asset_log_probs, axis=1), 0.0, atol=1e-12)

    def test_singleton_space(self):
        flt = make_filter(K=1, delta_grid=(1.0,), kappa_r_grid=(1.0,))
        assert flt.asset_log_probs.shape == (2, 1)
        np.testing.assert_allclose(np.exp(flt.asset_log_probs), 1.0)

    def test_factor_equation_space(self):
        # enumeration oracle: one full mask over the preceding factors
        # x 3 deltas x 2 kappas = 6 models at every position; a fixed
        # ordering has one equation per position
        flt = make_filter(K=3, delta_grid=(0.95, 0.975, 1.0), kappa_f_grid=(0.999, 1.0))
        for jj, grp in enumerate(flt.factor_groups):
            assert list(grp.idx) == list(range(jj))
            assert grp.P == 6
            assert grp.n_eq == 1
            assert flt.factor_log_probs[jj].shape == (1, 6)
            # columns of x = (1, factors): the constant, then factor i at i + 1
            assert flt.factor_cols[jj].tolist() == [list(range(jj + 1))]
            assert flt.factor_targets[jj].tolist() == [jj + 1]
        # learned orderings share equations: position j holds each (sorted
        # parent set, target) once, C(K, j) (K - j) members, K 2^(K-1) in all
        K = 4
        flt = _DynamicFactorFilter(panel_with(K), RunConfig(ordering="learn"))
        assert [grp.n_eq for grp in flt.factor_groups] == [4, 12, 12, 4]
        assert sum(grp.n_eq for grp in flt.factor_groups) == K * 2 ** (K - 1)
        for jj, grp in enumerate(flt.factor_groups):
            assert flt.factor_log_probs[jj].shape == (grp.n_eq, grp.P)
            members = list(zip(map(tuple, flt.factor_cols[jj].tolist()),
                               flt.factor_targets[jj].tolist()))
            assert len(set(members)) == grp.n_eq
            for o, perm in enumerate(flt.perms):
                assert members[flt.factor_eq[jj][o]] == ((0, *sorted(perm[:jj] + 1)), perm[jj] + 1)

    def test_zero_factor_asset_equation_rejected(self):
        with pytest.raises(ParameterError, match="factor_set"):
            make_filter(K=2, factor_set=())


class TestPredictProbs:
    def test_no_forgetting_is_identity(self):
        flt = make_filter(alpha=1.0)
        lp = _normalize_rows(np.random.default_rng(0).normal(size=flt.asset_log_probs.shape))
        np.testing.assert_allclose(forget(flt, lp)[0], lp, atol=1e-14)

    def test_uniform_is_fixed_point(self):
        flt = make_filter(alpha=0.9)
        n = flt.asset_log_probs.shape[1]
        lp_pred, _ = forget(flt, np.full((2, n), -np.log(n)))
        np.testing.assert_allclose(np.exp(lp_pred), 1.0 / n, atol=1e-14)

    def test_forgetting_formula(self):
        # direct evaluation: p_i^alpha renormalized
        flt = make_filter(alpha=0.99)
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 1.0, size=flt.asset_log_probs.shape)
        p /= p.sum(axis=1, keepdims=True)
        raw = p ** 0.99
        lp_pred, _ = forget(flt, np.log(p))
        np.testing.assert_allclose(np.exp(lp_pred), raw / raw.sum(axis=1, keepdims=True),
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
        states = [dlm.init_state(2, float(flt.s0_assets[0])) for _ in specs]
        cum = np.zeros(len(specs))
        for t in range(panel.T):
            flt.update_step(t, flt.forecast_step()[-1])
            F = np.array([1.0, panel.F[t, 0]])
            y = float(panel.R[t, 0])
            for i, (d, k) in enumerate(specs):
                prior = dlm.evolve(states[i], d, k)
                cum[i] += dlm.log_predictive_density(dlm.forecast(prior, F), y)
                states[i] = dlm.update(prior, F, y)
        np.testing.assert_allclose(flt.asset_log_probs[0], cum - logsumexp(cum), atol=1e-8)


class TestSelectBest:
    def test_argmax(self):
        flt = make_filter(K=1, N=1, delta_grid=(0.95, 1.0), kappa_r_grid=(0.99, 1.0))
        _, sel = forget(flt, np.log([[0.2, 0.4, 0.3, 0.1]]))
        assert sel[0] == 1

    def test_tie_breaks_low_index(self):
        flt = make_filter()
        n = flt.asset_log_probs.shape[1]
        lp = np.full((2, n), -np.log(n))
        _, sel = forget(flt, lp)
        np.testing.assert_array_equal(sel, 0)
        lp[1] = np.log(np.r_[0.001, np.full(n - 1, 0.999 / (n - 1))])
        _, sel = forget(flt, lp)
        assert sel[1] == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        flt = make_filter(K=1, N=1, delta_grid=(0.95, 1.0), kappa_r_grid=(0.99, 1.0))
        w = rng.uniform(0.1, 1.0, size=(1, 4))
        base = forget(flt, _normalize_rows(np.log(w)))[1]
        for c in (1e-7, 3.0, 1e9):
            assert forget(flt, _normalize_rows(np.log(c * w)))[1] == base


class TestInclusionProbability:
    def test_singleton_containing(self):
        flt = make_filter(K=1)
        flt.update_step(0, flt.forecast_step()[-1])
        np.testing.assert_allclose(flt.inclusion(), 1.0, atol=1e-12)

    def test_uniform_enumeration_oracle(self):
        # masks {01, 10, 11}: with the probabilities left uniform by equal
        # densities (all loadings zero, one spec per mask), factor 0 sits in 2 of 3
        panel = panel_with(K=2)
        panel.F[:] = 0.0
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed", delta_grid=(1.0,),
                                                    kappa_r_grid=(1.0,)))
        flt.update_step(0, flt.forecast_step()[-1])
        np.testing.assert_allclose(flt.inclusion(), 2.0 / 3.0, atol=1e-12)

    def test_partition_sums_to_one(self):
        # brute force over the specs: inclusion is the total probability of
        # the specs whose parent mask holds the factor, exclusion the rest
        flt = make_filter(K=3, N=3)
        for t in range(10):
            flt.update_step(t, flt.forecast_step()[-1])
        inclusion = flt.inclusion()
        p = np.exp(flt.asset_log_probs)
        masks = spec_masks(flt)
        for k in range(3):
            holds = (masks >> k) & 1 == 1
            np.testing.assert_allclose(inclusion[:, k], p[:, holds].sum(axis=1), atol=1e-12)
            np.testing.assert_allclose(inclusion[:, k] + p[:, ~holds].sum(axis=1), 1.0,
                                       atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ParameterError, match="factor_set"):
            make_filter(K=1, factor_set=(1,))

    def test_monotone_under_reweighting(self):
        # moving probability onto the specs holding factor 0 raises its inclusion
        base, shifted = make_filter(K=2, N=1), make_filter(K=2, N=1)
        for flt in (base, shifted):
            flt.update_step(0, flt.forecast_step()[-1])
        holds = (spec_masks(shifted) & 1) == 1
        shifted.asset_log_probs = _normalize_rows(shifted.asset_log_probs + holds)
        for flt in (base, shifted):
            flt.update_step(1, flt.forecast_step()[-1])
        after = [flt.inclusion()[0, 0] for flt in (base, shifted)]
        assert after[1] > after[0]


class TestProperties:
    @given(st.integers(2, 40), st.floats(0.5, 1.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_normalization_preserved(self, m, alpha, seed):
        rng = np.random.default_rng(seed)
        lp = _normalize_rows(rng.normal(size=(3, m)))
        lp = _normalize_rows(alpha * lp)
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
        states = [dlm.init_state(2, float(flt.s0_assets[0])) for _ in range(2)]
        diffs = []
        for t in range(panel.T):
            flt.update_step(t, flt.forecast_step()[-1])
            F = np.array([1.0, panel.F[t, 0]])
            y = float(panel.R[t, 0])
            dens = []
            for i, d in enumerate((0.95, 1.0)):
                prior = dlm.evolve(states[i], d, 1.0)
                dens.append(dlm.log_predictive_density(dlm.forecast(prior, F), y))
                states[i] = dlm.update(prior, F, y)
            diffs.append(dens[0] - dens[1])
            expected = sum(alpha ** l * diffs[-1 - l] for l in range(len(diffs)))
            lp = flt.asset_log_probs[0]
            assert lp[0] - lp[1] == pytest.approx(expected, abs=1e-8)
