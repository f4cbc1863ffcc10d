"""Factor ordering enumeration, probabilities and moment mixing.

The ordering probabilities run the engine's forget-then-Bayes recursion:
``forecast_step`` forgets them with ``alpha_ord`` and ``update_step`` adds
each ordering's joint factor density, both renormalized by
``_normalize_rows``.
"""

import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from test_engine import small_panel

from riskcast import dlm
from riskcast.engine import RunConfig, _DynamicFactorFilter, _normalize_rows
from riskcast.errors import CapacityError
from riskcast.ordering import enumerate_orderings, mixture_factor_moments, to_canonical


def update_ordering_probs(log_probs, log_densities, alpha_ord):
    """The engine's two steps on given ordering densities: forget, then Bayes."""
    return _normalize_rows(_normalize_rows(alpha_ord * np.asarray(log_probs, float))
                           + log_densities)


def factor_panel(K, seed=0):
    return small_panel(seed=seed, N=2, K=K, T=50, train=20)


class TestEnumerateOrderings:
    def test_single_factor(self):
        assert enumerate_orderings(1) == [(0,)]

    def test_three_factors_lexicographic(self):
        perms = enumerate_orderings(3)
        assert len(perms) == 6
        assert perms == sorted(perms)

    def test_cap_enforced(self):
        with pytest.raises(CapacityError, match="fixed ordering"):
            enumerate_orderings(7)


class TestUpdateOrderingProbs:
    def test_single_ordering_stays_certain(self):
        panel = factor_panel(K=2)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed", alpha_ord=0.99))
        for t in range(5):
            flt.update_step(t, flt.forecast_step()[-1])
            assert flt.ordering_log_probs.tolist() == [0.0]

    def test_identical_densities_are_neutral(self):
        start = np.log([0.25, 0.25, 0.5])
        lp = update_ordering_probs(start, np.full(3, -2.0), 1.0)
        np.testing.assert_allclose(lp, start, atol=1e-12)

    def test_scalar_bayes(self):
        lp = update_ordering_probs(np.log([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)
        e = np.e
        np.testing.assert_allclose(np.exp(lp), [e / (1 + e), 1 / (1 + e)], atol=1e-12)

    @pytest.mark.parametrize("K", [2, 3])
    def test_cumulative_product_oracle(self, K):
        # alpha_ord = 1: the engine's ordering posterior equals the normalized
        # cumulative joint factor densities, here from scalar filters per
        # (ordering, position) with one spec each; at K = 3 orderings share
        # equations, which the engine filters once
        panel = factor_panel(K=K, seed=4)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="learn", alpha_ord=1.0,
                                                    delta_grid=(1.0,), kappa_f_grid=(1.0,)))
        train = panel.train_len
        states = {}
        for o, perm in enumerate(flt.perms):
            for j in range(K):
                X = np.column_stack([np.ones(train), panel.F[:train, perm[:j]]])
                y = panel.F[:train, perm[j]]
                coef, *_ = np.linalg.lstsq(X, y, rcond=None)
                states[o, j] = dlm.init_state(1 + j, float((y - X @ coef).var()))
        cum = np.zeros(flt.n_ord)
        for t in range(panel.T):
            flt.update_step(t, flt.forecast_step()[-1])
            for o, perm in enumerate(flt.perms):
                for j in range(K):
                    F = np.concatenate(([1.0], panel.F[t, perm[:j]]))
                    y = float(panel.F[t, perm[j]])
                    prior = dlm.evolve(states[o, j], 1.0, 1.0)
                    cum[o] += dlm.log_predictive_density(dlm.forecast(prior, F), y)
                    states[o, j] = dlm.update(prior, F, y)
            np.testing.assert_allclose(flt.ordering_log_probs, cum - logsumexp(cum), atol=1e-8)

    def test_learned_moments_mix_the_fixed_orderings(self):
        # every ordering of a learned filter runs like a fixed-ordering filter
        # over the factors taken in that order, so the learned factor moments
        # are the mixture of those filters' moments under the forgotten
        # ordering probabilities; the engine filters shared equations once.
        # K = 4 puts three parents at the last position, so a mismatch between
        # coefficient order and parent order cannot cancel out
        panel = factor_panel(K=4, seed=6)
        grids = dict(delta_grid=(0.95, 1.0), kappa_f_grid=(0.999, 1.0), sparsity=False)
        learned = _DynamicFactorFilter(panel, RunConfig(ordering="learn", **grids))
        fixed = [_DynamicFactorFilter(panel, RunConfig(ordering="fixed", factor_set=tuple(perm),
                                                       **grids))
                 for perm in learned.perms]
        for t in range(panel.T):
            *_, lam, sig, selection = learned.forecast_step()
            means, covs = [], []
            for perm, flt in zip(learned.perms, fixed):
                *_, lam_o, sig_o, sel_o = flt.forecast_step()
                mean_o, cov_o = to_canonical(perm, lam_o, sig_o)
                means.append(mean_o)
                covs.append(cov_o)
                flt.update_step(t, sel_o)
            # law of total mean and variance over the forgotten ordering probabilities
            p = np.exp(selection[2])
            lam_mix = p @ np.array(means)
            dev = np.array(means) - lam_mix
            sig_mix = (np.einsum("o,oij->ij", p, np.array(covs))
                       + np.einsum("o,oi,oj->ij", p, dev, dev))
            np.testing.assert_allclose(lam, lam_mix, rtol=1e-11, atol=1e-15)
            np.testing.assert_allclose(sig, sig_mix, rtol=1e-11, atol=1e-15)
            learned.update_step(t, selection)


def second_moments(lam, sig):
    """Per-component E[x x'] of x = (1, factors) from means (o, K) and covariances (o, K, K)."""
    lam, sig = np.asarray(lam, float), np.asarray(sig, float)
    S = np.zeros((lam.shape[0], lam.shape[1] + 1, lam.shape[1] + 1))
    S[:, 0, 0] = 1.0
    S[:, 0, 1:] = S[:, 1:, 0] = lam
    S[:, 1:, 1:] = sig + np.einsum("oi,oj->oij", lam, lam)
    return S


class TestMixtureMoments:
    def test_identity_for_single_component(self):
        lam = np.array([[0.1, -0.2]])
        sig = np.array([[[1.0, 0.2], [0.2, 2.0]]])
        m, S = mixture_factor_moments(np.array([0.0]), second_moments(lam, sig))
        np.testing.assert_allclose(m, lam[0], atol=1e-14)
        np.testing.assert_allclose(S, sig[0], atol=1e-14)

    def test_equal_means_average_covariances(self):
        lam = np.array([[0.3], [0.3]])
        sig = np.array([[[1.0]], [[3.0]]])
        _, S = mixture_factor_moments(np.log([0.5, 0.5]), second_moments(lam, sig))
        assert S[0, 0] == pytest.approx(2.0)

    def test_law_of_total_variance_hand_check(self):
        # components (0, 1) and (2, 1) with equal weight: mean 1, var 1 + 1 = 2;
        # cross-verified by sampling from the two-component mixture
        lam = np.array([[0.0], [2.0]])
        sig = np.array([[[1.0]], [[1.0]]])
        m, S = mixture_factor_moments(np.log([0.5, 0.5]), second_moments(lam, sig))
        assert m[0] == pytest.approx(1.0)
        assert S[0, 0] == pytest.approx(2.0)
        rng = np.random.default_rng(0)
        comp = rng.integers(0, 2, size=200_000)
        draws = rng.normal(loc=2.0 * comp, scale=1.0)
        assert draws.var() == pytest.approx(2.0, abs=3 * draws.var() * np.sqrt(2 / draws.size) + 0.01)

    def test_between_component_spread_is_psd(self):
        rng = np.random.default_rng(9)
        K, n = 3, 5
        lam = rng.normal(size=(n, K))
        sig = np.array([np.eye(K) * rng.uniform(0.5, 2) for _ in range(n)])
        lw = rng.normal(size=n)
        lw -= logsumexp(lw)
        _, S = mixture_factor_moments(lw, second_moments(lam, sig))
        within = np.einsum("o,oij->ij", np.exp(lw), sig)
        eig = np.linalg.eigvalsh(S - within)
        assert eig.min() > -1e-12


class TestCanonicalMapping:
    def test_identity_perm(self):
        lam = np.array([1.0, 2.0, 3.0])
        sig = np.diag([1.0, 2.0, 3.0])
        m, S = to_canonical((0, 1, 2), lam, sig)
        np.testing.assert_array_equal(m, lam)
        np.testing.assert_array_equal(S, sig)

    def test_round_trip_under_permutation(self):
        rng = np.random.default_rng(5)
        for perm in itertools.permutations(range(3)):
            lam_p = rng.normal(size=3)
            A = rng.normal(size=(3, 3))
            sig_p = A @ A.T
            m, S = to_canonical(perm, lam_p, sig_p)
            # position i of the permuted frame describes factor perm[i]
            for i, fac in enumerate(perm):
                assert m[fac] == lam_p[i]
                for j, fac2 in enumerate(perm):
                    assert S[fac, fac2] == sig_p[i, j]

    def test_relabeling_coherence(self):
        # applying one relabeling g to both the permutation and the factor ids
        # leaves canonical moments invariant up to g
        rng = np.random.default_rng(8)
        perm = (2, 0, 1)
        lam_p = rng.normal(size=3)
        A = rng.normal(size=(3, 3))
        sig_p = A @ A.T
        m1, S1 = to_canonical(perm, lam_p, sig_p)
        g = np.array([1, 2, 0])  # factor i becomes g[i]
        perm_g = tuple(g[list(perm)])
        m2, S2 = to_canonical(perm_g, lam_p, sig_p)
        np.testing.assert_allclose(m2[g], m1, atol=1e-14)
        np.testing.assert_allclose(S2[np.ix_(g, g)], S1, atol=1e-14)

    def test_forget_uniform_fixed_point(self):
        flt = _DynamicFactorFilter(factor_panel(K=3), RunConfig(ordering="learn", alpha_ord=0.9))
        lp_ord_pred = flt.forecast_step()[-1][2]
        np.testing.assert_allclose(lp_ord_pred, np.full(6, -np.log(6)), atol=1e-14)
