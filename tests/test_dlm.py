"""Conjugate DLM kernel: examples, batch-regression oracle, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from _oracles import batch_nig_posterior
from riskcast import dlm
from riskcast._batch import C0_STAR, N0
from riskcast.errors import NumericError, ParameterError, ShapeError


def run_filter(X, y, state, delta=1.0, kappa=1.0):
    for t in range(len(y)):
        state = dlm.update(dlm.evolve(state, delta, kappa), X[t], y[t])
    return state


class TestInitState:
    def test_scalar_prior(self):
        st0 = dlm.init_state(1, 0.04)
        assert st0.m.tolist() == [0.0]
        assert st0.C.tolist() == [[C0_STAR * 0.04]]
        assert st0.n == N0 and st0.s == 0.04

    def test_identity_scale(self):
        # C0 = c0 s0 I, on the scale of the prior variance
        st0 = dlm.init_state(3, 0.5, c0=100.0)
        np.testing.assert_array_equal(st0.C, 50.0 * np.eye(3))

    def test_zero_dim_rejected(self):
        with pytest.raises(ParameterError):
            dlm.init_state(0, 1.0)

    def test_nonpositive_s0_rejected(self):
        with pytest.raises(ParameterError):
            dlm.init_state(1, 0.0)


class TestEvolve:
    def test_unit_discounts_are_identity(self):
        st0 = dlm.init_state(2, 0.5)
        pr = dlm.evolve(st0, 1.0, 1.0)
        np.testing.assert_array_equal(pr.a, st0.m)
        np.testing.assert_array_equal(pr.R, st0.C)
        assert pr.r == st0.n and pr.s_prev == st0.s

    def test_scale_inflation(self):
        st0 = dlm.NGState([0.0], [[2.0]], 10.0, 1.0)
        assert dlm.evolve(st0, 0.5, 1.0).R[0, 0] == 4.0

    def test_dof_deflation(self):
        st0 = dlm.init_state(1, 1.0)
        assert dlm.evolve(st0, 1.0, 0.99).r == pytest.approx(0.99 * N0)

    def test_discount_range(self):
        st0 = dlm.init_state(1, 1.0)
        with pytest.raises(ParameterError):
            dlm.evolve(st0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            dlm.evolve(st0, 1.0, 1.0001)


class TestForecast:
    def test_zero_uncertainty_limit(self):
        pr = dlm.PriorState([0.3], [[1e-30]], 10.0, 0.04)
        fc = dlm.forecast(pr, [1.0])
        assert fc.f == pytest.approx(0.3)
        assert fc.q == pytest.approx(0.04)

    def test_direct_matrix_arithmetic(self):
        # oracle: f = F.a = 0.1 + 0.4 = 0.5, q = 1 + F I F = 1 + 5 = 6
        pr = dlm.PriorState([0.1, 0.2], np.eye(2), 5.0, 1.0)
        fc = dlm.forecast(pr, [1.0, 2.0])
        assert fc.f == pytest.approx(0.5)
        assert fc.q == pytest.approx(6.0)
        assert fc.dof == 5.0

    def test_dimension_mismatch(self):
        pr = dlm.PriorState(np.zeros(3), np.eye(3), 5.0, 1.0)
        with pytest.raises(ShapeError):
            dlm.forecast(pr, [1.0, 2.0])


class TestLogPredictiveDensity:
    def test_gaussian_limit(self):
        fc = dlm.TForecast(0.0, 1.0, 1e8)
        assert dlm.log_predictive_density(fc, 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-6)

    def test_symmetry(self):
        fc = dlm.TForecast(0.7, 2.0, 6.0)
        for c in (0.1, 1.5, 10.0):
            assert dlm.log_predictive_density(fc, 0.7 + c) == pytest.approx(
                dlm.log_predictive_density(fc, 0.7 - c))

    def test_known_value_dof3(self):
        # closed form at the mode: Gamma(2) / (Gamma(1.5) sqrt(3 pi))
        fc = dlm.TForecast(0.0, 1.0, 3.0)
        expected = gammaln(2.0) - gammaln(1.5) - 0.5 * np.log(3 * np.pi)
        assert dlm.log_predictive_density(fc, 0.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dof,q,f", [(3.0, 1.0, 0.0), (5.0, 0.2, 1.3), (25.0, 4.0, -2.0)])
    def test_density_integrates_to_one(self, dof, q, f):
        # quadrature oracle over the full line
        total, _ = quad(lambda y: np.exp(dlm.log_predictive_density(dlm.TForecast(f, q, dof), y)),
                        -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestUpdate:
    def test_zero_error_shrinks_s(self):
        pr = dlm.PriorState([0.5], [[2.0]], 10.0, 1.0)
        post = dlm.update(pr, [1.0], 0.5)
        np.testing.assert_allclose(post.m, pr.a)
        assert post.s == pytest.approx(10.0 / 11.0)
        assert post.n == 11.0

    def test_scalar_hand_case(self):
        # q = 1 + 100 = 101, e = 2, A = 100/101, m = 200/101
        pr = dlm.PriorState([0.0], [[100.0]], 10.0, 1.0)
        post = dlm.update(pr, [1.0], 2.0)
        assert post.m[0] == pytest.approx(200.0 / 101.0, abs=1e-14)
        assert post.n == 11.0
        z = (10.0 + 4.0 / 101.0) / 11.0
        assert post.s == pytest.approx(z)
        assert post.C[0, 0] == pytest.approx((100.0 - (100.0 / 101.0) ** 2 * 101.0) * z)

    def test_batch_conjugate_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            T = int(rng.integers(3, 120))
            X = rng.normal(size=(T, d))
            y = rng.normal(size=T)
            n0 = float(rng.uniform(3, 20))
            s0 = float(rng.uniform(0.1, 4))
            state = dlm.NGState(np.zeros(d), 100.0 * np.eye(d), n0, s0)
            final = run_filter(X, y, state)
            m, C, n, s = batch_nig_posterior(X, y, np.zeros(d), 100.0 * np.eye(d), n0, s0)
            np.testing.assert_allclose(final.m, m, atol=1e-10)
            np.testing.assert_allclose(final.C, C, atol=1e-10)
            assert final.n == pytest.approx(n, abs=1e-10)
            assert final.s == pytest.approx(s, abs=1e-10)

    def test_dimension_mismatch(self):
        pr = dlm.PriorState(np.zeros(2), np.eye(2), 5.0, 1.0)
        with pytest.raises(ShapeError):
            dlm.update(pr, [1.0], 0.0)


class TestProperties:
    @given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_filter_invariants(self, d, T, seed):
        rng = np.random.default_rng(seed)
        state = dlm.init_state(d, float(rng.uniform(0.1, 2)))
        delta = float(rng.uniform(0.9, 1.0))
        kappa = float(rng.uniform(0.9, 1.0))
        for _ in range(T):
            F = rng.normal(size=d)
            prior = dlm.evolve(state, delta, kappa)
            state = dlm.update(prior, F, float(rng.normal()))
            assert state.n == pytest.approx(prior.r + 1.0)
            assert state.s > 0
            np.linalg.cholesky(state.C)  # stays SPD

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_forecast_mean_linear_in_location(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        F = rng.normal(size=d)
        R = np.eye(d)
        a1, a2 = rng.normal(size=d), rng.normal(size=d)
        f1 = dlm.forecast(dlm.PriorState(a1, R, 5.0, 1.0), F).f
        f2 = dlm.forecast(dlm.PriorState(a2, R, 5.0, 1.0), F).f
        f12 = dlm.forecast(dlm.PriorState(a1 + a2, R, 5.0, 1.0), F).f
        assert f12 == pytest.approx(f1 + f2, rel=1e-10, abs=1e-12)

    def test_dof_grows_by_one_with_unit_kappa(self):
        state = dlm.init_state(1, 1.0)
        rng = np.random.default_rng(0)
        for t in range(1, 11):
            state = dlm.update(dlm.evolve(state, 1.0, 1.0), [1.0], float(rng.normal()))
            assert state.n == N0 + t
