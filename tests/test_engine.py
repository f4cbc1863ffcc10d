"""Engine orchestration: oracle compositions, determinism, timing discipline."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from riskcast import dlm, engine, portfolio as pf, recouple
from riskcast._batch import (N0, PoolGroup, _ols_residual_variance, asset_covariance,
                             batched_asset_moments, moment_offsets, recursive_factor_moments)
from riskcast.data import ReturnPanel, SyntheticSpec, generate_synthetic
from riskcast.engine import (MODEL_NAME, RunConfig, _DynamicFactorFilter, logsumexp, run_backtest,
                             run_statistics_only)
from riskcast.errors import NumericError, ParameterError


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


def scalar_step(state, F, y, delta, kappa):
    """One step of the scalar ``dlm`` kernel: (f, q, log density, posterior)."""
    prior = dlm.evolve(state, delta, kappa)
    fc = dlm.forecast(prior, F)
    return fc.f, fc.q, dlm.log_predictive_density(fc, y), dlm.update(prior, F, y)


def extended_init(dim, s0, c0):
    c0, s0 = np.longdouble(c0), np.longdouble(s0)
    return SimpleNamespace(m=np.zeros(dim, np.longdouble), n=np.longdouble(N0), s=s0,
                           C=c0 * s0 * np.eye(dim, dtype=np.longdouble))


def extended_step(state, F, y, delta, kappa):
    """``scalar_step``'s recursions in np.longdouble, so that its own rounding
    lies far below the float64 kernel's."""
    F, y = np.asarray(F, np.longdouble), np.longdouble(y)
    R, r = state.C / np.longdouble(delta), np.longdouble(kappa) * state.n
    f, q = F @ state.m, state.s + F @ R @ F
    e = y - f
    A = R @ F / q
    z = (r + e * e / q) / (r + 1)
    # gammaln has no extended-precision loop; its constant is rounded once
    dens = (gammaln((float(r) + 1.0) / 2.0) - gammaln(float(r) / 2.0)
            - np.log(r * np.longdouble(np.pi) * q) / 2 - (r + 1) / 2 * np.log1p(e * e / (r * q)))
    return f, q, dens, SimpleNamespace(m=state.m + A * e, C=(R - np.outer(A, A) * q) * z,
                                       n=r + 1, s=state.s * z)


def check_pool_group_against_reference(per_equation_regressors, deltas=(0.998, 1.0),
                                       kappas=(0.99, 1.0), steps=15, jump_at=None,
                                       tol=None, dens_tol=None, extended=False):
    """Advance a PoolGroup and a per-state reference kernel side by side.

    The reference is the scalar ``dlm`` kernel, or with ``extended`` the same
    recursions in np.longdouble.  With ``per_equation_regressors`` every
    equation gets its own regressor row in F (b, d); otherwise the equations
    form one group on one row F (1, d), as in ``FactorWishartDLM``.  Both
    start from C0 = 100 s0 I, so the magnitudes match the tolerances.  From
    step ``jump_at`` on, the observations' scale is 4 times larger.  ``tol``
    and ``dens_tol`` are the ``assert_allclose`` tolerances of the states and
    forecasts and of the densities.
    """
    tol = tol or dict(rtol=0, atol=1e-12)
    dens_tol = dens_tol or dict(rtol=0, atol=1e-10)
    rng = np.random.default_rng(0)
    specs = [(dl, kp) for dl in deltas for kp in kappas]    # the kernel's spec order
    P = len(specs)
    s0 = rng.uniform(0.5, 2.0, size=3)
    G = 3 if per_equation_regressors else 1
    group = PoolGroup(3, 3, deltas, kappas, s0, c0=100.0, groups=G)
    # one mean per delta and member, C* per delta and group, s per (delta, kappa)
    assert group._m.shape == (3, len(deltas), 3)
    assert group._C.shape == (3, 3, len(deltas), G)
    assert group.s.shape == (3, P)
    if extended:
        step, states = extended_step, [[extended_init(3, s0[b], 100.0) for _ in range(P)]
                                       for b in range(3)]
    else:
        step, states = scalar_step, [[dlm.init_state(3, float(s0[b]), c0=100.0) for _ in range(P)]
                                     for b in range(3)]
    for t in range(steps):
        Freg = np.column_stack([np.ones(G), rng.normal(size=(G, 2))])
        y = rng.normal(size=3) * (4.0 if jump_at is not None and t >= jump_at else 1.0)
        group.evolve()
        f, q = group.forecast(Freg)
        Freg = np.broadcast_to(Freg, (3, 3))
        dens = group.log_densities(y, f, q)
        group.update()
        ref = {k: np.zeros((3, P)) for k in ("f", "q", "dens", "s")}
        ref_m, ref_C = np.zeros((3, P, 3)), np.zeros((3, P, 3, 3))
        for b in range(3):
            for p, (dl, kp) in enumerate(specs):
                ref["f"][b, p], ref["q"][b, p], ref["dens"][b, p], states[b][p] = step(
                    states[b][p], Freg[b], float(y[b]), dl, kp)
                ref_m[b, p], ref_C[b, p] = states[b][p].m, states[b][p].C
                ref["s"][b, p] = states[b][p].s
        # f is (Pd, 1, b) and q is (Pd, Pk, b); spec p = i_delta * Pk + i_kappa
        np.testing.assert_allclose(np.broadcast_to(f, q.shape).reshape(P, 3).T, ref["f"], **tol)
        np.testing.assert_allclose(q.reshape(P, 3).T, ref["q"], **tol)
        np.testing.assert_allclose(dens, ref["dens"], **dens_tol)
        np.testing.assert_allclose(group.m, ref_m, **tol)
        np.testing.assert_allclose(group.C, ref_C, **tol)
        np.testing.assert_allclose(group.s, ref["s"], **tol)
        np.testing.assert_allclose(group.n, np.array([st.n for st in states[0]], float),
                                   atol=1e-12)


class TestBatchedKernelEquivalence:
    def test_pool_group_matches_reference_ops(self):
        check_pool_group_against_reference(per_equation_regressors=False)

    def test_pool_group_matches_reference_ops_per_equation_regressors(self):
        check_pool_group_against_reference(per_equation_regressors=True)

    def test_pool_group_matches_reference_over_a_volatility_jump(self):
        # the paper's 3 x 3 grid over a long run whose residual scale jumps
        # 4x halfway, so the kappa < 1 specs' s and n move apart from kappa = 1.
        # Over 300 steps a float64 reference's own rounding reaches ~1e-10 in
        # small entries, so the reference runs in extended precision
        for per_equation_regressors in (False, True):
            check_pool_group_against_reference(
                per_equation_regressors, deltas=(0.95, 0.975, 1.0), kappas=(0.99, 0.995, 1.0),
                steps=300, jump_at=150, tol=dict(rtol=1e-10), dens_tol=dict(rtol=1e-10),
                extended=True)

    def test_grouped_pool_matches_one_group_per_member(self):
        # members on one regressor row share C*: G groups of N members give the
        # m, C, s, forecasts and densities of one group per member
        rng = np.random.default_rng(5)
        d, G, N = 3, 4, 5
        deltas, kappas = (0.95, 0.975, 1.0), (0.99, 1.0)
        s0 = rng.uniform(0.5, 2.0, G * N)
        grouped = PoolGroup(d, G * N, deltas, kappas, s0, groups=G)
        single = PoolGroup(d, G * N, deltas, kappas, s0)
        assert grouped._C.shape == (d, d, len(deltas), G)
        assert single._C.shape == (d, d, len(deltas), G * N)
        tol = dict(rtol=0, atol=1e-12)
        for t in range(300):
            F = np.column_stack([np.ones(G), rng.normal(size=(G, d - 1))])
            y = rng.normal(size=G * N)
            out = []
            for grp, rows in ((grouped, F), (single, np.repeat(F, N, axis=0))):
                grp.evolve()
                f, q = grp.forecast(rows)
                out.append((f, q, grp.log_densities(y, f, q)))
                grp.update()
            for a, b in zip(*out):
                np.testing.assert_allclose(a, b, **tol)
            for name in ("m", "C", "s"):
                np.testing.assert_allclose(getattr(grouped, name), getattr(single, name), **tol)

    def test_covariance_stays_exactly_symmetric(self):
        # the update subtracts (A_i A_j) q* instead of symmetrizing, so C - C' must be 0
        panel = small_panel(seed=16, N=5, K=3, T=60, train=20)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="learn"))
        assert flt.n_ord == 6
        for t in range(panel.T):
            flt.update_step(t, flt.select())
            for grp in flt.asset_groups + flt.factor_groups:
                assert np.max(np.abs(grp.C - np.swapaxes(grp.C, -1, -2))) == 0.0

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
            selection = flt.select()
            if t >= panel.T - 3:
                flt.recouple(selection)
                S, sel_f = captured[-1], selection[1]
                for o, perm in enumerate(flt.perms):
                    priors = []
                    for j, grp in enumerate(flt.factor_groups):
                        eq = flt.factor_eq[j, o]
                        a, R, r, s = grp.selected(np.array([eq - flt.factor_start[j]]),
                                                  sel_f[[eq]])
                        # the equation stores its parents sorted; reorder them as perm
                        order = [0, *(1 + np.searchsorted(np.sort(perm[:j]), perm[:j]))]
                        priors.append(dlm.PriorState(a[0][order], R[0][np.ix_(order, order)],
                                                     float(r[0]), float(s[0])))
                    lam_ref, sig_ref = recouple.factor_moments(tuple(perm), priors)
                    lam, sig = moments_from_second(S[o])
                    np.testing.assert_allclose(lam, lam_ref, rtol=0, atol=1e-13)
                    np.testing.assert_allclose(sig, sig_ref, rtol=0, atol=1e-13)
            flt.update_step(t, selection)

    def test_batched_asset_moments_match_reference(self):
        rng = np.random.default_rng(2)
        K, N = 2, 5
        deltas, kappas = [1.0], [1.0]
        parents = [[i for i in range(K) if (m >> i) & 1] for m in range(1, 1 << K)]
        # one group per mask, every asset a member of each
        groups = [PoolGroup(1 + len(idx), N, deltas, kappas, rng.uniform(1e-4, 1e-3, N))
                  for idx in parents]
        cols = [np.broadcast_to([0, *(np.array(idx) + 1)], (N, 1 + len(idx))) for idx in parents]
        for grp in groups:
            grp.evolve()
            # desynchronize states so the test is not trivial
            grp._m += rng.normal(size=grp._m.shape) * 0.1
        lam = rng.normal(size=K) * 0.01
        A = rng.normal(size=(K, K)) * 0.02
        sig = A @ A.T + 1e-4 * np.eye(K)
        sel = rng.integers(0, len(groups), size=N)
        members = sel * N + np.arange(N)
        mean, B, idio = batched_asset_moments(groups, cols, members, np.zeros(N, int), lam, sig)
        sels = []
        for j in range(N):
            g = groups[sel[j]]
            # delta = 1, so the prior scale R is C
            prior = dlm.PriorState(g.m[j, 0], g.C[j, 0], float(g.r[0]), float(g.s[j, 0]))
            sels.append((parents[sel[j]], prior))
        ref = recouple.asset_moments(lam, sig, sels)
        np.testing.assert_allclose(mean, ref.asset_mean, atol=1e-13)
        cov = B @ sig @ B.T
        cov[np.diag_indices(N)] += idio
        np.testing.assert_allclose(cov, ref.asset_cov, atol=1e-13)

    @pytest.mark.parametrize("ordering", ["learn", "fixed"])
    def test_pools_group_members_by_parent_mask(self, ordering):
        # asset member i N + j of a pool is asset j on the pool's i-th mask, in
        # group i; a factor pool's group holds the equations on one parent mask,
        # each with its own target.  Each member's regressor columns are its
        # group's row, and the pools advance as one group per member would.
        K = 3
        panel = small_panel(seed=23, N=4, K=K, T=40, train=20)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering=ordering))
        N = panel.n_assets
        pools = [(grp, x_cols, targets, rec) for (grp, x_cols, targets), rec
                 in zip(flt.pools, flt.asset_eqs + flt.factor_eqs)]
        for (grp, x_cols, targets, rec), masks in zip(pools, np.split(
                flt.masks, np.cumsum([g.n_eq // N for g in flt.asset_groups])[:-1])):
            assert grp.groups == masks.size and grp._C.shape[-1] == masks.size
            i, j = np.divmod(np.arange(grp.n_eq), N)
            parents = (masks[i][:, None] >> np.arange(K)) & 1
            assert np.all(parents.sum(axis=1) == grp.d - 1)
            np.testing.assert_array_equal(rec[:, 1:-1], np.nonzero(parents)[1].reshape(
                grp.n_eq, -1) + 1)
            np.testing.assert_array_equal(targets, 1 + K + j)
        for grp, x_cols, targets, rec in pools[len(flt.asset_groups):]:
            size = grp.n_eq // grp.groups
            for g in range(grp.groups):
                block = slice(g * size, (g + 1) * size)
                assert np.unique(targets[block]).size == size
                assert not np.isin(targets[block], x_cols[g]).any()
            assert np.unique(x_cols, axis=0).shape[0] == grp.groups
        for grp, x_cols, targets, rec in pools:
            np.testing.assert_array_equal(
                rec[:, :-1], np.repeat(x_cols, grp.n_eq // grp.groups, axis=0))
        refs = [PoolGroup(grp.d, grp.n_eq, grp.deltas, grp.kappas, grp.s[:, 0])
                for grp, *_ in pools]
        for t in range(panel.T):
            flt.update_step(t, flt.select())
            z = np.concatenate((flt.X[t], flt.R[t]))
            for ref, (grp, x_cols, targets, rec) in zip(refs, pools):
                ref.evolve()
                f, q = ref.forecast(z[rec[:, :-1]])
                ref.log_densities(z[targets], f, q)
                ref.update()
                for name in ("m", "C", "s"):
                    np.testing.assert_allclose(getattr(grp, name), getattr(ref, name),
                                               rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K", [3, 5])
    def test_stacked_asset_pools_match_one_group_per_mask(self, K):
        # the engine stacks the (mask, asset) members of all masks with one
        # parent count into a pool; the reference keeps one PoolGroup per mask,
        # its one regressor row broadcast to every asset, in the spec layout
        # of asset_log_weights (mask in flt.masks order, then delta, then kappa)
        panel = small_panel(seed=22, N=4, K=K, T=60, train=30)
        cfg = RunConfig(ordering="fixed")
        flt = _DynamicFactorFilter(panel, cfg)
        N = panel.n_assets
        parents = [[i for i in range(K) if (m >> i) & 1] for m in flt.masks]
        s0 = _ols_residual_variance(panel.R[:30], flt.X[:30])
        ref = [PoolGroup(1 + len(p), N, cfg.delta_grid, cfg.kappa_r_grid, s0) for p in parents]
        lp = flt.asset_log_probs().T
        for t in range(panel.T):
            selection = flt.select()
            mean, B, idio, lam, sig = flt.recouple(selection)
            for grp in ref:
                grp.evolve()
            sel = np.argmax(cfg.alpha * lp, axis=1)
            np.testing.assert_array_equal(selection[0], sel)
            sels = []
            for j, (mi, p) in enumerate(zip(*np.divmod(sel, flt.P_r))):
                a, R, r, s = ref[mi].selected(np.array([j]), np.array([p]))
                sels.append((parents[mi], dlm.PriorState(a[0], R[0], float(r[0]), float(s[0]))))
            moments = recouple.asset_moments(lam, sig, sels)
            np.testing.assert_allclose(mean, moments.asset_mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(asset_covariance(B, sig, idio), moments.asset_cov,
                                       rtol=0, atol=1e-12)
            flt.update_step(t, selection)
            dens = []
            for grp, p in zip(ref, parents):
                F = np.broadcast_to(flt.X[t, [0, *(np.array(p, int) + 1)]], (N, grp.d))
                f, q = grp.forecast(F)
                dens.append(grp.log_densities(panel.R[t], f, q))
                grp.update()
            lp = cfg.alpha * lp + np.concatenate(dens, axis=1)
            lp -= scipy_logsumexp(lp, axis=1, keepdims=True)
            np.testing.assert_allclose(flt.asset_log_probs().T, lp, rtol=0, atol=1e-12)


    def test_asset_covariance_into_buffers_matches_the_allocating_form(self):
        # B sig B' + diag(idio), exactly symmetric and within 1e-15 of the
        # direct product, scaled by its largest entry; bit for bit the same
        # whether it allocates or writes into a reused buffer.  A singular PSD
        # sig, here with a zero-variance factor, is accepted.
        rng = np.random.default_rng(24)
        N, K = 37, 5
        out = np.full((N, N), np.nan)
        for singular in (False, False, True, True):
            B = rng.normal(size=(N, K))
            A = rng.normal(size=(K, K))
            sig, idio = A @ A.T, rng.uniform(0.1, 1.0, N)
            if singular:
                sig[-1] = sig[:, -1] = 0.0
            ref = B @ sig @ B.T
            ref[np.diag_indices(N)] += idio
            assert asset_covariance(B, sig, idio, out=out) is out
            cov = asset_covariance(B, sig, idio)
            assert cov.tobytes() == out.tobytes()
            assert np.array_equal(cov, cov.T)
            assert np.abs(cov - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_asset_covariance_rejects_an_indefinite_factor_covariance(self):
        sig = np.diag([1.0, -1e-3])
        with pytest.raises(NumericError, match="not positive semidefinite"):
            asset_covariance(np.ones((3, 2)), sig, np.ones(3))


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
            flt.update_step(t, flt.select())
            for j in range(panel.n_assets):
                for mi, m in enumerate(masks):
                    idx = [i for i in range(2) if (m >> i) & 1]
                    Freg = np.concatenate(([1.0], panel.F[t, idx]))
                    prior = dlm.evolve(states[j, mi], 1.0, 1.0)
                    fc = dlm.forecast(prior, Freg)
                    cum[j, mi] += dlm.log_predictive_density(fc, float(panel.R[t, j]))
                    states[j, mi] = dlm.update(prior, Freg, float(panel.R[t, j]))
            expected = cum - scipy_logsumexp(cum, axis=1, keepdims=True)
            np.testing.assert_allclose(flt.asset_log_probs().T, expected, atol=1e-8)


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
        s1 = run_statistics_only(panel, cfg)
        s2 = run_statistics_only(panel, cfg)
        assert s1.lpd_series.tobytes() == s2.lpd_series.tobytes()
        assert s1.inclusion.tobytes() == s2.inclusion.tobytes()

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

    def test_recoupling_only_on_evaluation_dates_changes_nothing(self):
        # recouple reads the evolved priors and writes no state, so a filter
        # that recouples on evaluation dates only, as _run_model does, stays
        # bit-identical to one that recouples on every date
        panel = small_panel(seed=25, N=5, K=3, T=40, train=25)
        cfg = RunConfig(ordering="learn")
        assert cfg.sparsity
        lazy, eager = _DynamicFactorFilter(panel, cfg), _DynamicFactorFilter(panel, cfg)
        for t in range(panel.T):
            sel_lazy, sel_eager = lazy.select(), eager.select()
            moments = eager.recouple(sel_eager)
            if t >= panel.train_len:
                for a, b in zip(lazy.recouple(sel_lazy), moments):
                    assert np.array_equal(a, b)
            lazy.update_step(t, sel_lazy)
            eager.update_step(t, sel_eager)
            for name in ("asset_log_weights", "factor_log_probs", "ordering_log_probs"):
                assert np.array_equal(getattr(lazy, name), getattr(eager, name)), name
            for a, b in zip(lazy.asset_groups + lazy.factor_groups,
                            eager.asset_groups + eager.factor_groups):
                for name in ("_m", "_C", "_s", "n"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_asset_log_probs_round_trip(self):
        # stored as (masks x P, N): a row per spec (mask in flt.masks order,
        # then delta, then kappa) and a column per asset, exact up to a
        # per-asset constant; asset_log_probs() normalizes a copy over the
        # specs, and select forgets the stored table in place and shifts each
        # column so that its selected entry is 0
        panel = small_panel(seed=26, N=4, K=3, T=30, train=20)
        flt = _DynamicFactorFilter(panel, RunConfig(ordering="fixed"))
        for t in range(5):
            flt.update_step(t, flt.select())
            stored = flt.asset_log_weights.copy()
            lp = flt.asset_log_probs()
            assert lp.shape == stored.shape == (len(flt.masks) * flt.P_r, 4)
            np.testing.assert_allclose(np.exp(lp).sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert np.array_equal(flt.asset_log_weights, stored)
            shift = lp - stored
            np.testing.assert_allclose(shift - shift[0], 0.0, rtol=0, atol=1e-12)
        new = np.random.default_rng(27).normal(size=lp.shape)
        flt.asset_log_weights = new.copy()
        sel_assets, _ = flt.select()
        np.testing.assert_array_equal(sel_assets, np.argmax(new, axis=0))
        forgotten = flt.config.alpha * new
        assert np.array_equal(flt.asset_log_weights, forgotten - forgotten[sel_assets, np.arange(4)])

    def test_stats_match_backtest_lpd(self):
        panel = small_panel(seed=9)
        cfg = RunConfig(strategy="gmv")
        report = run_backtest(panel, cfg)
        stats = run_statistics_only(panel, cfg)
        assert report.rows[0].lpd == pytest.approx(stats.lpd, abs=1e-12)
        assert report.rows[0].acc == pytest.approx(stats.acc, abs=1e-12)
        # the orderings hold plain ints, so they serialize
        assert stats.orderings == [(0, 1), (1, 0)]
        assert json.loads(json.dumps(stats.orderings)) == [[0, 1], [1, 0]]

    def test_backtest_computes_no_statistics_diagnostics(self, monkeypatch):
        # run_backtest reads the LPD, hit rate, dates and factors only
        def fail(self):
            raise AssertionError("inclusion computed in a backtest")

        monkeypatch.setattr(_DynamicFactorFilter, "inclusion", fail)
        report = run_backtest(small_panel(seed=9), RunConfig(strategy="gmv"))
        assert np.isfinite(report.rows[0].lpd)

    @pytest.mark.parametrize("cov, match", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "not finite"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "not positive definite")])
    def test_gaussian_lpd_rejects_a_bad_covariance(self, cov, match):
        with pytest.raises(NumericError, match=match):
            engine._gaussian_lpd(np.zeros(2), np.zeros(2), cov)

    def test_bad_comparison_covariance_names_the_row_and_date(self, monkeypatch):
        def nan_cov(R, F, train):
            for _ in range(train, R.shape[0]):
                yield np.zeros(R.shape[1]), np.full((R.shape[1],) * 2, np.nan)

        monkeypatch.setitem(engine.bench.PREDICTORS, "lw", nan_cov)
        panel = small_panel(seed=10, N=3, K=2, T=50, train=30)
        with pytest.raises(NumericError, match="lw, date t00030: covariance matrix is not finite"):
            run_backtest(panel, RunConfig(strategy="gmv", benchmarks=("lw",)))

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
        # one fit for all assets, one per parent set of the factor equations,
        # each of every target on that set: the 2^K - 1 proper subsets
        assert len(calls) == 1 + 2 ** 4 - 1
        train = panel.train_len
        s_factor = np.concatenate([grp.s[:, 0] for grp in flt.factor_groups])
        for jj in range(flt.K):
            for o, perm in enumerate(flt.perms):
                X = np.column_stack([np.ones(train), panel.F[:train, list(perm[:jj])]])
                y = panel.F[:train, perm[jj]]
                coef, *_ = np.linalg.lstsq(X, y, rcond=None)
                eq = flt.factor_eq[jj, o]
                assert s_factor[eq] == pytest.approx((y - X @ coef).var(), rel=1e-12)
        # every mask of an asset starts from the asset's one fit
        s_asset = np.concatenate([grp.s[:, 0] for grp in flt.asset_groups])
        X = np.column_stack([np.ones(train), panel.F[:train]])
        for j in range(panel.n_assets):
            coef, *_ = np.linalg.lstsq(X, panel.R[:train, j], rcond=None)
            resid = panel.R[:train, j] - X @ coef
            # asset j on mask index i is member i N + j
            np.testing.assert_allclose(s_asset[j::panel.n_assets], resid.var(), rtol=1e-12)

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
        (dict(periods_per_year=0), "periods_per_year"),
        (dict(factor_set=(0, 0)), "factor_set"),
        (dict(tc_bps=()), "tc_bps"),
        (dict(delta_grid=(0.99, 0.99)), "delta_grid"),
        (dict(kappa_r_grid=(1.0, 0.99, 1.0)), "kappa_r_grid"),
        (dict(kappa_f_grid=(0.999, 0.999)), "kappa_f_grid"),
        (dict(benchmarks=("efm", "ew", "efm")), "benchmarks"),
        (dict(fee_reference="bogus"), "unknown fee reference 'bogus'"),
        (dict(tc_bps=(5.0, 0.0, 5.0)), "tc_bps"),
        (dict(gamma=(5.0, 5.0)), "gamma"),
    ])
    def test_bad_run_settings_rejected_before_filtering(self, settings, match):
        # a misspelt comparison model or a non-positive box used to surface
        # only after the whole model run; zero periods per year divided by zero;
        # a factor named twice was used as two factors; no cost level wrote a
        # results file with no table; a repeated discount doubled its specs'
        # prior mass; a repeated benchmark or cost level gave two identical rows
        # or blocks; a repeated gamma kept one fee; a fee reference that names
        # no model gave no fees
        with pytest.raises(ParameterError, match=match):
            RunConfig(**settings)
