"""Vectorized filter kernel used by the engine.

Each block of equations, the assets and the factors, is one pool whose
members advance in one set of array operations, each under every pair of a
loading discount delta and a volatility discount kappa.  Every member
regresses on all of x = (1, factors), d = K + 1 columns; outside its parents
its coefficients start at an exact 0 with zero prior variance and its
regressor reads 0, so they stay 0 and it filters as the regression on its
parents alone would.

Each equation starts from the conjugate prior C0 = c0 s0 on its parents and
constant (West & Harrison 1997, sec. 16.4; Prado & West 2010, sec. 4.3).
Under variance discounting the scale-free covariance C* = C / s starts at c0
and evolves through the regressor row and delta alone: the data, s0 and kappa
enter only s and the dof n, and n <- kappa n + 1 is kept once per kappa.  So
the members that regress on one row, a group (an asset parent mask, a factor
equation), share one C* per delta: ``_C`` is (d, d, Pd, G), ``_m`` (d, Pd, b),
and ``_s`` and the log-scale state ``_ls`` (Pd, Pk, b), the members b the
contiguous innermost axis.  The recursions are those of the ``dlm`` module,
the reference kernel of the tests.

A pool steps through evolve, forecast, log_densities and update.  Each
(Pd, Pk, b) array of a step is a buffer of the pool, written through ``out=``,
so a step allocates nothing of that size; the densities come as a (b, P) view
of one, valid until the pool's next ``log_densities``.

Recoupling works in the second moments S = E[x x'] of x = (1, factors): a
selected regression of y on x, its coefficients a zero off its parents, gives
E[y x] = S a and E[y^2] = r/(r-2) (s + tr(R S)) + a' E[y x], the one formula
that fills S for the factors and gives each asset's mean and idiosyncratic
variance.  Weight solves and Gaussian densities take a ``Covariance``, factored
once by ``_cholesky``, the one caller of LAPACK's potrf; the assets'
B Sigma_f B' + D stays in factor form (``FactorCovariance``), which solves by
Woodbury.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericError, ShapeError

# floor on predictive dof in r/(r-2), so a deep volatility discount cannot abort a run
DOF_FLOOR = 2.05
# prior scale C0 = C0_STAR * s0 on a member's active coordinates, in units of the
# equation's prior variance s0, and prior dof N0; chosen on held-out LPD (see
# engine.DEFAULT_DELTA_GRID)
C0_STAR, N0 = 1e3, 5.0
# log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 ~ sum_k c_k x^(1 - 2k): the Stirling
# series of the two log Gammas differ by c_k = (2^(1-2k) - 2) B_2k / (2k (2k - 1)),
# B_2k the Bernoulli numbers.  From x = 10 on, nine terms are exact to rounding.
LGAMMA_HALF_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
                      -5461 / 425984, 929569 / 15728640, -3202291 / 8912896)
SERIES_FROM = 10.0


def _ols_residual_variance(Y: np.ndarray, X: np.ndarray, names=None) -> np.ndarray:
    """Prior scale s0 of each column of Y regressed on X: the plain sample
    variance of its OLS residuals, one fit for all columns.  A variance at or
    below 1e-12, of a constant column or one that X spans, would inflate the
    column's densities without bound, so it raises NumericError naming the
    column by ``names`` (default: its index)."""
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    var = (Y - X @ coef).var(axis=0)
    if var.min() <= 1e-12:
        j = int(np.argmin(var))
        raise NumericError(f"{names[j] if names is not None else f'column {j}'} has zero "
                           f"residual variance over the training window")
    return var


def _t_log_constant(r) -> np.ndarray:
    """Student-t log constant lgamma((r+1)/2) - lgamma(r/2) - log(r pi)/2 of each dof
    in ``r``, as a (len(r), 1) array: with x = r/2, log Gamma(x + 1/2) - log Gamma(x)
    - log(2 pi x)/2.  From x = SERIES_FROM on, the two lgammas, whose difference
    cancels as x grows, give way to the series, and log(x)/2 cancels exactly."""
    return np.array([math.lgamma(x + 0.5) - math.lgamma(x) - 0.5 * math.log(2.0 * math.pi * x)
                     if x < SERIES_FROM else
                     sum(c / x ** (2 * k + 1) for k, c in enumerate(LGAMMA_HALF_SERIES))
                     - 0.5 * math.log(2.0 * math.pi)
                     for x in (np.asarray(r, float) / 2.0).tolist()])[:, None]


class PoolGroup:
    """States of all pool members, each regressing on d columns.

    The members form ``groups`` groups of N = n_eq / groups consecutive
    members (by default one per member), and every member of group g
    regresses on row g of the F (groups, d) given to ``forecast``.  ``active``
    (groups, d), by default all True, marks each group's parents; C0 covers
    those alone, so F must read 0 on the others.  ``deltas`` and ``kappas``
    are the two discount grids.  Their P = Pd * Pk pairs are the specs,
    numbered p = i_delta * Pk + i_kappa.  The dof recursion n <- kappa n + 1
    ignores delta and the data, so n and r = kappa n are (Pk,): spec p reads
    entry p % Pk.

    With regressor F and e = y - F'm, one step is, once per delta and group,
        q* = 1 + F'C*F / delta,   A = C*F / (delta q*),   C* <- C* / delta - A A' q*,
    once per delta and member m <- m + A e, and once per (delta, kappa) and
    member, with q = q* s the forecast variance and u = e^2 / q,
        log p = lt(r) - log(q)/2 - (r + 1)/2 log1p(u / r),   s <- (r s + e^2 / q*) / (r + 1).
    Writing C = C* s, these are the ``dlm`` recursions of every spec, from
    m = 0, C = c0 s0 on the active coordinates, s = s0 and n = n0.

    The one logarithm per (member, spec), log1p(u / r), also advances the
    log-scale state: log s moves by log(r / (r + 1)) + log1p(u / r), so
    ``_ls`` holds -log(s)/2 less ``_ls_shift``, the sum over steps of
    log((r + 1) / r)/2, which is (Pk,).  log q then needs no full-size log,
    as q* is per (delta, group): ``evolve`` folds lt(r) and the shift into a
    (Pk, 1) constant, and ``log_densities`` adds -log(q*)/2 per (delta, group).

    The evolution has identity transition: the prior mean is m and the prior
    scale R is C / delta, which ``forecast`` and ``update`` fold in.
    ``update`` advances the state in place, so ``_s`` holds the prior scale
    only between ``evolve`` and ``update``.  C* stays exactly symmetric: the
    update subtracts (A_i A_j) q*, the same product at (i, j) and (j, i).

    ``m``, ``C`` and ``s`` return the state per spec, as (b, P, d),
    (b, P, d, d) and (b, P) arrays; the first two are copies.
    """

    def __init__(self, d: int, n_eq: int, deltas, kappas, s0, c0: float = C0_STAR,
                 n0: float = N0, groups: int | None = None, active=None):
        self.d = d
        self.deltas = np.asarray(deltas, float)
        self.kappas = np.asarray(kappas, float)
        n_d, n_k = self.deltas.size, self.kappas.size
        self.P = n_d * n_k
        self.n_eq = n_eq
        self.groups = G = n_eq if groups is None else groups
        self._delta = self.deltas[:, None]          # broadcasts over (Pd, b) and (Pd, G)
        self._m = np.zeros((d, n_d, n_eq))
        self._m_grouped = self._m.reshape(d, n_d, G, n_eq // G)     # a view
        self._C = np.zeros((d, d, n_d, G))
        on = np.ones((G, d)) if active is None else np.asarray(active, float)
        self._C[np.arange(d), np.arange(d)] = c0 * on.T[:, None, :]
        self._s = np.broadcast_to(np.asarray(s0, float), (n_d, n_k, n_eq)).copy()
        self._ls = -0.5 * np.log(self._s)
        self._ls_shift = np.zeros((n_k, 1))
        self.n = np.full(n_k, n0)
        # buffers: log1p(u / r) and the densities, (Pd, Pk, b); e and e^2 / q*, (Pd, b)
        self._L, self._lp = np.empty_like(self._s), np.empty_like(self._s)
        self._e, self._e2 = np.empty((n_d, n_eq)), np.empty((n_d, n_eq))
        # evolved prior quantities, populated by evolve(): r per kappa (Pk,), and
        # as (Pk, 1), which broadcast over (Pd, Pk, b): r, the density's constant
        self.r = self._r = self._k0 = None
        self._CF = self._qs = None      # consumed by update()

    @property
    def m(self) -> np.ndarray:
        return np.repeat(self._m, self.kappas.size, axis=1).T

    @property
    def C(self) -> np.ndarray:
        G, n_d, n_k = self.groups, self.deltas.size, self.kappas.size
        C = self._C[:, :, :, None, :, None] * self._s.reshape(n_d, n_k, G, -1)
        return C.reshape(self.d, self.d, self.P, self.n_eq).transpose(3, 2, 0, 1)

    @property
    def s(self) -> np.ndarray:
        return self._s.reshape(self.P, self.n_eq).T

    def evolve(self) -> None:
        self.r = self.kappas * self.n
        self._r = self.r[:, None]
        self._k0 = _t_log_constant(self.r) + self._ls_shift

    def forecast(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forecast mean f (Pd, b) and scale-free variance q* (Pd, groups), given
        each group's regressor row, F (groups, d); q = q* s."""
        Ft = np.asarray(F, float).T
        self._CF = CF = np.einsum("ijkg,jg->ikg", self._C, Ft)
        qs = np.einsum("ikg,ig->kg", CF, Ft)
        qs /= self._delta
        qs += 1.0
        if qs.min() <= 0:
            raise NumericError("non-positive forecast variance in batched filter")
        self._qs = qs
        # f = F'm per delta and group: (1, d) rows times the (d, N) strided blocks of m
        f = np.matmul(Ft.T[:, None], self._m_grouped.transpose(1, 2, 0, 3))
        return f.reshape(-1, self.n_eq), qs

    def log_densities(self, y, f, qs) -> np.ndarray:
        """Student-t log predictive densities of y (b,) under (f, q*): a (b, P) view
        of the pool's buffer, valid until its next call."""
        n_d, n_k, G = self.deltas.size, self.kappas.size, self.groups
        e = np.subtract(y, f, out=self._e)
        e2 = np.multiply(e, e, out=self._e2)
        e2g = e2.reshape(n_d, G, -1)
        e2g *= (1.0 / qs)[:, :, None]                           # e^2 / q*
        L = np.divide(e2[:, None], self._s, out=self._L)        # u = e^2 / q
        L *= 1.0 / self._r
        np.log1p(L, out=L)
        lp = np.multiply(L, -0.5 * (self._r + 1.0), out=self._lp)
        lp += self._ls
        lp4 = lp.reshape(n_d, n_k, G, -1)
        lp4 += (self._k0 - 0.5 * np.log(qs)[:, None])[..., None]
        return lp.reshape(self.P, self.n_eq).T

    def update(self) -> None:
        """Posterior update in place, from the preceding forecast and log_densities."""
        A, qs, e, e2, L = self._CF, self._qs, self._e, self._e2, self._L
        self._CF = self._qs = None
        L *= -0.5
        self._ls += L
        self._ls_shift += 0.5 * np.log1p(1.0 / self._r)
        s = self._s
        s *= self._r
        s += e2[:, None]
        s *= 1.0 / (self._r + 1.0)
        A /= self._delta * qs           # adaptive vector C*F / (delta q*)
        e, Ae = e.reshape(self._m_grouped.shape[1:]), e2.reshape(self._m_grouped.shape[1:])
        for m_i, A_i in zip(self._m_grouped, A):
            m_i += np.multiply(A_i[..., None], e, out=Ae)
        self._C /= self._delta
        self._C -= A[:, None] * A[None, :] * qs
        self.n = self.r + 1.0

    def selected(self, members: np.ndarray, p_idx: np.ndarray):
        """Gather the evolved prior of chosen members: (a, R, r, s), s the
        prior scale.  ``p_idx`` is the spec of each member; R = C* s / delta.
        """
        di, ki = np.divmod(p_idx, self.kappas.size)
        s = self._s.reshape(self.P, self.n_eq)[p_idx, members]
        a = self._m[:, di, members].T
        R = (self._C[:, :, di, members // (self.n_eq // self.groups)].transpose(2, 0, 1)
             * (s / self.deltas[di])[:, None, None])
        return a, R, self.r[ki], s


def _regression_moments(S, a, R, r, s):
    """E[y x] = S a, (b, d), and the expected predictive variance
    r/(r-2) (s + tr(R S)), (b,), of the selected priors (a, R, r, s), with r
    floored at DOF_FLOOR; S is (b, d, d) or one (d, d) for all b."""
    r = np.maximum(r, DOF_FLOOR)
    yX = np.einsum("...ij,...j->...i", S, a)
    return yX, (r / (r - 2.0)) * (s + np.einsum("...ij,...ji->...", R, S))


def recursive_factor_moments(targets, a_sel, R_sel, r_sel, s_sel) -> np.ndarray:
    """Second moments S (o, K+1, K+1) of x = (1, factors) for every ordering.

    Position j of ordering o regresses x-column ``targets[j, o]`` on the
    constant and the factors placed before it, under the selected prior
    ``a_sel[j, o]`` (K+1,), ``R_sel[j, o]`` (K+1, K+1), ``r_sel[j, o]``,
    ``s_sel[j, o]``, zero off those columns.  The rows of S of factors not yet
    placed are still 0, and those are the columns where a and R are, so S a and
    tr(R S) read the filled block alone; the target's row and column are then
    written by index.
    """
    n_ord, d = targets.shape[1], a_sel.shape[-1]
    S = np.zeros((n_ord, d, d))
    S[:, 0, 0] = 1.0
    o = np.arange(n_ord)
    for t, a, R, r, s in zip(targets, a_sel, R_sel, r_sel, s_sel):
        yX, var = _regression_moments(S, a, R, r, s)
        S[o, t] = S[o, :, t] = yX
        S[o, t, t] = var + np.einsum("oi,oi->o", a, yX)
    return S


def mixture_factor_moments(log_probs: np.ndarray, S) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the ordering mixture, from each ordering's second
    moments E[x x'] of x = (1, factors), S (o, K+1, K+1), in factor-id order.
    The mixture's second moments are their probability-weighted average, so its
    covariance needs no separate between-ordering spread of the means."""
    p = np.exp(np.asarray(log_probs, float))
    S = np.asarray(S, float)
    if S.shape[0] != p.size:
        raise ShapeError("per-ordering moments must align with probabilities")
    S_mix = np.einsum("o,oij->ij", p, S)
    mean = S_mix[0, 1:]
    cov = S_mix[1:, 1:] - np.outer(mean, mean)
    return mean, (cov + cov.T) / 2.0


def batched_asset_moments(a, R, r, s, lam: np.ndarray, sig: np.ndarray):
    """Mean vector, loading matrix and idiosyncratic variances of all assets,
    from each asset's selected prior over all of x = (1, factors), zero off its
    parents: a (n, K+1), R (n, K+1, K+1), r (n,), s (n,).  With S the second
    moments of x under factor mean ``lam`` and covariance ``sig``, an asset's
    mean is E[y 1] and its idiosyncratic variance its expected predictive
    variance.
    """
    x_mean = np.concatenate(([1.0], lam))
    S = np.outer(x_mean, x_mean)
    S[1:, 1:] += sig
    yX, idio = _regression_moments(S, a, R, r, s)
    return yX[:, 0], a[:, 1:], idio


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix ``a``, from its lower triangle, by
    one LAPACK potrf; NumericError if a is not finite or not positive definite."""
    L, info = dpotrf(a, lower=1, clean=0)
    # a NaN pivot can pass potrf with info 0, so the factor's diagonal is checked too
    if info != 0 or not np.isfinite(L.diagonal()).all():
        if not np.isfinite(a).all():
            raise NumericError("covariance matrix is not finite")
        raise NumericError("covariance matrix is not positive definite")
    return L


class Covariance:
    """An SPD matrix, Cholesky-factored once, on first use, so that a date's
    weight solve and Gaussian density share the factor; ``solve`` and ``logdet``
    raise NumericError if it is not finite or not positive definite.  ``shape``,
    ``np.asarray`` and c * cov read the matrix, which is never written."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"cov has shape {a.shape}, expected a square matrix")
        self._a, self.shape = a, a.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self._a, dtype=dtype, copy=copy)

    def __mul__(self, c):
        return c * np.asarray(self)

    __rmul__ = __mul__

    @functools.cached_property
    def _L(self) -> np.ndarray:
        return _cholesky(np.asarray(self))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^-1 rhs, for rhs (N,) or (N, m), by one potrs on the factor."""
        return dpotrs(self._L, rhs, lower=1)[0]

    def logdet(self) -> float:
        """log det Sigma, twice the log diagonal of the factor summed."""
        return float(2.0 * np.log(self._L.diagonal()).sum())


class FactorCovariance(Covariance):
    """The covariance B sig B' + diag(idio) of N assets on K factors, kept in
    factor form: G = B S, with S S' = sig, and D = idio.

    S is the Cholesky factor of sig, or for a singular sig, such as the one
    ``efm_cov`` gives for a zero-variance factor, V sqrt(lam) from its
    eigendecomposition, with rounding's negative eigenvalues set to zero.

    ``solve`` applies the inverse by the Woodbury identity in O(N K^2) and
    builds no N x N array; ``np.asarray`` builds the dense matrix anew on each
    call, and ``logdet`` factors it.
    """

    def __init__(self, B: np.ndarray, sig: np.ndarray, idio: np.ndarray):
        try:
            S = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            lam, V = np.linalg.eigh(sig)
            if lam[0] < -1e-12 * lam[-1]:
                raise NumericError(f"factor covariance is not positive semidefinite "
                                   f"(eigenvalue {lam[0]:.3g})") from None
            S = V * np.sqrt(np.maximum(lam, 0.0))
        self.G = B @ S
        self.D = np.asarray(idio, float)
        self.shape = (self.D.size, self.D.size)

    def __array__(self, dtype=None, copy=None):
        # numpy computes a product with its own transpose by a symmetric rank-K
        # update (BLAS syrk) and mirrors one triangle, so this is exactly symmetric
        out = self.G @ self.G.T
        out.flat[::self.D.size + 1] += self.D
        return out if dtype is None else out.astype(dtype, copy=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^-1 rhs = D^-1 rhs - D^-1 G (I + G' D^-1 G)^-1 G' D^-1 rhs, for rhs
        (N,) or (N, m), by one Cholesky factorization of the K x K capacitance
        matrix; NumericError if G or D is not finite or D is not positive."""
        G, D = self.G, self.D
        if not (np.isfinite(G).all() and np.isfinite(D).all()):
            raise NumericError("covariance matrix is not finite")
        if D.min() <= 0.0:
            raise NumericError("covariance matrix is not positive definite")
        H = G / D[:, None]                              # D^-1 G
        cap = G.T @ H
        cap.flat[::cap.shape[0] + 1] += 1.0
        return (rhs.T / D).T - H @ dpotrs(_cholesky(cap), H.T @ rhs, lower=1)[0]
