"""Vectorized filter kernel used by the engine.

Pool members are stacked into arrays so that every equation with the same
regression dimension advances in one set of array operations: axis ``b``
runs over equations (assets on parent masks of one size, or factor equations
of one ordering position), each filtered under every pair of a loading
discount delta and a volatility discount kappa.

Each equation starts from the conjugate prior C0 = c0 s0 I on the scale of
its prior variance s0 (West & Harrison 1997, sec. 16.4; Prado & West 2010,
sec. 4.3).  Under variance discounting the scale-free covariance C* = C / s
then starts at c0 I and evolves through the regressor row and delta alone:
the data, s0 and kappa enter only s and the degrees of freedom n, and n,
which ignores the data and delta (n <- kappa n + 1), is kept once per kappa.
So the members of a pool that regress on one row, a group per parent mask,
share one C* per delta: ``_C`` is (d, d, Pd, G) for G groups, ``_m`` (d, Pd, b)
and ``_s`` (Pd, Pk, b) for Pd deltas and Pk kappas.  Equations are the
contiguous innermost axis, so elementwise passes run over rows of b.  The
recursions are those of the ``dlm`` module; the test suite asserts
equivalence against that per-state reference kernel.

A pool steps through evolve, forecast, log_densities and update, which uses
the C*F and q* of forecast and the e = y - f and e^2 / q of log_densities.
Densities come as (b, P) views of (P, b) arrays: one add per pool puts them
into the engine's (mask, spec) x asset rows of model probabilities.

Recoupling works in the second moments S = E[x x'] of x = (1, factors): a
selected regression of y on columns X of x gives E[y X] = S_XX a and
E[y^2] = r/(r-2) (s + tr(R S_XX)) + a' E[y X], the one formula that fills S
for the factors and gives each asset's mean and idiosyncratic variance.  Weight
solves and Gaussian densities take a ``Covariance``, factored once by
``_cholesky``, the one caller of LAPACK's potrf; the assets' B Sigma_f B' + D
stays in factor form (``FactorCovariance``), which solves by Woodbury.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericError, ShapeError

# floor on predictive dof in r/(r-2), so a deep volatility discount cannot abort a run
DOF_FLOOR = 2.05
# prior scale C0 = C0_STAR * s0 * I, in units of the equation's prior variance s0,
# and prior dof N0; chosen on held-out LPD (see engine.DEFAULT_DELTA_GRID)
C0_STAR, N0 = 1e3, 5.0


def _ols_residual_variance(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Prior scale s0 of each column of Y regressed on X: the plain sample
    variance of its OLS residuals, floored away from zero; one fit for all columns."""
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coef
    return np.maximum(resid.var(axis=0), 1e-12)


@functools.lru_cache(maxsize=2)
def _t_log_constant(r: tuple) -> np.ndarray:
    """Student-t log constant lgamma((r+1)/2) - lgamma(r/2) - log(r pi)/2 of each
    dof in ``r``, as a read-only (len(r), 1) array.  The pools of a block share
    r = kappa n, so the cache, one entry per block, computes it once per block and
    date.  Few values, so math.lgamma serves, and scipy.special need not load."""
    lg = np.array([math.lgamma((x + 1.0) / 2.0) - math.lgamma(x / 2.0) for x in r])
    lt = lg[:, None] - 0.5 * np.log(np.array(r)[:, None] * np.pi)
    lt.flags.writeable = False
    return lt


class PoolGroup:
    """States of all pool members with one regression dimension d.

    The members form ``groups`` groups of N = n_eq / groups consecutive
    members (by default one per member), and every member of group g
    regresses on row g of the F (groups, d) given to ``forecast``.  ``deltas``
    and ``kappas`` are the two discount grids.  Their P = Pd * Pk pairs are the
    specs, numbered p = i_delta * Pk + i_kappa.  The dof recursion
    n <- kappa n + 1 ignores delta and the data, so n and r = kappa n are (Pk,):
    spec p reads entry p % Pk.

    With regressor F and e = y - F'm, one step is, once per delta and group,
        q* = 1 + F'C*F / delta,   A = C*F / (delta q*),   C* <- C* / delta - A A' q*,
    once per delta and member m <- m + A e, and once per (delta, kappa) and
    member, with q = q* s the forecast variance, z = (r + e^2 / q) / (r + 1)
    and s <- s z.  Writing C = C* s, these are the ``dlm`` recursions of every
    spec, from m = 0, C = c0 s0 I, s = s0 and n = n0.

    The evolution has identity transition, so it moves nothing: the prior
    mean is m and the prior scale R is C / delta, which ``forecast`` and
    ``update`` fold in instead of materializing.  ``update`` advances the
    state in place, so ``_s`` holds the prior scale only between ``evolve``
    and ``update``.  C* stays exactly symmetric: the update scales it
    elementwise and subtracts (A_i A_j) q*, the same product at (i, j) and
    (j, i).

    ``m``, ``C`` and ``s`` return the state per spec, as (b, P, d),
    (b, P, d, d) and (b, P) arrays; the first two are copies.
    """

    def __init__(self, d: int, n_eq: int, deltas, kappas, s0, c0: float = C0_STAR,
                 n0: float = N0, groups: int | None = None):
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
        self._s_grouped = (n_d, n_k, G, n_eq // G)
        self._C = np.zeros((d, d, n_d, G))
        self._C[np.arange(d), np.arange(d)] = c0
        self._s = np.broadcast_to(np.asarray(s0, float), (n_d, n_k, n_eq)).copy()
        self.n = np.full(n_k, n0)
        # evolved prior quantities, populated by evolve(): r per kappa (Pk,), then r
        # and the Student-t log constant as (Pk, 1), which broadcast over (Pd, Pk, b)
        self.r = self._r = self._lt = None
        self._CF = self._qs = self._e = self._u = None  # consumed by update()

    @property
    def m(self) -> np.ndarray:
        return np.repeat(self._m, self.kappas.size, axis=1).T

    @property
    def C(self) -> np.ndarray:
        C = self._C[:, :, :, None, :, None] * self._s.reshape(self._s_grouped)
        return C.reshape(self.d, self.d, self.P, self.n_eq).transpose(3, 2, 0, 1)

    @property
    def s(self) -> np.ndarray:
        return self._s.reshape(self.P, self.n_eq).T

    def evolve(self) -> None:
        self.r = self.kappas * self.n
        self._r = self.r[:, None]
        self._lt = _t_log_constant(tuple(self.r.tolist()))

    def forecast(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forecast mean f (Pd, 1, b) and variance q (Pd, Pk, b), given each
        group's regressor row, F (groups, d)."""
        Ft = F.T[:, None]               # (d, 1, G): each column broadcast over the deltas
        CF = (self._C * Ft).sum(axis=1)
        qs = 1.0 + (CF * Ft).sum(axis=0) / self._delta
        if qs.min() <= 0:
            raise NumericError("non-positive forecast variance in batched filter")
        self._CF, self._qs = CF, qs
        f = (self._m_grouped * Ft[..., None]).sum(axis=0)
        q = qs[:, None, :, None] * self._s.reshape(self._s_grouped)
        return f.reshape(-1, 1, self.n_eq), q.reshape(self._s.shape)

    def log_densities(self, y, f, q) -> np.ndarray:
        """Student-t log predictive densities of y under (f, q), (b, P)."""
        self._e = e = np.asarray(y, float) - f
        self._u = u = e * e / q
        lp = u / self._r
        np.log1p(lp, out=lp)
        lp *= self._r + 1.0
        lp += np.log(q)
        lp *= -0.5
        lp += self._lt
        return lp.reshape(self.P, self.n_eq).T

    def update(self) -> None:
        """Posterior update in place, from the preceding forecast and log_densities."""
        A, qs, e, z = self._CF, self._qs, self._e, self._u
        self._CF = self._qs = self._e = self._u = None
        A /= self._delta * qs           # adaptive vector C*F / (delta q*)
        self._m_grouped += A[..., None] * e.reshape(self._m_grouped.shape[1:])
        self._C /= self._delta
        self._C -= A[:, None] * A[None, :] * qs
        z += self._r                    # z = (r + e^2 / q) / (r + 1)
        z /= self._r + 1.0
        self._s *= z
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


def _regression_moments(SXX, a, R, r, s):
    """E[y X] = S_XX a, (b, d), and the expected predictive variance
    r/(r-2) (s + tr(R S_XX)), (b,), of the selected priors (a, R, r, s), with
    r floored at DOF_FLOOR; SXX is (b, d, d) or one (d, d) for all b."""
    r = np.maximum(r, DOF_FLOOR)
    yX = np.einsum("...ij,...j->...i", SXX, a)
    return yX, (r / (r - 2.0)) * (s + np.einsum("...ij,...ji->...", R, SXX))


def moment_offsets(cols) -> list[np.ndarray]:
    """Flat offsets into S (o, K+1, K+1), K = len(cols), of the blocks
    S[o][c, c'] for c, c' in cols[j][o]: the x-columns of ordering o's
    equation at position j, the constant 0, the parents, then the target."""
    n = len(cols) + 1
    return [(np.arange(c.shape[0])[:, None, None] * n + c[:, :, None]) * n + c[:, None, :]
            for c in cols]


def recursive_factor_moments(offsets, a_sel, R_sel, r_sel, s_sel) -> np.ndarray:
    """Second moments S (o, K+1, K+1) of x = (1, factors) for every ordering.

    Position j's block of S sits at ``offsets[j]``, from ``moment_offsets``,
    and its selected priors in ``a_sel[j]`` etc., the coefficients in the
    order of the regressor columns: a (o, j+1), R (o, j+1, j+1), r (o,), s (o,).
    """
    n_ord, K = offsets[0].shape[0], len(offsets)
    S = np.zeros((n_ord, K + 1, K + 1))
    S[:, 0, 0] = 1.0
    flat = S.reshape(-1)
    for off, a, R, r, s in zip(offsets, a_sel, R_sel, r_sel, s_sel):
        yX, var = _regression_moments(flat[off[:, :-1, :-1]], a, R, r, s)
        flat[off[:, -1, :-1]] = yX
        flat[off[:, :-1, -1]] = yX
        flat[off[:, -1, -1]] = var + np.einsum("oi,oi->o", a, yX)
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


def batched_asset_moments(groups, cols, members: np.ndarray, p_idx: np.ndarray,
                          lam: np.ndarray, sig: np.ndarray):
    """Mean vector, loading matrix and idiosyncratic variances of all assets.

    Asset j uses member ``members[j]`` of the groups in sequence, under spec
    ``p_idx[j]``; the first d columns of ``cols[g]`` are the x-columns of group
    g's members, over which each selected prior is written out into all of
    x = (1, factors).  With S the second moments of x under factor mean ``lam``
    and covariance ``sig``, an asset's mean is E[y 1] and its idiosyncratic
    variance its expected predictive variance.
    """
    n, K = members.size, lam.size
    x_mean = np.concatenate(([1.0], lam))
    S = np.outer(x_mean, x_mean)
    S[1:, 1:] += sig
    a_x, R_x = np.zeros((n, K + 1)), np.zeros((n, K + 1, K + 1))
    r, s = np.empty(n), np.empty(n)
    start = 0
    for grp, c in zip(groups, cols):
        rows = np.flatnonzero((members >= start) & (members < start + grp.n_eq))
        mem = members[rows] - start
        start += grp.n_eq
        cx = c[mem, :grp.d]
        a, R, r[rows], s[rows] = grp.selected(mem, p_idx[rows])
        a_x[rows[:, None], cx] = a
        R_x[rows[:, None, None], cx[:, :, None], cx[:, None, :]] = R
    yX, idio = _regression_moments(S, a_x, R_x, r, s)
    return yX[:, 0], a_x[:, 1:], idio


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
