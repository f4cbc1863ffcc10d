"""Vectorized filter kernel used by the engine.

Pool members are stacked into arrays so that every equation with the same
regression dimension advances in one set of array operations: axis ``b``
runs over equations (assets sharing a parent mask, or the distinct factor
equations of one ordering position).  Every equation is filtered under each
pair of a loading discount delta and a volatility discount kappa.

Under variance discounting the posterior mean m and the scaled covariance
C / s do not depend on kappa, which enters only s and the degrees of freedom
n (West & Harrison 1997, sec. 10.8; Prado & West 2010, sec. 4.3).  So m and
the scale-free covariance C+ = C s0 / s are kept once per delta, and s once
per (delta, kappa); s0 is the equation's prior scale.  Scaling by s0 / s
rather than 1 / s starts C+ at exactly c0 I, so the diffuse first updates
keep the arithmetic of an unscaled filter instead of amplifying the rounding
in s0 by c0 / s0.

Equations are the contiguous innermost axis: ``_m`` is (d, Pd, b), ``_C`` is
(d, d, Pd, b) and ``_s`` is (Pd, Pk, b) for Pd deltas and Pk kappas, so
elementwise passes run over rows of b, with per-delta and per-kappa factors
broadcast over them.  The recursions are those of the ``dlm`` module; the
test suite asserts equivalence against that per-state reference kernel.

Degrees of freedom evolve as n <- kappa * n + 1 independently of the data,
so ``n`` is stored once per discount pair rather than per equation.

Recoupling works in the second moments S = E[x x'] of x = (1, factors): a
selected regression of y on columns X of x gives E[y X] = S_XX a and
E[y^2] = r/(r-2) (s + tr(R S_XX)) + a' E[y X], the one formula that fills S
for the factors and gives each asset's mean and idiosyncratic variance.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import NumericError

# floor on predictive dof in r/(r-2), so a deep volatility discount cannot abort a run
DOF_FLOOR = 2.05


def t_logpdf_grid(y, f, q, dof, log_norm=None):
    """Student-t log density on broadcastable arrays.

    ``log_norm`` may carry the precomputed gammaln((dof+1)/2) - gammaln(dof/2)
    term, which depends only on dof.
    """
    if log_norm is None:
        log_norm = gammaln((dof + 1.0) / 2.0) - gammaln(dof / 2.0)
    z2 = (y - f) ** 2 / (dof * q)
    return log_norm - 0.5 * np.log(dof * np.pi * q) - (dof + 1.0) / 2.0 * np.log1p(z2)


class PoolGroup:
    """States of all pool members with one regression dimension.

    ``idx`` holds the parent factor indices, when the members share them;
    the regression dimension is d = 1 + len(idx).  ``deltas`` and
    ``kappas`` are the two discount grids.  Their P = Pd * Pk pairs are the
    specs, numbered p = i_delta * Pk + i_kappa; n and r are (P,).

    With regressor F and e = y - F'm, one step is, once per delta,
        q+ = s0 + F'C+F / delta,   A = C+F / (delta q+),
        m <- m + A e,   C+ <- C+ / delta - A A' q+,
    and once per (delta, kappa), with q = q+ s_prev / s0 the forecast
    variance, z = (r + e^2 / q) / (r + 1) and s <- s z.  Writing
    C = C+ s / s0, these are the ``dlm`` recursions of every spec.

    The evolution has identity transition, so it moves nothing: the prior
    mean is m and the prior scale R is C / delta, which ``forecast`` and
    ``update`` fold in instead of materializing.  ``update`` advances the
    state in place, so ``s_prev`` (an alias of ``_s``) holds the prior scale
    only between ``evolve`` and ``update``.  C+ stays exactly symmetric: the
    update scales it elementwise and subtracts the outer product g g', whose
    (i, j) and (j, i) entries are the same product.

    ``m``, ``C`` and ``s`` return the state per spec, as (b, P, d),
    (b, P, d, d) and (b, P) arrays; the first two are copies.
    """

    def __init__(self, idx, n_eq: int, deltas, kappas, s0, c0: float = 100.0,
                 n0: float = 10.0):
        self.idx = np.asarray(idx, dtype=int)
        self.d = 1 + self.idx.size
        self.deltas = np.asarray(deltas, float)
        self.kappas = np.asarray(kappas, float)
        n_d, n_k = self.deltas.size, self.kappas.size
        self.P = n_d * n_k
        self.n_eq = n_eq
        self._delta = self.deltas[:, None]          # broadcasts over (Pd, b)
        self._kappa = np.tile(self.kappas, n_d)     # per spec
        self.s0 = np.broadcast_to(np.asarray(s0, float), (n_eq,)).copy()
        self._m = np.zeros((self.d, n_d, n_eq))
        self._C = np.zeros((self.d, self.d, n_d, n_eq))
        diag = np.arange(self.d)
        self._C[diag, diag] = c0
        self._s = np.broadcast_to(self.s0, (n_d, n_k, n_eq)).copy()
        self.n = np.full(self.P, n0)
        # evolved prior quantities, populated by evolve()
        self.r = self._r = None     # r per spec (P,), and as (Pd, Pk, 1)
        self._r_shape = (n_d, n_k, 1)
        self.s_prev = None
        self._CF = self._qs = None  # C+F and q+ from forecast(), consumed by update()

    @property
    def m(self) -> np.ndarray:
        return np.repeat(self._m, self.kappas.size, axis=1).T

    @property
    def C(self) -> np.ndarray:
        C = self._C[:, :, :, None, :] * (self._s / self.s0)
        return C.reshape(self.d, self.d, self.P, self.n_eq).transpose(3, 2, 0, 1)

    @property
    def s(self) -> np.ndarray:
        return self._s.reshape(self.P, self.n_eq).T

    def evolve(self) -> None:
        self.r = self._kappa * self.n
        self._r = self.r.reshape(self._r_shape)
        self.s_prev = self._s

    def forecast(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forecast mean f (Pd, 1, b) and variance q (Pd, Pk, b); F is (d,)
        shared or (b, d)."""
        if F.ndim == 1:
            # C+ is symmetric, so contracting its first index gives C+ F
            CF = (F @ self._C.reshape(self.d, -1)).reshape(self._m.shape)
            f = (F @ self._m.reshape(self.d, -1)).reshape(self._m.shape[1:])
            FCF = (F @ CF.reshape(self.d, -1)).reshape(f.shape)
        else:
            CF = np.einsum("ijpb,bj->ipb", self._C, F)
            f = np.einsum("ipb,bi->pb", self._m, F)
            FCF = np.einsum("ipb,bi->pb", CF, F)
        qs = self.s0 + FCF / self._delta
        if qs.min() <= 0:
            raise NumericError("non-positive forecast variance in batched filter")
        self._CF, self._qs = CF, qs
        return f[:, None], (qs / self.s0)[:, None] * self.s_prev

    def log_densities(self, y, f, q) -> np.ndarray:
        """Log predictive densities per equation and spec, (b, P)."""
        r = self._r
        log_norm = gammaln((r + 1.0) / 2.0) - gammaln(r / 2.0)
        lp = t_logpdf_grid(np.asarray(y, float), f, q, r, log_norm)
        return lp.reshape(self.P, self.n_eq).T

    def update(self, y, f: np.ndarray, q: np.ndarray) -> None:
        """Posterior update in place, given the realized y and the forecast (f, q).

        Uses the C+F and q+ of the preceding ``forecast`` call, so the
        regressor is the one given there.
        """
        e = np.asarray(y, float) - f
        r = self._r
        z = (r + e * e / q) / (r + 1.0)
        A, qs = self._CF, self._qs
        self._CF = self._qs = None
        A /= self._delta * qs           # adaptive vector C+F / (delta q+)
        self._m += A * e[:, 0]
        A *= np.sqrt(qs)                # g, with g g' = A A' q+
        self._C /= self._delta
        self._C -= A[:, None] * A[None, :]
        self._s *= z
        self.n = self.r + 1.0

    def selected(self, members: np.ndarray, p_idx: np.ndarray):
        """Gather the evolved prior of chosen members: (a, R, r, s_prev).

        ``p_idx`` is the spec of each member; R = C+ s_prev / (s0 delta).
        """
        di = p_idx // self.kappas.size
        s_prev = self.s_prev.reshape(self.P, self.n_eq)[p_idx, members]
        a = self._m[:, di, members].T
        R = (self._C[:, :, di, members].transpose(2, 0, 1)
             * (s_prev / (self.s0[members] * self.deltas[di]))[:, None, None])
        return a, R, self.r[p_idx], s_prev


def _regression_moments(SXX, a, R, r, s, dof_floor):
    """E[y X] = S_XX a, (b, d), and the expected predictive variance
    r/(r-2) (s + tr(R S_XX)), (b,), of the selected priors (a, R, r, s), with
    r floored at ``dof_floor``; SXX is (b, d, d) or one (d, d) for all b."""
    r = np.maximum(r, dof_floor)
    yX = np.einsum("...ij,...j->...i", SXX, a)
    return yX, (r / (r - 2.0)) * (s + np.einsum("...ij,...ji->...", R, SXX))


def moment_offsets(cols) -> list[np.ndarray]:
    """Flat offsets into S (o, K+1, K+1), K = len(cols), of the blocks
    S[o][c, c'] for c, c' in cols[j][o]: the x-columns of ordering o's
    equation at position j, the constant 0, the parents, then the target."""
    n = len(cols) + 1
    return [(np.arange(c.shape[0])[:, None, None] * n + c[:, :, None]) * n + c[:, None, :]
            for c in cols]


def recursive_factor_moments(offsets, a_sel, R_sel, r_sel, s_sel,
                             dof_floor: float = DOF_FLOOR) -> np.ndarray:
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
        yX, var = _regression_moments(flat[off[:, :-1, :-1]], a, R, r, s, dof_floor)
        flat[off[:, -1, :-1]] = yX
        flat[off[:, :-1, -1]] = yX
        flat[off[:, -1, -1]] = var + np.einsum("oi,oi->o", a, yX)
    return S


def batched_asset_moments(groups, sel_flat: np.ndarray, lam: np.ndarray,
                          sig: np.ndarray, dof_floor: float = DOF_FLOOR):
    """Mean vector, loading matrix and idiosyncratic variances of all assets.

    ``sel_flat[j]`` is the flattened (group, member) spec index selected for
    asset j.  With S the second moments of x = (1, factors) under factor mean
    ``lam`` and covariance ``sig``, an asset's mean is E[y 1] and its
    idiosyncratic variance its expected predictive variance.
    """
    n_eq, K = groups[0].n_eq, lam.size
    S = np.empty((K + 1, K + 1))
    S[0, 0] = 1.0
    S[0, 1:] = S[1:, 0] = lam
    S[1:, 1:] = sig + np.outer(lam, lam)
    mean = np.zeros(n_eq)
    idio = np.zeros(n_eq)
    B = np.zeros((n_eq, K))
    gi, p_idx = np.divmod(sel_flat, groups[0].P)
    for g, grp in enumerate(groups):
        mem = np.flatnonzero(gi == g)
        if mem.size == 0:
            continue
        a, R, r, s = grp.selected(mem, p_idx[mem])
        cols = np.concatenate(([0], grp.idx + 1))
        yX, idio[mem] = _regression_moments(S[cols[:, None], cols], a, R, r, s, dof_floor)
        mean[mem] = yX[:, 0]
        B[mem[:, None], grp.idx[None, :]] = a[:, 1:]
    return mean, B, idio


def asset_covariance(B: np.ndarray, sig: np.ndarray, idio: np.ndarray) -> np.ndarray:
    """Asset covariance B sig B' + diag(idio), symmetrized."""
    cov = B @ sig @ B.T
    cov[np.diag_indices(idio.size)] += idio
    return (cov + cov.T) / 2.0
