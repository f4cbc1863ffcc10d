"""Vectorized filter kernel used by the engine.

Pool members are stacked into arrays so that every equation sharing a parent
mask advances in one set of array operations: axis ``b`` runs over equations
(assets, or orderings for the factor block), axis ``p`` over discount
combinations.  The state is stored component-major, with the regression
dimensions leading: ``m`` is (d, b, p) and ``C`` is (d, d, b, p), so every
elementwise pass runs over contiguous b x p planes.  The recursions are the
same as in the ``dlm`` module; the test suite asserts equivalence against the
per-state reference kernel.

Degrees of freedom evolve as n <- kappa * n + 1 independently of the data,
so ``n`` is stored once per discount combination rather than per equation.
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
    """States of all pool members sharing one parent index set.

    ``idx`` holds the parent factor indices; the regression dimension is
    d = 1 + len(idx).  The state lives component-major in ``_m`` (d, b, p)
    and ``_C`` (d, d, b, p), with s (b, p) and n (p,).  ``m`` and ``C`` read
    it as (b, p, d[, d]) views.

    The evolution has identity transition, so it moves nothing: the prior
    mean ``a`` is ``m`` and the prior scale ``R`` is C / delta, which
    ``forecast`` and ``update`` fold in instead of materializing.  ``update``
    advances the state in place, so ``a``, ``R`` and ``s_prev`` describe the
    prior only between ``evolve`` and ``update``.  C stays exactly
    symmetric: the update scales it elementwise and subtracts the outer
    product g g', whose (i, j) and (j, i) entries are the same product.
    """

    def __init__(self, idx, n_eq: int, deltas, kappas, s0, c0: float = 100.0,
                 n0: float = 10.0):
        self.idx = np.asarray(idx, dtype=int)
        self.d = 1 + self.idx.size
        self.deltas = np.asarray(deltas, float)
        self.kappas = np.asarray(kappas, float)
        self.P = self.deltas.size
        self.n_eq = n_eq
        self._m = np.zeros((self.d, n_eq, self.P))
        self._C = np.zeros((self.d, self.d, n_eq, self.P))
        diag = np.arange(self.d)
        self._C[diag, diag] = c0
        s0 = np.broadcast_to(np.asarray(s0, float), (n_eq,))
        self.s = np.repeat(s0[:, None], self.P, axis=1)
        self.n = np.full(self.P, n0)
        # evolved prior quantities, populated by evolve()
        self.r = None
        self.s_prev = None
        self._CF = None     # C F from forecast(), consumed by update()

    @property
    def m(self) -> np.ndarray:
        return np.moveaxis(self._m, 0, -1)

    @m.setter
    def m(self, value) -> None:
        self._m[...] = np.moveaxis(np.asarray(value, float), -1, 0)

    a = m

    @property
    def C(self) -> np.ndarray:
        return self._C.transpose(2, 3, 0, 1)

    @property
    def R(self) -> np.ndarray:
        return self.C / self.deltas[None, :, None, None]

    def evolve(self) -> None:
        self.r = self.kappas * self.n
        self.s_prev = self.s

    def forecast(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forecast mean and variance factor; F is (d,) shared or (b, d)."""
        if F.ndim == 1:
            # C is symmetric, so contracting its first index gives C F
            CF = (F @ self._C.reshape(self.d, -1)).reshape(self._m.shape)
            f = (F @ self._m.reshape(self.d, -1)).reshape(self.s.shape)
            FCF = (F @ CF.reshape(self.d, -1)).reshape(self.s.shape)
        else:
            CF = np.einsum("ijbp,bj->ibp", self._C, F)
            f = np.einsum("ibp,bi->bp", self._m, F)
            FCF = np.einsum("ibp,bi->bp", CF, F)
        q = self.s_prev + FCF / self.deltas
        if np.any(q <= 0):
            raise NumericError("non-positive forecast variance in batched filter")
        self._CF = CF
        return f, q

    def log_densities(self, y, f, q) -> np.ndarray:
        dof = self.r[None, :]
        log_norm = gammaln((self.r + 1.0) / 2.0) - gammaln(self.r / 2.0)
        return t_logpdf_grid(np.asarray(y, float).reshape(-1, 1), f, q, dof, log_norm[None, :])

    def update(self, y, f: np.ndarray, q: np.ndarray) -> None:
        """Posterior update in place, given the realized y and the forecast (f, q).

        Uses the C F of the preceding ``forecast`` call, so the regressor is
        the one given there.
        """
        e = np.asarray(y, float).reshape(-1, 1) - f
        r = self.r
        z = (r + e * e / q) / (r + 1.0)
        A = self._CF
        self._CF = None
        A /= self.deltas * q            # adaptive vector R F / q
        self._m += A * e
        A *= np.sqrt(q * z)             # g, with g g' = A A' q z
        self._C *= z / self.deltas
        self._C -= A[:, None] * A[None, :]
        self.s *= z
        self.n = r + 1.0

    def selected(self, members: np.ndarray, p_idx: np.ndarray):
        """Gather the evolved prior of chosen members: (a, R, r, s_prev)."""
        a = self._m[:, members, p_idx].T
        R = (self._C[:, :, members, p_idx].transpose(2, 0, 1)
             / self.deltas[p_idx][:, None, None])
        return a, R, self.r[p_idx], self.s_prev[members, p_idx]


def recursive_factor_moments(perms: np.ndarray, a_sel, R_sel, r_sel, s_sel,
                             dof_floor: float = DOF_FLOOR
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Factor moments for every ordering at once, in canonical coordinates.

    ``a_sel[j]`` etc. hold the selected prior of position j across orderings:
    a (o, j+1), R (o, j+1, j+1), r (o,), s (o,).  Degrees of freedom are
    floored at ``dof_floor``.
    """
    n_ord, K = perms.shape
    mean = np.zeros((n_ord, K))
    cov = np.zeros((n_ord, K, K))
    for j in range(K):
        a, R, r, s = a_sel[j], R_sel[j], r_sel[j], s_sel[j]
        r = np.maximum(r, dof_floor)
        corr = r / (r - 2.0)
        if j == 0:
            mean[:, 0] = a[:, 0]
            cov[:, 0, 0] = corr * (R[:, 0, 0] + s)
            continue
        aB = a[:, 1:]
        RA = R[:, 0, 0]
        RAB = R[:, 0, 1:]
        RB = R[:, 1:, 1:]
        m_pa = mean[:, :j]
        c_pa = cov[:, :j, :j]
        mean[:, j] = a[:, 0] + np.einsum("oi,oi->o", m_pa, aB)
        u = (np.einsum("oi,oij,oj->o", m_pa, RB, m_pa)
             + np.einsum("oij,oji->o", RB, c_pa)
             + 2.0 * np.einsum("oi,oi->o", RAB, m_pa) + RA)
        cov[:, j, j] = corr * (s + u) + np.einsum("oi,oij,oj->o", aB, c_pa, aB)
        cross = np.einsum("oij,oj->oi", c_pa, aB)
        cov[:, j, :j] = cross
        cov[:, :j, j] = cross
    # map position space back to factor identifiers
    rows = np.arange(n_ord)[:, None]
    mean_c = np.zeros_like(mean)
    mean_c[rows, perms] = mean
    cov_c = np.zeros_like(cov)
    cov_c[np.arange(n_ord)[:, None, None], perms[:, :, None], perms[:, None, :]] = cov
    return mean_c, cov_c


def batched_asset_moments(groups, sel_flat: np.ndarray, lam: np.ndarray,
                          sig: np.ndarray, dof_floor: float = DOF_FLOOR):
    """Mean vector, loading matrix and idiosyncratic variances of all assets.

    ``sel_flat[j]`` is the flattened (group, member) spec index selected for
    asset j.  Returns (mean, B, idio); the asset covariance is
    B sig B' + diag(idio).
    """
    n_eq = groups[0].n_eq
    K = lam.size
    P = groups[0].P
    mean = np.zeros(n_eq)
    idio = np.zeros(n_eq)
    B = np.zeros((n_eq, K))
    gi = sel_flat // P
    p_idx = sel_flat % P
    for g, grp in enumerate(groups):
        mem = np.flatnonzero(gi == g)
        if mem.size == 0:
            continue
        a, R, r, s = grp.selected(mem, p_idx[mem])
        r = np.maximum(r, dof_floor)
        idx = grp.idx
        lam_pa = lam[idx]
        sig_pa = sig[np.ix_(idx, idx)]
        aB = a[:, 1:]
        mean[mem] = a[:, 0] + aB @ lam_pa
        u = (np.einsum("i,mij,j->m", lam_pa, R[:, 1:, 1:], lam_pa)
             + np.einsum("mij,ji->m", R[:, 1:, 1:], sig_pa)
             + 2.0 * (R[:, 0, 1:] @ lam_pa) + R[:, 0, 0])
        idio[mem] = (r / (r - 2.0)) * (s + u)
        B[mem[:, None], idx[None, :]] = aB
    return mean, B, idio
