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


def recursive_factor_moments(parents, targets, a_sel, R_sel, r_sel, s_sel,
                             dof_floor: float = DOF_FLOOR
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Factor moments for every ordering at once, in factor coordinates.

    Position j of ordering o regresses factor ``targets[j][o]`` on the
    factors ``parents[j][o]`` (o, j), which the earlier positions placed;
    ``a_sel[j]`` etc. hold the selected prior of that equation, with the
    coefficients in the order of ``parents[j]``: a (o, j+1), R (o, j+1, j+1),
    r (o,), s (o,).  Degrees of freedom are floored at ``dof_floor``.

    The recursion fills the second moments S = E[x x'] of x = (1, factors).
    For the target y of position j, with regressors X = (1, parents), it
    applies the asset-moment formula of ``batched_asset_moments`` in second
    moments: E[y X] = E[X X'] a and E[y^2] = r/(r-2) (s + tr(R E[X X']))
    + a' E[y X].  At j = 0, X is the constant alone.
    """
    n_ord, K = len(targets[0]), len(targets)
    S = np.zeros((n_ord, K + 1, K + 1))
    S[:, 0, 0] = 1.0
    rows = np.arange(n_ord)[:, None]
    # flat offsets into S, so the (o, j+1, j+1) gather is one 1-D take
    base = rows[:, :, None] * S[0].size
    const = np.zeros((n_ord, 1), dtype=int)
    for pa, tg, a, R, r, s in zip(parents, targets, a_sel, R_sel, r_sel, s_sel):
        r = np.maximum(r, dof_floor)
        X = np.concatenate((const, pa + 1), axis=1)
        y = tg[:, None] + 1
        SX = S.reshape(-1).take(base + X[:, :, None] * (K + 1) + X[:, None, :])
        yX = np.einsum("oij,oj->oi", SX, a)
        S[rows, y, X] = yX
        S[rows, X, y] = yX
        S[rows, y, y] = ((r / (r - 2.0)) * (s + np.einsum("oij,oji->o", R, SX))
                         + np.einsum("oi,oi->o", a, yX))[:, None]
    mean = S[:, 0, 1:]
    return mean, S[:, 1:, 1:] - mean[:, :, None] * mean[:, None, :]


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
