"""Independent closed-form oracles and test-only readers shared by the test modules."""

import numpy as np

from riskcast import portfolio as pf
from riskcast.data import SyntheticTruth


def batch_nig_posterior(X, y, m0, C0, n0, s0):
    """Closed-form Normal-Inverse-Gamma regression posterior.

    Prior: theta | sig2 ~ N(m0, sig2 C0 / s0), sig^-2 ~ Gamma(n0/2, n0 s0 / 2).
    Returns the posterior mapped back to (m, C, n, s) scaling.
    """
    V0i = np.linalg.inv(C0 / s0)
    VTi = V0i + X.T @ X
    VT = np.linalg.inv(VTi)
    mT = VT @ (V0i @ m0 + X.T @ y)
    nT = n0 + len(y)
    sT = (n0 * s0 + y @ y + m0 @ V0i @ m0 - mT @ VTi @ mT) / nT
    return mT, VT * sT, nT, sT


def bordered_box_weights(cov, bound, mean=None, target=None, start=None):
    """The active-set box solve of ``portfolio.constrained_weights`` with its
    face solved on the free weights: each iteration gathers Sigma_FF and solves
    the bordered KKT system of the free block and the equality rows by LU.
    Takes a feasible problem with n * bound > 1 and returns w."""
    n = cov.shape[0]
    E, vals, extremes = np.ones((1, n)), np.ones(1), None
    if target is not None:
        extremes = pf._box_extreme_points(mean, bound)
        E, vals = np.vstack([E, mean]), np.array([1.0, float(target)])
    w = pf._feasible_start(bound, start, n, mean, target, extremes)
    fixed = np.abs(w) >= bound * (1.0 - 1e-12)
    w[fixed] = np.copysign(bound, w[fixed])
    for i in np.flatnonzero(fixed)[::-1]:
        free = ~fixed
        if free.any() and (target is None or np.ptp(mean[free]) > 0):
            break
        fixed[i] = False
    m = E.shape[0]
    for _ in range(4 * n + 16):
        F, B = np.flatnonzero(~fixed), np.flatnonzero(fixed)
        k = F.size
        kkt = np.zeros((k + m, k + m))
        kkt[:k, :k] = 2.0 * cov[np.ix_(F, F)]
        kkt[:k, k:] = E[:, F].T
        kkt[k:, :k] = E[:, F]
        rhs = np.concatenate([-2.0 * cov[np.ix_(F, B)] @ w[B], vals - E[:, B] @ w[B]])
        sol = np.linalg.solve(kkt, rhs)
        if k > m:
            w_face = sol[:k]
            outside = np.abs(w_face) > bound + 1e-12
            if outside.any():
                p = w_face - w[F]
                edge = np.copysign(bound, p)
                steps = np.full(k, np.inf)
                steps[outside] = (edge[outside] - w[F][outside]) / p[outside]
                j = int(np.argmin(steps))
                w[F] += steps[j] * p
                w[F[j]] = edge[j]
                fixed[F[j]] = True
                continue
            w[F] = np.clip(w_face, -bound, bound)
        mult = -(2.0 * cov[B] @ w + E[:, B].T @ sol[k:]) * np.sign(w[B])
        if B.size == 0 or mult.min() >= -pf.KKT_TOL:
            return w
        fixed[B[int(np.argmin(mult))]] = False
    raise AssertionError("the bordered active-set solve did not converge")


def fee_bisection(rc, rb, gamma, lo=-0.5, hi=0.5):
    """Root of the average-utility equation by bisection, in per-period units."""
    c = gamma / (2 * (1 + gamma))

    def gap(phi):
        return np.sum((rc - phi) - c * (rc - phi) ** 2) - np.sum(rb - c * rb ** 2)

    assert gap(lo) * gap(hi) <= 0, "oracle bracket failed"
    for _ in range(200):
        mid = (lo + hi) / 2
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def parse_table(text: str) -> list[dict]:
    """Inverse of render_table on its own output (used for round-trip checks)."""
    records: list[dict] = []
    tc = None
    gammas: list[str] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        if ln.startswith("TC ="):
            tc = float(ln.split("=")[1].split()[0])
            header_cells = lines[i + 1].split()
            gammas = [c[len("Phi(g="):-1] for c in header_cells if c.startswith("Phi(g=")]
            i += 3
            continue
        if not ln or ln.startswith("#"):
            i += 1
            continue
        cells = ln.split()
        base = 5
        n_fee = len(gammas)
        rec = {
            "model": cells[0],
            "tc_bps": tc,
            "turnover": float(cells[1]),
            "mean": float(cells[2]) / 100.0,
            "sd": float(cells[3]) / 100.0,
            "sharpe": float(cells[4]),
            "phi_bps": {},
        }
        for k, g in enumerate(gammas):
            if base + k < len(cells) and cells[base + k]:
                rec["phi_bps"][g] = float(cells[base + k])
        rest = cells[base + n_fee:]
        rec["lpd"] = float(rest[0]) if len(rest) > 0 else None
        rec["acc"] = float(rest[1]) if len(rest) > 1 else None
        records.append(rec)
        i += 1
    return records


def load_truth(path) -> SyntheticTruth:
    """Read a truth record written by ``data.save_truth``."""
    with np.load(path) as z:
        return SyntheticTruth(z["loadings"], z["intercepts"], z["factor_cov"],
                              z["idio_var"], z["factors"])
