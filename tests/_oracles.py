"""Independent closed-form oracles shared by the test modules."""

import numpy as np


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
