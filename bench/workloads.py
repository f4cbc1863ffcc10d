"""Benchmark workloads and the seeded panel generator behind them.

Each workload is one backtest configuration plus the shape of the synthetic
panel it runs on.  Panels are drawn here, not with ``riskcast.data``, so the
program under test only ever sees the CSV files this module writes.  Returns
follow r_t = B_t f_t + eps_t with zero intercepts, Gaussian factors
f_t ~ N(0, Sigma_f) and Gaussian noise eps_t ~ N(0, diag(sigma^2)); the
generating parameters are kept beside the panel for the oracle checks.
"""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: panel shape, backtest settings and tolerances.

    ``config`` holds the ``RunConfig`` keyword arguments.  ``lpd_gap`` is the
    largest shortfall, in nats per asset and evaluation date, that the
    model's LPD may show against the generating-parameter oracle.
    """

    name: str
    why: str
    n_assets: int
    n_factors: int
    n_dates: int
    train_len: int
    regimes: bool
    config: dict = field(default_factory=dict)
    lpd_gap: float = 0.5


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper_learned",
        "paper scale: 452 assets, learned ordering over 120 orderings, MVP on model means; "
        "the filter kernel dominates",
        n_assets=452, n_factors=5, n_dates=32, train_len=20, regimes=False,
        config=dict(ordering="learn", ordering_cap=120, strategy="mvp",
                    mean_signal="model", tc_bps=(5.0,), gamma=(10.0,)),
        lpd_gap=0.4),
    Workload(
        "small_regimes",
        "50 assets, 3 factors, regime-switching loadings, GMV against ewma97 and efm; "
        "small arrays, so per-call overhead dominates",
        n_assets=50, n_factors=3, n_dates=520, train_len=104, regimes=True,
        config=dict(ordering="fixed", strategy="gmv", tc_bps=(0.0,),
                    benchmarks=("ewma97", "efm"), fee_reference="none"),
        lpd_gap=0.08),
    Workload(
        "box_gmv",
        "100 assets, GMV under a 0.05 box against five comparison models; the "
        "active-set weight solve dominates",
        n_assets=100, n_factors=5, n_dates=154, train_len=130, regimes=False,
        config=dict(ordering="fixed", sparsity=False, strategy="gmv", max_weight=0.05,
                    tc_bps=(0.0, 10.0), gamma=(5.0,),
                    benchmarks=("efm", "lw", "ewma99", "wdlm", "factor-wdlm"),
                    fee_reference="wdlm"),
        lpd_gap=0.08),
)}


@dataclass(frozen=True)
class GeneratedPanel:
    """A drawn panel and the parameters that generated it."""

    dates: tuple[str, ...]
    R: np.ndarray            # (T, N) asset returns
    F: np.ndarray            # (T, K) factor returns
    loadings: np.ndarray     # (T, N, K)
    factor_cov: np.ndarray   # (K, K)
    idio_var: np.ndarray     # (N,)


def _rngs(workload: Workload, seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(market, path) generators.

    The market -- loadings, their sparsity or regimes, idiosyncratic
    variances -- is fixed per workload, and the seed draws the factor and
    noise paths, so seeds are return histories of one market.  On a
    188-date box_gmv panel, seeds 0-5 took 4.7k-7.4k KKT iterations per
    round with Sigma_f and the market drawn per seed, and 4.7k-6.3k with
    both fixed.
    """
    key = zlib.crc32(workload.name.encode())
    return np.random.default_rng([key]), np.random.default_rng([seed, key])


def _loadings(rng: np.random.Generator, N: int, K: int, T: int, regimes: bool) -> np.ndarray:
    """(T, N, K) loadings: a market factor near one plus sparse style factors.

    Every loading drifts slowly around its base value.  With ``regimes`` the
    style loadings also switch on and off in blocks of about 130 dates, so a
    static fit is always partly stale.
    """
    base = rng.normal(0.0, 0.6, size=(N, K))
    base[:, 0] = rng.uniform(0.6, 1.4, N)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(N, K))
    t = np.arange(T)[:, None, None]
    B = base * (1.0 + 0.2 * np.sin(2.0 * np.pi * t / 900.0 + phase))
    if regimes:
        n_regimes = max(1, round(T / 130))
        cuts = np.linspace(0, T, n_regimes + 1).astype(int)
        on = rng.random((n_regimes, N, K)) < 0.55
        on[:, :, 0] = True
        for g in range(n_regimes):
            B[cuts[g]:cuts[g + 1]] *= on[g]
    else:
        off = rng.random((N, K)) < 0.35
        off[:, 0] = False
        B[:, off] = 0.0
    return B


def _factor_cov(K: int) -> np.ndarray:
    """Factor covariance: vols from 2 % down to 1 %, pairwise correlation 0.3."""
    vol = np.linspace(0.02, 0.01, K)
    return (0.7 * np.eye(K) + 0.3) * np.outer(vol, vol)


def generate(workload: Workload, seed: int) -> GeneratedPanel:
    """Draw the workload's panel; the same seed gives bit-identical arrays."""
    market, path = _rngs(workload, seed)
    N, K, T = workload.n_assets, workload.n_factors, workload.n_dates
    B = _loadings(market, N, K, T, workload.regimes)
    fc = _factor_cov(K)
    idio = market.uniform(0.015, 0.035, N) ** 2
    f = path.standard_normal((T, K)) @ np.linalg.cholesky(fc).T
    R = np.einsum("tnk,tk->tn", B, f) + path.standard_normal((T, N)) * np.sqrt(idio)
    dates = tuple(f"w{t:05d}" for t in range(T))
    return GeneratedPanel(dates, R, f, B, fc, idio)


def write_csv(panel: GeneratedPanel, asset_path, factor_path) -> None:
    """Write the two files ``riskcast.data.load_panel`` reads.

    ``repr`` round-trips a float exactly, so the loaded panel equals the
    drawn one bit for bit.
    """
    for path, prefix, M in ((asset_path, "A", panel.R), (factor_path, "F", panel.F)):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", *(f"{prefix}{i:03d}" for i in range(M.shape[1]))])
            for d, row in zip(panel.dates, M):
                writer.writerow([d, *map(repr, row.tolist())])
