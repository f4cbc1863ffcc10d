"""Return-panel ingestion, alignment and synthetic data generation.

Asset and factor returns arrive in two delimited text files sharing a date
column; panels are inner-joined on dates and validated.  Rows containing a
missing value are rejected, never imputed.  Returns are used exactly as
supplied: if annualized means / Sharpe ratios downstream are to be read as
excess returns, the caller must supply excess returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, FormatError, IntegrityError, ParameterError, ShapeError


@dataclass(frozen=True)
class ReturnPanel:
    """Aligned time-indexed panel of N asset returns and K factor returns.

    ``R`` is T x N, ``F`` is T x K, both sharing the date index.  Dates are
    opaque strings compared lexicographically.  ``train_len`` marks how many
    initial periods are reserved for training.
    """

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    factors: tuple[str, ...]
    R: np.ndarray
    F: np.ndarray
    train_len: int

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "F", F)
        T = len(self.dates)
        if R.shape != (T, len(self.assets)):
            raise ShapeError(f"R has shape {R.shape}, expected ({T}, {len(self.assets)})")
        if F.shape != (T, len(self.factors)):
            raise ShapeError(f"F has shape {F.shape}, expected ({T}, {len(self.factors)})")
        if np.isnan(R).any() or np.isnan(F).any():
            raise IntegrityError("panel contains missing values after alignment")
        if len(set(self.dates)) != T:
            raise IntegrityError("duplicate dates in panel")
        if not 0 < self.train_len < T:
            raise ParameterError(f"train_len must lie in (0, T={T}), got {self.train_len}")

    @property
    def T(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def _parse_row(path, names: list[str], lineno: int, rec: list[str]) -> list[float] | None:
    """One data row's numbers, cell by cell, or None for a row to drop: a blank
    row, or one with an empty / NaN cell.  A row of the wrong length, or a
    non-numeric, non-empty cell, raises FormatError naming the row and column."""
    if not rec or all(c.strip() == "" for c in rec):
        return None
    if len(rec) != len(names) + 1:
        raise FormatError(f"{path}: row {lineno} has {len(rec)} cells, expected {len(names) + 1}")
    values: list[float] = []
    missing = False
    for col, cell in zip(names, rec[1:]):
        cell = cell.strip()
        if cell == "":
            missing = True
            continue
        try:
            v = float(cell)
        except ValueError:
            raise FormatError(f"{path}: row {lineno}, column {col!r}: cannot parse {cell!r} as a number") from None
        if math.isnan(v):
            missing = True
        else:
            values.append(v)
    return None if missing else values


def _read_csv(path) -> tuple[list[str], dict[str, list[float]]]:
    """Read one delimited file -> (column names, date -> numeric row).

    Rows with any empty / NaN cell are dropped.  Non-numeric, non-empty cells
    raise FormatError naming the offending row and column.  A row of the right
    length is parsed in one pass, ``float`` stripping the same whitespace as
    ``str.strip``; only a row that fails it (blank, short or long, or with an
    empty or non-numeric cell) goes through ``_parse_row``'s cell-by-cell checks.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if len(header) < 2:
            raise FormatError(f"{path}: need a date column plus at least one series")
        names = [h.strip() for h in header[1:]]
        rows: dict[str, list[float]] = {}
        for lineno, rec in enumerate(reader, start=2):
            try:
                values = list(map(float, rec[1:])) if len(rec) == len(header) else None
            except ValueError:
                values = None
            if values is None:
                values = _parse_row(path, names, lineno, rec)
            if values is None or any(map(math.isnan, values)):
                continue
            date = rec[0].strip()
            if date in rows:
                raise IntegrityError(f"{path}: duplicate date {date!r} at row {lineno}")
            rows[date] = values
    return names, rows


def load_panel(asset_path, factor_path, train_len: int | None = None) -> ReturnPanel:
    """Load and inner-join asset and factor return files.

    Both files are comma-delimited with a header row; the first column holds
    the date label and the remaining columns are numeric.  Dates present in
    only one file are dropped; the result is sorted by date ascending.  When
    ``train_len`` is omitted, a quarter of the joined panel is reserved.
    """
    assets, asset_rows = _read_csv(asset_path)
    factors, factor_rows = _read_csv(factor_path)
    dates = sorted(set(asset_rows) & set(factor_rows))
    if not dates:
        raise AlignmentError(f"{asset_path} and {factor_path} share no dates")
    R = np.array([asset_rows[d] for d in dates], dtype=float)
    F = np.array([factor_rows[d] for d in dates], dtype=float)
    if train_len is None:
        train_len = max(1, len(dates) // 4)
    return ReturnPanel(tuple(dates), tuple(assets), tuple(factors), R, F, train_len)


def save_panel(panel: ReturnPanel, asset_path, factor_path) -> None:
    """Write a panel back to the two-file delimited format read by load_panel."""
    for path, names, M in ((asset_path, panel.assets, panel.R), (factor_path, panel.factors, panel.F)):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", *names])
            for i, d in enumerate(panel.dates):
                writer.writerow([d] + [repr(float(v)) for v in M[i]])


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth description for a simulated factor-model panel.

    ``loadings`` is (T, N, K) or (N, K) (held constant over time); hard-zero
    segments encode sparsity.  ``intercepts`` is (T, N), (N,) or None.
    """

    N: int
    K: int
    T: int
    loadings: np.ndarray
    factor_cov: np.ndarray
    idio_var: np.ndarray
    seed: int = 0
    intercepts: np.ndarray | None = None
    train_len: int | None = None

    def __post_init__(self):
        fc = np.asarray(self.factor_cov, float)
        iv = np.asarray(self.idio_var, float)
        if fc.shape != (self.K, self.K):
            raise ShapeError(f"factor_cov must be {self.K}x{self.K}")
        if not np.allclose(fc, fc.T):
            raise ParameterError("factor_cov must be symmetric")
        try:
            np.linalg.cholesky(fc)
        except np.linalg.LinAlgError:
            raise ParameterError("factor_cov must be positive definite") from None
        if iv.shape != (self.N,) or np.any(iv <= 0):
            raise ParameterError("idio_var must be N strictly positive variances")


@dataclass(frozen=True)
class SyntheticTruth:
    """Per-period true parameters of a generated panel."""

    loadings: np.ndarray      # (T, N, K)
    intercepts: np.ndarray    # (T, N)
    factor_cov: np.ndarray    # (K, K)
    idio_var: np.ndarray      # (N,)
    factors: np.ndarray       # (T, K) realized factor draws


def _expand_loadings(spec: SyntheticSpec) -> np.ndarray:
    B = np.asarray(spec.loadings, dtype=float)
    if B.shape == (spec.N, spec.K):
        B = np.broadcast_to(B, (spec.T, spec.N, spec.K)).copy()
    if B.shape != (spec.T, spec.N, spec.K):
        raise ShapeError(f"loadings must be (T,N,K) or (N,K), got {B.shape}")
    return B


def _expand_intercepts(spec: SyntheticSpec) -> np.ndarray:
    if spec.intercepts is None:
        return np.zeros((spec.T, spec.N))
    a = np.asarray(spec.intercepts, dtype=float)
    if a.shape == (spec.N,):
        a = np.broadcast_to(a, (spec.T, spec.N)).copy()
    if a.shape != (spec.T, spec.N):
        raise ShapeError(f"intercepts must be (T,N) or (N,), got {a.shape}")
    return a


def generate_synthetic(spec: SyntheticSpec) -> tuple[ReturnPanel, SyntheticTruth]:
    """Simulate r_t = alpha_t + B_t f_t + eps_t with Gaussian factors and noise.

    Identical seeds give bit-identical panels.
    """
    B = _expand_loadings(spec)
    alpha = _expand_intercepts(spec)
    rng = np.random.default_rng(spec.seed)
    L = np.linalg.cholesky(np.asarray(spec.factor_cov, float))
    f = rng.standard_normal((spec.T, spec.K)) @ L.T
    eps = rng.standard_normal((spec.T, spec.N)) * np.sqrt(np.asarray(spec.idio_var, float))
    R = alpha + np.einsum("tnk,tk->tn", B, f) + eps
    dates = tuple(f"t{i:05d}" for i in range(spec.T))
    assets = tuple(f"A{i:03d}" for i in range(spec.N))
    factors = tuple(f"F{i}" for i in range(spec.K))
    train_len = spec.train_len if spec.train_len is not None else max(1, spec.T // 4)
    panel = ReturnPanel(dates, assets, factors, R, f, train_len)
    truth = SyntheticTruth(B, alpha, np.asarray(spec.factor_cov, float).copy(),
                           np.asarray(spec.idio_var, float).copy(), f)
    return panel, truth


def save_truth(truth: SyntheticTruth, path) -> None:
    """Serialize a truth record to an .npz sidecar for test harnesses."""
    np.savez(path, loadings=truth.loadings, intercepts=truth.intercepts,
             factor_cov=truth.factor_cov, idio_var=truth.idio_var, factors=truth.factors)
