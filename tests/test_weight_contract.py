"""The weight solves of the model and of the comparison rows against the
benchmark's independent KKT oracle.

The model hands its covariance to the closed-form solvers in factor form, and
each comparison row its dense matrix, both as a ``Covariance``.
``bench/checks.py::check_weight_solve`` reads that argument only through
``shape``, scalar products and ``w @ cov @ w``, all of which go through the
dense array, so it checks the Woodbury and the Cholesky weights against the
matrix itself.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riskcast import portfolio as pf
from riskcast._batch import Covariance, FactorCovariance
from riskcast.engine import RunConfig, run_backtest
from test_engine import small_panel

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("weight_contract_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_solves(monkeypatch, strategy, panel=None, benchmarks=()):
    """The solver, unwrapped, and the (kind, args, w) of each of its calls in a
    backtest, without comparison rows unless ``benchmarks`` names some; the
    model's calls come first, then each row's in turn."""
    name = f"{strategy}_weights"
    solve, calls = getattr(pf, name), []

    def record(*args):
        w = solve(*args).w
        calls.append((f"portfolio.{name}", args, w))
        return pf.WeightVector(w)

    monkeypatch.setattr(pf, name, record)
    if panel is None:
        panel = small_panel(seed=19, N=12, K=3, T=90, train=40)
    run_backtest(panel, RunConfig(strategy=strategy, benchmarks=benchmarks))
    return solve, calls


@pytest.mark.parametrize("strategy", ["mvp", "gmv"])
def test_first_and_last_model_solves_pass_the_bench_oracle(monkeypatch, strategy):
    checks = load_checks()
    solve, calls = recorded_solves(monkeypatch, strategy)
    assert len(calls) == 50
    for kind, args, w in (calls[0], calls[-1]):
        cov = args[1] if strategy == "mvp" else args[0]
        assert isinstance(cov, FactorCovariance)
        assert checks.check_weight_solve(kind, args, {}, w) == []
        # the Woodbury weights are the dense solve's to 1e-12 of their scale
        dense = solve(*(Covariance(np.asarray(a)) if a is cov else a for a in args)).w
        assert np.abs(w - dense).max() <= 1e-12 * np.abs(dense).max()
        # a step that keeps the budget (and the target) raises the variance
        rows = np.vstack([np.ones_like(w), args[0]]) if strategy == "mvp" else np.ones((1, w.size))
        d = np.linalg.svd(rows)[2][-1]
        assert checks.check_weight_solve(kind, args, {}, w + 1e-3 * d / np.abs(d).max()) != []


def test_first_and_last_comparison_solves_pass_the_bench_oracle(monkeypatch):
    # the comparison rows of small_regimes, whose first and last GMV solves the
    # benchmark samples; momentum needs 52 training dates
    checks = load_checks()
    panel = small_panel(seed=19, N=12, K=3, T=90, train=60)
    _, calls = recorded_solves(monkeypatch, "gmv", panel, benchmarks=("ewma97", "efm"))
    assert len(calls) == 3 * 30
    for row in (calls[30:60], calls[60:]):
        for kind, args, w in (row[0], row[-1]):
            assert type(args[0]) is Covariance
            assert checks.check_weight_solve(kind, args, {}, w) == []
            # a step that keeps the budget raises the variance
            d = np.linalg.svd(np.ones((1, w.size)))[2][-1]
            assert checks.check_weight_solve(kind, args, {}, w + 1e-3 * d / np.abs(d).max()) != []
