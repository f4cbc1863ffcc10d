"""The model's weight solves against the benchmark's independent KKT oracle.

The model hands its covariance to the closed-form solvers in factor form.
``bench/checks.py::check_weight_solve`` reads that argument only through
``shape``, scalar products and ``w @ cov @ w``, all of which go through the
dense array, so it checks the Woodbury weights against the matrix itself.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riskcast import portfolio as pf
from riskcast._batch import FactorCovariance
from riskcast.engine import RunConfig, run_backtest
from test_engine import small_panel

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("weight_contract_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def model_solves(monkeypatch, strategy):
    """The solver, unwrapped, and the (kind, args, w) of each of its calls in a
    backtest without comparison rows."""
    name = f"{strategy}_weights"
    solve, calls = getattr(pf, name), []

    def record(*args):
        w = solve(*args).w
        calls.append((f"portfolio.{name}", args, w))
        return pf.WeightVector(w)

    monkeypatch.setattr(pf, name, record)
    run_backtest(small_panel(seed=19, N=12, K=3, T=90, train=40), RunConfig(strategy=strategy))
    return solve, calls


@pytest.mark.parametrize("strategy", ["mvp", "gmv"])
def test_first_and_last_model_solves_pass_the_bench_oracle(monkeypatch, strategy):
    checks = load_checks()
    solve, calls = model_solves(monkeypatch, strategy)
    assert len(calls) == 50
    for kind, args, w in (calls[0], calls[-1]):
        cov = args[1] if strategy == "mvp" else args[0]
        assert isinstance(cov, FactorCovariance)
        assert checks.check_weight_solve(kind, args, {}, w) == []
        # the Woodbury weights are the dense solve's to 1e-12 of their scale
        dense = solve(*(np.asarray(a) if a is cov else a for a in args)).w
        assert np.abs(w - dense).max() <= 1e-12 * np.abs(dense).max()
        # a step that keeps the budget (and the target) raises the variance
        rows = np.vstack([np.ones_like(w), args[0]]) if strategy == "mvp" else np.ones((1, w.size))
        d = np.linalg.svd(rows)[2][-1]
        assert checks.check_weight_solve(kind, args, {}, w + 1e-3 * d / np.abs(d).max()) != []
