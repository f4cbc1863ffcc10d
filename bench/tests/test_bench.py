"""Tests of the benchmark itself: tracing is transparent, and every output
check passes on real outputs and fails on a planted fault.

    python3 -m pytest bench/tests -q
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

import riskcast.data as data
import riskcast.engine as engine

import checks
import run
import tracing
import workloads

TINY = workloads.Workload(
    "tiny", "test panel", n_assets=12, n_factors=2, n_dates=72, train_len=56, regimes=False,
    config=dict(ordering="learn", strategy="gmv", tc_bps=(0.0, 10.0), gamma=(1.0, 10.0),
                benchmarks=("efm", "lw", "ewma99", "wdlm", "factor-wdlm", "ew"),
                fee_reference="wdlm"),
    lpd_gap=1.0)


def _run(tmp_path, wl, traced=False, seed=0, **overrides):
    gen = workloads.generate(wl, seed)
    a, f = tmp_path / "a.csv", tmp_path / "f.csv"
    workloads.write_csv(gen, a, f)
    config = engine.RunConfig(**{**wl.config, **overrides})
    if traced:
        with tracing.Tracer() as tracer:
            report = engine.run_backtest(data.load_panel(a, f, train_len=wl.train_len), config)
        return gen, config, report, tracer
    report = engine.run_backtest(data.load_panel(a, f, train_len=wl.train_len), config)
    return gen, config, report, None


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("tiny"), TINY)


# ---- tracing ----------------------------------------------------------------

@pytest.mark.parametrize("overrides", [dict(), dict(strategy="mvp", benchmarks=()),
                                       dict(max_weight=0.25)])
def test_traced_run_is_bit_identical_and_unwrapped(tmp_path, overrides):
    _, _, plain, _ = _run(tmp_path, TINY, **overrides)
    _, _, traced, tracer = _run(tmp_path, TINY, traced=True, **overrides)
    assert checks.fingerprint(traced) == checks.fingerprint(plain)
    assert tracing.installed_originals()
    m = tracer.metrics()
    assert [name for name, _ in tracing.METRICS] == list(m)
    assert m["batch.kernel_calls"] > 0 and m["batch.filter_updates"] > 0
    assert m["batch.state_bytes"] > 0 and m["data.load_panel_s"] > 0
    assert m["portfolio.weight_solves"] > 0 and m["engine.logsumexp_calls"] > 0
    # spans nest, so self times are never negative and add up to the root spans
    st = tracer.self_times()
    assert min(st.values()) >= 0.0
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(st.values()) == pytest.approx(roots, rel=1e-9)


def test_wrappers_removed_when_the_run_raises(tmp_path):
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert not tracing.installed_originals()
            raise RuntimeError("boom")
    assert tracing.installed_originals()


def test_counts_match_the_workload(tmp_path):
    wl = dataclasses.replace(TINY, config=dict(TINY.config, benchmarks=()))
    _, config, report, tracer = _run(tmp_path, wl, traced=True)
    n_specs = len(config.delta_grid) * len(config.kappa_r_grid)
    masks = (1 << wl.n_factors) - 1
    n_ord = 2
    per_date = wl.n_assets * masks * n_specs + n_ord * wl.n_factors * (
        len(config.delta_grid) * len(config.kappa_f_grid))
    assert tracer.counts["filter_updates"] == per_date * wl.n_dates
    assert tracer.counts["portfolio.gmv_weights"] == wl.n_dates - wl.train_len


def test_box_solves_count_kkt_iterations(tmp_path):
    _, _, _, tracer = _run(tmp_path, TINY, traced=True, max_weight=0.25, benchmarks=())
    assert tracer.counts["portfolio.constrained_weights"] == TINY.n_dates - TINY.train_len
    assert tracer.counts["kkt_solves"] >= tracer.counts["portfolio.constrained_weights"]


@pytest.mark.parametrize("overrides", [dict(), dict(max_weight=0.25)])
def test_first_and_last_solve_of_every_row_are_sampled(tmp_path, overrides):
    gen, config, report, tracer = _run(tmp_path, TINY, traced=True, **overrides)
    n_eval = TINY.n_dates - TINY.train_len
    solved_rows = [row for row in report.rows if row.name != "ew"]
    kinds = {kind for kind, *_ in tracer.samples}
    assert len(kinds) == 1 and len(tracer.samples) == 2 * len(solved_rows)
    # the samples are, in call order, the first and last solve of each row
    (kind,) = kinds
    realized = gen.R[TINY.train_len:]
    for row, pair in zip(solved_rows, zip(tracer.samples[::2], tracer.samples[1::2])):
        for (_, _, _, w), t in zip(pair, (0, n_eval - 1)):
            assert float(w @ realized[t]) == pytest.approx(row.gross[t], rel=1e-12), row.name


# ---- output checks pass on real output ------------------------------------------

def test_checks_pass_on_real_output(tiny):
    gen, config, report, _ = tiny
    assert checks.check_lpds(report, gen, TINY.train_len, TINY.lpd_gap) == []
    assert checks.check_accounting(report, config) == []


@pytest.mark.parametrize("overrides", [dict(), dict(strategy="mvp", benchmarks=()),
                                       dict(max_weight=0.25, benchmarks=())])
def test_weight_solve_check_passes_on_real_solves(tmp_path, overrides):
    _, _, _, tracer = _run(tmp_path, TINY, traced=True, **overrides)
    assert tracer.samples
    for kind, args, kwargs, w in tracer.samples:
        assert checks.check_weight_solve(kind, args, kwargs, w) == [], kind


# ---- each check fails on a planted fault --------------------------------------

def test_lpd_shifted_past_the_oracle_fails(tiny):
    gen, _, report, _ = tiny
    bad = copy.deepcopy(report)
    oracle = checks.oracle_conditional_lpd(gen, TINY.train_len)
    bad.rows[0].lpd = oracle + 1.0
    errors = checks.check_lpds(bad, gen, TINY.train_len, 1.0)
    assert any("not below the oracle" in e for e in errors)


def test_lpd_far_under_the_oracle_fails(tiny):
    gen, _, report, _ = tiny
    bad = copy.deepcopy(report)
    n_obs = gen.R[TINY.train_len:].size
    bad.rows[0].lpd = checks.oracle_conditional_lpd(gen, TINY.train_len) - 2.0 * n_obs
    errors = checks.check_lpds(bad, gen, TINY.train_len, 1.0)
    assert any("short of the oracle" in e for e in errors)


def test_comparison_lpd_past_the_joint_oracle_fails(tiny):
    gen, _, report, _ = tiny
    bad = copy.deepcopy(report)
    row = next(r for r in bad.rows if r.name == "efm")
    row.lpd = checks.oracle_joint_lpd(gen, TINY.train_len) + 1e-6
    assert any(e.startswith("efm LPD") for e in checks.check_lpds(bad, gen, TINY.train_len, 1.0))


def test_perturbed_net_series_fails(tiny):
    _, config, report, _ = tiny
    bad = copy.deepcopy(report)
    bad.rows[1].per_tc[1].net[3] += 1e-9
    assert any("net != gross" in e for e in checks.check_accounting(bad, config))


@pytest.mark.parametrize("field", ["mean", "sd", "sharpe"])
def test_perturbed_statistic_fails(tiny, field):
    _, config, report, _ = tiny
    bad = copy.deepcopy(report)
    tc = bad.rows[0].per_tc[0]
    setattr(tc, field, getattr(tc, field) * (1 + 1e-6))
    assert any(f": {field} " in e for e in checks.check_accounting(bad, config))


def test_perturbed_fee_fails(tiny):
    _, config, report, _ = tiny
    bad = copy.deepcopy(report)
    tc = bad.rows[0].per_tc[1]
    tc.fees_bps[10.0] += 0.01
    assert any("utility gap" in e for e in checks.check_accounting(bad, config))


def _sample(tmp_path, solver, **overrides):
    _, _, _, tracer = _run(tmp_path, TINY, traced=True, benchmarks=(), **overrides)
    return next(s for s in tracer.samples if s[0] == solver)


@pytest.mark.parametrize("solver, overrides", [
    ("portfolio.gmv_weights", dict()),
    ("portfolio.mvp_weights", dict(strategy="mvp")),
    ("portfolio.constrained_weights", dict(max_weight=0.25)),
])
def test_suboptimal_weights_fail(tmp_path, solver, overrides):
    kind, args, kwargs, w = _sample(tmp_path, solver, **overrides)
    cov = args[1] if solver.endswith("mvp_weights") else args[0]
    free = np.flatnonzero(np.abs(w) < 0.1)
    i, j = free[0], free[1]
    if solver.endswith("mvp_weights"):
        # move along the null space of the budget and target rows
        mean = args[0]
        E = np.vstack([np.ones_like(w), mean])
        d = np.linalg.svd(E)[2][-1]
    else:
        d = np.zeros_like(w)
        d[i], d[j] = 1.0, -1.0
    bad = w + 1e-3 * d / np.abs(d).max()
    assert float(bad @ cov @ bad) > float(w @ cov @ w)
    assert checks.check_weight_solve(kind, args, kwargs, bad) != []


def test_broken_budget_and_box_fail(tmp_path):
    kind, args, kwargs, w = _sample(tmp_path, "portfolio.constrained_weights", max_weight=0.25)
    assert any("sum to" in e for e in checks.check_weight_solve(kind, args, kwargs, w * 1.01))
    over = w.copy()
    k = int(np.argmax(w))
    over[k] += 0.05
    over[int(np.argmin(w))] -= 0.05
    assert any("outside the box" in e or "KKT" in e
               for e in checks.check_weight_solve(kind, args, kwargs, over))


@pytest.mark.parametrize("excess, passes", [(0.5e-8, True), (1e-6, False)])
def test_bound_with_wrong_sign_multiplier(excess, passes):
    # w_0 at the upper bound, its gradient `excess` above the free ones'
    lam = 0.6 * 0.01
    cov = np.diag([(lam + excess) / 0.8, 0.01, 0.01])
    w = np.array([0.4, 0.3, 0.3])
    errors = checks.check_weight_solve("portfolio.constrained_weights", (cov, 0.4), {}, w)
    assert (errors == []) == passes
    assert passes or any("KKT" in e for e in errors)


def test_fingerprint_sees_one_bit(tiny):
    _, _, report, _ = tiny
    bad = copy.deepcopy(report)
    g = bad.rows[0].gross
    g[0] = np.nextafter(g[0], np.inf)
    assert checks.fingerprint(bad) != checks.fingerprint(report)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
