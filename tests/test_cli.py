"""Command-line interface: exit codes, file outputs, report rendering."""

import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

from _oracles import parse_table

from riskcast.benchmarks import PREDICTORS
from riskcast.cli import CONFIG_KEYS, _build_parser, _run_config, main, read_config
from riskcast.data import SyntheticSpec, generate_synthetic, save_panel
from riskcast.engine import COMPARISON_MODELS, RunConfig
from riskcast.errors import FormatError
from riskcast.report import read_results, render_table


@pytest.fixture
def panel_files(tmp_path):
    rng = np.random.default_rng(0)
    N, K, T = 5, 2, 160
    B = rng.uniform(0.5, 1.5, size=(N, K))
    spec = SyntheticSpec(N=N, K=K, T=T, loadings=B,
                         factor_cov=4e-4 * np.eye(K),
                         idio_var=np.full(N, 4e-4), seed=1, train_len=60)
    panel, _ = generate_synthetic(spec)
    a, f = tmp_path / "assets.csv", tmp_path / "factors.csv"
    save_panel(panel, a, f)
    return str(a), str(f)


class TestBacktestCommand:
    def test_happy_path_writes_results(self, panel_files, tmp_path, capsys):
        a, f = panel_files
        out = str(tmp_path / "results.txt")
        code = main(["backtest", "--assets", a, "--factors", f, "--strategy", "gmv",
                     "--train-len", "60", "--tc", "0", "5", "--out", out])
        assert code == 0
        assert os.path.exists(out)
        header, records = read_results(out)
        assert header["header"]["strategy"] == "gmv"
        assert {r["tc_bps"] for r in records} == {0.0, 5.0}
        table = capsys.readouterr().out
        assert "TC = 5 bps" in table

    def test_benchmark_choices_are_the_predictors_and_ew(self):
        assert COMPARISON_MODELS == (*PREDICTORS, "ew")
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("backtest", "stats"):
            action = next(a for a in sub.choices[command]._actions if a.dest == "benchmarks")
            assert tuple(action.choices) == COMPARISON_MODELS

    def test_unknown_flag_is_usage_error(self):
        assert main(["backtest", "--does-not-exist", "x"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code = main(["backtest", "--assets", missing, "--factors", missing])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, panel_files, tmp_path):
        a, f = panel_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"assets = {a}\nfactors = {f}\nstrategy = mvp\n"
                       f"train_len = 60\ntc = [5]\n# comment\nout = {tmp_path}/r1.txt\n")
        code = main(["backtest", "--config", str(cfg), "--strategy", "gmv"])
        assert code == 0
        header, _ = read_results(tmp_path / "r1.txt")
        assert header["header"]["strategy"] == "gmv"  # flag beats file

    def test_env_var_default_config(self, panel_files, tmp_path, monkeypatch):
        a, f = panel_files
        cfg = tmp_path / "env.cfg"
        cfg.write_text(f"assets = {a}\nfactors = {f}\nstrategy = gmv\n"
                       f"train_len = 60\nout = {tmp_path}/r2.txt\n")
        monkeypatch.setenv("RISKCAST_CONFIG", str(cfg))
        assert main(["backtest"]) == 0
        assert (tmp_path / "r2.txt").exists()

    def test_bad_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key = 1\n")
        assert main(["backtest", "--config", str(cfg)]) == 2

    def test_bad_run_settings_are_usage_errors_before_any_input_is_read(self, tmp_path,
                                                                         capsys):
        # the input files do not exist: a data error (2) would mean they were read
        missing = str(tmp_path / "nope.csv")
        inputs = ["--assets", missing, "--factors", missing]
        assert main(["backtest", *inputs, "--benchmarks", "wdml"]) == 1
        assert main(["stats", *inputs, "--bound", "0"]) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text('benchmarks = ["ewma97", "wdml"]\n')
        assert main(["backtest", *inputs, "--config", str(cfg)]) == 1
        assert "unknown benchmark 'wdml'" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_prints_scores_and_exports(self, panel_files, tmp_path, capsys):
        a, f = panel_files
        cfg = tmp_path / "stats.cfg"
        cfg.write_text(f"inclusion_out = {tmp_path}/incl.csv\n"
                       f"ordering_out = {tmp_path}/ord.csv\n")
        code = main(["stats", "--config", str(cfg), "--assets", a, "--factors", f,
                     "--train-len", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LPD" in out and "Acc" in out
        incl = (tmp_path / "incl.csv").read_text().splitlines()
        assert incl[0] == "date,F0,F1"
        assert len(incl) == 1 + 100
        assert (tmp_path / "ord.csv").exists()


class TestSimulateCommand:
    def test_simulate_writes_panel_and_truth(self, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--out", out, "--seed", "3", "--n-assets", "6",
                     "--k-factors", "2", "--periods", "50"]) == 0
        for name in ("assets.csv", "factors.csv", "truth.npz"):
            assert os.path.exists(os.path.join(out, name))

    def test_simulate_deterministic(self, tmp_path):
        o1, o2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        main(["simulate", "--out", o1, "--seed", "9", "--periods", "40"])
        main(["simulate", "--out", o2, "--seed", "9", "--periods", "40"])
        a1 = (tmp_path / "s1" / "assets.csv").read_text()
        a2 = (tmp_path / "s2" / "assets.csv").read_text()
        assert a1 == a2


class TestReportCommand:
    def test_single_row_table(self, tmp_path, capsys):
        path = tmp_path / "res.txt"
        header = {"format": "riskcast-results", "version": 1, "header": {"strategy": "gmv"},
                  "n_dates": 10}
        rec = {"model": "m1", "tc_bps": 5.0, "turnover": 0.2, "mean": 0.1, "sd": 0.12,
               "sharpe": 0.83, "phi_bps": {"10": 585.1}, "lpd": 894.7, "acc": 53.21}
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "585.1" in out

    def test_two_tc_settings_two_blocks(self, tmp_path, capsys):
        path = tmp_path / "res.txt"
        header = {"format": "riskcast-results", "version": 1, "header": {}, "n_dates": 5}
        recs = [{"model": "m1", "tc_bps": tc, "turnover": 0.2, "mean": 0.1, "sd": 0.12,
                 "sharpe": 0.83, "phi_bps": {}, "lpd": None, "acc": None} for tc in (0.0, 10.0)]
        path.write_text("\n".join(json.dumps(x) for x in [header, *recs]) + "\n")
        main(["report", str(path)])
        out = capsys.readouterr().out
        assert "TC = 0 bps" in out and "TC = 10 bps" in out

    def test_corrupt_results_is_data_error(self, tmp_path):
        path = tmp_path / "res.txt"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == 2

    def test_render_parse_round_trip_idempotent(self):
        recs = [
            {"model": "m1", "tc_bps": 5.0, "turnover": 0.193, "mean": 0.105, "sd": 0.128,
             "sharpe": 0.823, "phi_bps": {"2": 509.8, "10": 585.1}, "lpd": 894.7, "acc": 53.21},
            {"model": "wdlm", "tc_bps": 5.0, "turnover": 0.66, "mean": 0.057, "sd": 0.134,
             "sharpe": 0.43, "phi_bps": {"2": 0.0, "10": 0.0}, "lpd": 780.5, "acc": 53.19},
            {"model": "ew", "tc_bps": 5.0, "turnover": 0.03, "mean": 0.071, "sd": 0.218,
             "sharpe": 0.32, "phi_bps": {"2": -35.1, "10": -1180.2}, "lpd": None, "acc": None},
        ]
        r1 = render_table(recs)
        r2 = render_table(parse_table(r1))
        assert r1 == r2


class TestReadConfig:
    def test_values_parsed_as_json_when_possible(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tc = [0, 5, 10]\nalpha = 0.98\nstrategy = gmv\nsparsity = false\n")
        parsed = read_config(cfg)
        assert parsed["tc"] == [0, 5, 10]
        assert parsed["alpha"] == 0.98
        assert parsed["strategy"] == "gmv"
        assert parsed["sparsity"] is False

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(FormatError):
            read_config(cfg)

    @pytest.mark.parametrize("line", ["tau = abc", 'train_len = "two"', "tc = 5",
                                      "tc = [5, \"x\"]", "sparsity = 1", "train_len = 2.5"])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1\n" + line + "\n")   # an int passes as a float
        key = line.split()[0]
        with pytest.raises(FormatError, match=f"c.cfg: line 2: '{key}' needs a"):
            read_config(cfg)
        assert main(["backtest", "--config", str(cfg)]) == 2

    def test_run_keys_name_run_config_fields(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert {field for _, field in CONFIG_KEYS.values() if field} <= fields
        config = _run_config({"tc": [0, 5, 10], "tau": 1, "factor_set": [1, 0],
                              "benchmarks": ["ew"], "out": "r.txt"})
        assert config.tc_bps == (0.0, 5.0, 10.0)
        assert all(type(tc) is float for tc in config.tc_bps)
        assert type(config.tau_annual) is float
        assert config.factor_set == (1, 0)
        assert config.benchmarks == ("ew",)

    def test_seed_is_not_a_run_setting(self, tmp_path):
        # the model draws nothing at random; only ``simulate`` takes a seed
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\n")
        with pytest.raises(FormatError, match="unknown key 'seed'"):
            read_config(cfg)
        assert main(["backtest", "--seed", "3"]) == 1
