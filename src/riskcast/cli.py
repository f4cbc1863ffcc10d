"""Command-line front end.

Subcommands: ``backtest`` (full portfolio run), ``stats`` (forecast accuracy
only), ``simulate`` (synthetic panel generation) and ``report`` (render a
results file).  Every flag has a config-file equivalent; flags override the
file.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.

Config files are flat ``key = value`` text; values are parsed as JSON where
possible (lists use ``[0, 5, 10]``), otherwise taken as strings, and must
have the type ``CONFIG_KEYS`` declares (an int passes as a float, and is
converted to one).  Lines starting with ``#`` are comments.  The environment
variable RISKCAST_CONFIG names a default config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing

import numpy as np

from . import report as rpt
from .data import SyntheticSpec, generate_synthetic, load_panel, save_panel, save_truth
from .engine import COMPARISON_MODELS, RunConfig, run_backtest, run_statistics_only
from .errors import (AlignmentError, FormatError, IntegrityError, NumericError,
                     ParameterError, RiskcastError)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3

# key -> (type, RunConfig field); input and output paths have no field
CONFIG_KEYS = {
    "assets": (str, None), "factors": (str, None), "out": (str, None),
    "inclusion_out": (str, None), "ordering_out": (str, None),
    "strategy": (str, "strategy"), "ordering": (str, "ordering"),
    "mean_signal": (str, "mean_signal"), "fee_reference": (str, "fee_reference"),
    "tau": (float, "tau_annual"), "bound": (float, "max_weight"),
    "alpha": (float, "alpha"), "alpha_ord": (float, "alpha_ord"),
    "train_len": (int, "train_len"),
    "tc": (list[float], "tc_bps"), "gamma": (list[float], "gamma"),
    "factor_set": (list[int], "factor_set"), "benchmarks": (list[str], "benchmarks"),
    "delta_grid": (list[float], "delta_grid"), "kappa_r_grid": (list[float], "kappa_r_grid"),
    "kappa_f_grid": (list[float], "kappa_f_grid"),
    "sparsity": (bool, "sparsity"),
}


def _has_type(value, typ) -> bool:
    """Whether a parsed config value has the declared type; an int passes as a float."""
    if typing.get_origin(typ) is list:
        (item,) = typing.get_args(typ)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if typ is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is typ


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def read_config(path) -> dict:
    cfg: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise FormatError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                cfg[key] = json.loads(value)
            except json.JSONDecodeError:
                cfg[key] = value
            typ = CONFIG_KEYS[key][0]
            if not _has_type(cfg[key], typ):
                name = typ.__name__ if isinstance(typ, type) else str(typ)
                raise FormatError(f"{path}: line {lineno}: {key!r} needs a {name}, got {value}")
    return cfg


def _build_parser() -> _Parser:
    p = _Parser(prog="riskcast", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value config file")
    shared.add_argument("--assets", help="asset return CSV")
    shared.add_argument("--factors", help="factor return CSV")
    shared.add_argument("--strategy", choices=["mvp", "gmv", "constrained"])
    shared.add_argument("--tau", type=float, help="annual return target")
    shared.add_argument("--bound", type=float, help="max absolute weight")
    shared.add_argument("--tc", type=float, nargs="+", help="transaction costs, bps")
    shared.add_argument("--gamma", type=float, nargs="+", help="risk aversions")
    shared.add_argument("--alpha", type=float, help="model probability forgetting")
    shared.add_argument("--ordering", choices=["learn", "fixed"])
    shared.add_argument("--factor-set", type=int, nargs="+", dest="factor_set",
                        help="factor column indices to use")
    shared.add_argument("--train-len", type=int, dest="train_len")
    shared.add_argument("--benchmarks", nargs="+", choices=COMPARISON_MODELS,
                        help="comparison models")
    shared.add_argument("--out", help="results output path")

    sub.add_parser("backtest", parents=[shared], help="run a portfolio backtest")
    sub.add_parser("stats", parents=[shared], help="forecast accuracy only")

    sim = sub.add_parser("simulate", help="generate a synthetic panel")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--n-assets", type=int, default=20)
    sim.add_argument("--k-factors", type=int, default=3)
    sim.add_argument("--periods", type=int, default=400)
    sim.add_argument("--sparse-share", type=float, default=0.5,
                     help="share of assets with a zero loading on the last factor")

    rep = sub.add_parser("report", help="render a results file as a table")
    rep.add_argument("results", help="results file written by backtest")
    return p


def _merge_config(args) -> dict:
    path = args.config or os.environ.get("RISKCAST_CONFIG")
    cfg = read_config(path) if path else {}
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _run_config(cfg: dict) -> RunConfig:
    kwargs = {}
    for key, (typ, field) in CONFIG_KEYS.items():
        if field is None or key not in cfg:
            continue
        if typing.get_origin(typ) is list:
            (item,) = typing.get_args(typ)
            kwargs[field] = tuple(item(x) for x in cfg[key])
        else:
            kwargs[field] = typ(cfg[key])
    return RunConfig(**kwargs)


def _load_panel_from(cfg: dict):
    for key in ("assets", "factors"):
        if key not in cfg:
            raise ParameterError(f"missing required input: --{key}")
        if not os.path.exists(cfg[key]):
            raise FileNotFoundError(f"input file not found: {cfg[key]}")
    return load_panel(cfg["assets"], cfg["factors"], cfg.get("train_len"))


def _export_series(path, dates, names, values) -> None:
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for d, row in zip(dates, values):
            fh.write(d + "," + ",".join(f"{v:.10g}" for v in row) + "\n")


def _cmd_backtest(args) -> int:
    cfg = _merge_config(args)
    config = _run_config(cfg)
    panel = _load_panel_from(cfg)
    report = run_backtest(panel, config)
    out = cfg.get("out", "results.txt")
    rpt.write_results(report, out)
    sys.stdout.write(rpt.render_table(rpt.results_records(report),
                                      {"header": report.header}))
    print(f"results written to {out}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    cfg = _merge_config(args)
    config = _run_config(cfg)
    panel = _load_panel_from(cfg)
    stats = run_statistics_only(panel, config)
    print(f"LPD {stats.lpd:.4f}")
    print(f"Acc {stats.acc:.4f}")
    if "inclusion_out" in cfg:
        _export_series(cfg["inclusion_out"], stats.dates, stats.factors,
                       stats.inclusion.mean(axis=1))
    if "ordering_out" in cfg:
        names = ["-".join(map(str, p)) for p in stats.orderings]
        _export_series(cfg["ordering_out"], stats.dates, names,
                       np.exp(stats.ordering_log_probs))
    return 0


def _cmd_simulate(args) -> int:
    N, K, T = args.n_assets, args.k_factors, args.periods
    rng = np.random.default_rng(args.seed)
    loadings = rng.uniform(0.5, 1.5, size=(N, K))
    n_zero = int(args.sparse_share * N)
    loadings[:n_zero, K - 1] = 0.0
    factor_sd = 0.02
    spec = SyntheticSpec(
        N=N, K=K, T=T, loadings=loadings,
        factor_cov=factor_sd ** 2 * (0.7 * np.eye(K) + 0.3 * np.ones((K, K))),
        idio_var=rng.uniform(0.015, 0.03, size=N) ** 2,
        seed=args.seed,
    )
    panel, truth = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    save_panel(panel, os.path.join(args.out, "assets.csv"),
               os.path.join(args.out, "factors.csv"))
    save_truth(truth, os.path.join(args.out, "truth.npz"))
    print(f"wrote assets.csv, factors.csv, truth.npz to {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    header, records = rpt.read_results(args.results)
    sys.stdout.write(rpt.render_table(records, header))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        if args.command == "backtest":
            return _cmd_backtest(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "report":
            return _cmd_report(args)
        return USAGE_EXIT
    except (FileNotFoundError, FormatError, AlignmentError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NumericError, RiskcastError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
