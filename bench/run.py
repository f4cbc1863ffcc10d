"""riskcast benchmark: one workload, one seed, closed loop, single process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Draws the workload's panel from the seed, writes it as CSV under
``bench/out``, then repeats whole rounds -- ``data.load_panel`` followed by
``engine.run_backtest`` -- one at a time, for about ``--seconds`` seconds.
Every round's report is checked (see ``checks.py``) and must be bit-identical
to the first.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  OpenBLAS and OpenMP are pinned to one thread before numpy
loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (("dates_per_s", "dates/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _import_program():
    """Import riskcast from this checkout's ``src`` and nowhere else."""
    if not (SRC / "riskcast" / "__init__.py").is_file():
        raise SystemExit(f"bench: no riskcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riskcast
    if Path(riskcast.__file__).resolve().parent != SRC / "riskcast":
        raise SystemExit(f"bench: imported riskcast from {riskcast.__file__}, not {SRC}")
    return riskcast


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                found[Path(path).name] = int(getattr(lib, sym)())
                break
    return found


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import numpy as np
    import riskcast.data as data
    import riskcast.engine as engine
    from riskcast.errors import RiskcastError

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(json.dumps({"workload": wl.name, **env}), file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    gen = workloads.generate(wl, args.seed)
    asset_csv = OUT / f"{wl.name}-{args.seed}-assets.csv"
    factor_csv = OUT / f"{wl.name}-{args.seed}-factors.csv"
    workloads.write_csv(gen, asset_csv, factor_csv)
    config = engine.RunConfig(**wl.config)
    errors: list[str] = []

    def load():
        t0 = time.perf_counter()
        panel = data.load_panel(asset_csv, factor_csv, train_len=wl.train_len)
        return panel, time.perf_counter() - t0

    panel, _ = load()
    if not (np.array_equal(panel.R, gen.R) and np.array_equal(panel.F, gen.F)):
        errors.append("loaded panel differs from the drawn panel")

    load_times: list[float] = []
    round_times: list[float] = []
    attempted = failed = 0
    first = first_print = None
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    start = time.perf_counter()
    while True:
        attempted += 1
        # Each round starts from a collected heap, outside every timer.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                panel, t_load = load()
                t1 = time.perf_counter()
                report = engine.run_backtest(panel, config)
        except RiskcastError as exc:
            failed += 1
            print(f"bench: round {attempted} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            report = None
        t2 = time.perf_counter()
        if report is not None:
            round_times.append(t2 - t1)
            load_times.append(t_load)
            if first is None:
                first, first_print = report, checks.fingerprint(report)
            elif checks.fingerprint(report) != first_print:
                errors.append(f"round {attempted} differs from the first round")
        if t2 - start + (t2 - t0) > args.seconds:
            break
    if not round_times:
        raise SystemExit("bench: no round completed")

    errors += checks.check_lpds(first, gen, wl.train_len, wl.lpd_gap)
    errors += checks.check_accounting(first, config)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = 0
    if args.trace:
        if not tracing.installed_originals():
            errors.append("a tracing wrapper was left installed")
        for kind, a, kw, w in tracer.samples:
            errors += checks.check_weight_solve(kind, a, kw, w)
        checked = len(tracer.samples)
        layer = tracer.metrics(rounds=len(round_times))
        units = dict(tracing.METRICS)
        metrics = {k: {"value": int(v) if units[k] in ("count", "B") and float(v).is_integer()
                       else v, "unit": units[k]} for k, v in layer.items()}
        with open(OUT / f"spans-{wl.name}-{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, fh)
    else:
        values = {
            "dates_per_s": wl.n_dates * len(round_times) / math.fsum(round_times),
            "setup_s": statistics.median(load_times),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    record = {"workload": wl.name, "trace": args.trace, "environment": env,
              "report_sha256": hashlib.sha256(repr(first_print).encode()).hexdigest(),
              "round_s": round_times, "load_s": load_times,
              "weight_solves_checked": checked, "errors": errors, "metrics": metrics}
    with open(OUT / f"run-{wl.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for e in errors:
        print(f"bench: CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
