"""Per-layer tracing by wrapping the public functions of each riskcast module.

No source file of ``riskcast`` is changed.  While a ``Tracer`` is active,
every listed function (and the engine's own bindings of the names it
imports) is replaced by a wrapper that records a span: name, start, end and
the index of the enclosing span.  Two more wrappers count without timing:
``PoolGroup.__init__`` adds up the filter state it allocates, and
``numpy.linalg.solve`` counts the calls made directly inside
``portfolio.constrained_weights``, which are its KKT solves.  Leaving the
``with`` block puts every original back.  A layer's self time is its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

import riskcast.benchmarks as benchmarks
import riskcast.data as data
import riskcast.dlm as dlm
import riskcast.engine as engine
import riskcast.portfolio as portfolio
import riskcast.recouple as recouple
from riskcast import _batch

# Span and metric names start with a letter, so the module riskcast._batch
# appears as "batch".
BATCH_SPANS = ("batch.evolve", "batch.forecast", "batch.log_densities", "batch.update",
               "batch.recursive_factor_moments", "batch.batched_asset_moments")
SOLVER_SPANS = ("portfolio.mvp_weights", "portfolio.gmv_weights",
                "portfolio.constrained_weights")
ACCOUNTING_SPANS = ("portfolio.apply_costs", "portfolio.performance",
                    "portfolio.management_fee", "portfolio.hit_rate",
                    "portfolio.momentum_signal")

# (owner, attribute, span name).  engine imports three names directly, so
# its bindings are wrapped as well as the defining module's.
TARGETS = (
    (data, "load_panel", "data.load_panel"),
    (_batch.PoolGroup, "evolve", "batch.evolve"),
    (_batch.PoolGroup, "forecast", "batch.forecast"),
    (_batch.PoolGroup, "log_densities", "batch.log_densities"),
    (_batch.PoolGroup, "update", "batch.update"),
    (_batch, "recursive_factor_moments", "batch.recursive_factor_moments"),
    (engine, "recursive_factor_moments", "batch.recursive_factor_moments"),
    (_batch, "batched_asset_moments", "batch.batched_asset_moments"),
    (engine, "batched_asset_moments", "batch.batched_asset_moments"),
    (engine, "run_backtest", "engine.run_backtest"),
    (engine, "logsumexp", "engine.logsumexp"),
    *((portfolio, name.split(".")[1], name) for name in SOLVER_SPANS + ACCOUNTING_SPANS),
    (benchmarks, "efm_cov", "benchmarks.efm_cov"),
    (benchmarks, "lw_shrinkage", "benchmarks.lw_shrinkage"),
    (benchmarks, "ewma_cov", "benchmarks.ewma_cov"),
    (benchmarks, "wishart_dlm_step", "benchmarks.wishart_dlm_step"),
    (benchmarks.FactorWishartDLM, "step", "benchmarks.factor_wdlm_step"),
    (dlm, "evolve", "dlm.evolve"),
    (dlm, "update", "dlm.update"),
    (recouple, "asset_moments", "recouple.asset_moments"),
)

# Per-layer metrics in report order: (name, unit).
METRICS = (
    *((f"{s}_s", "s") for s in BATCH_SPANS),
    ("batch.kernel_calls", "count"),
    ("batch.filter_updates", "count"),
    ("batch.filter_updates_per_s", "1/s"),
    ("batch.state_bytes", "B"),
    ("engine.self_s", "s"),
    ("engine.logsumexp_s", "s"),
    ("engine.logsumexp_calls", "count"),
    *((f"{s}_s", "s") for s in SOLVER_SPANS),
    ("portfolio.kkt_solves", "count"),
    ("portfolio.weight_solves", "count"),
    ("portfolio.accounting_s", "s"),
    ("benchmarks.efm_cov_s", "s"),
    ("benchmarks.lw_shrinkage_s", "s"),
    ("benchmarks.ewma_cov_s", "s"),
    ("benchmarks.wishart_dlm_step_s", "s"),
    ("benchmarks.factor_wdlm_step_s", "s"),
    ("dlm.evolve_s", "s"),
    ("dlm.update_s", "s"),
    ("recouple.asset_moments_s", "s"),
    ("data.load_panel_s", "s"),
)


def _raw(owner, attr):
    """The attribute as stored on its owner, so restoring it is exact."""
    return vars(owner)[attr]


EXTRA_TARGETS = ((_batch.PoolGroup, "__init__"), (np.linalg, "solve"))
ORIGINALS = {(owner, attr): _raw(owner, attr)
             for owner, attr in [(o, a) for o, a, _ in TARGETS] + list(EXTRA_TARGETS)}


class Tracer:
    """Records spans and counts while active; use as a context manager.

    In the first backtest it traces, the tracer also keeps the first and the
    last weight solve of every row (the model and each comparison model that
    solves for weights) for the independent KKT check.  Rows solve one
    evaluation date after another, so a solver's calls fall into blocks of
    one row each.
    """

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.state_bytes = 0
        self.samples: list[tuple[str, tuple, dict, np.ndarray]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._eval_dates = 0

    # ---- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in TARGETS:
                self._patch(owner, attr, self._span_wrapper(_raw(owner, attr), name))
            self._patch(_batch.PoolGroup, "__init__",
                        self._state_size_wrapper(_raw(_batch.PoolGroup, "__init__")))
            self._patch(np.linalg, "solve", self._kkt_counter(_raw(np.linalg, "solve")))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        on_return = self._on_return(name)
        on_call = self._on_call(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
            counts[name] += 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_call(self, name: str):
        if name == "engine.run_backtest":
            def note_eval_dates(args):
                panel, config = args[:2]
                train = config.train_len if config.train_len is not None else panel.train_len
                self._eval_dates = panel.T - train
            return note_eval_dates
        return None

    def _on_return(self, name: str):
        if name == "batch.update":
            def count_updates(args, kwargs, result):
                grp = args[0]
                self.counts["filter_updates"] += grp.n_eq * grp.P
            return count_updates
        if name in SOLVER_SPANS:
            def sample(args, kwargs, result):
                n = (self.counts[name] - 1) % self._eval_dates
                if self.counts["engine.run_backtest"] == 0 and n in (0, self._eval_dates - 1):
                    copied = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
                    self.samples.append((name, copied, dict(kwargs), result.w.copy()))
            return sample
        return None

    def _state_size_wrapper(self, init):
        @functools.wraps(init)
        def wrapper(grp, *args, **kwargs):
            init(grp, *args, **kwargs)
            self.state_bytes += grp.m.nbytes + grp.C.nbytes + grp.s.nbytes
        return wrapper

    def _kkt_counter(self, solve):
        spans, stack = self.spans, self._stack

        @functools.wraps(solve)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "portfolio.constrained_weights":
                self.counts["kkt_solves"] += 1
            return solve(*args, **kwargs)
        return wrapper

    # ---- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return out

    def metrics(self, rounds: int = 1) -> dict[str, float]:
        """Every per-layer metric, as the mean over ``rounds`` traced rounds."""
        st = self.self_times()
        c = self.counts
        batch_s = sum(st[s] for s in BATCH_SPANS)
        totals = {f"{s}_s": st[s] for s in BATCH_SPANS + SOLVER_SPANS}
        totals.update({
            "batch.kernel_calls": sum(c[s] for s in BATCH_SPANS),
            "batch.filter_updates": c["filter_updates"],
            "batch.state_bytes": self.state_bytes,
            "engine.self_s": st["engine.run_backtest"],
            "engine.logsumexp_s": st["engine.logsumexp"],
            "engine.logsumexp_calls": c["engine.logsumexp"],
            "portfolio.kkt_solves": c["kkt_solves"],
            "portfolio.weight_solves": sum(c[s] for s in SOLVER_SPANS),
            "portfolio.accounting_s": sum(st[s] for s in ACCOUNTING_SPANS),
        })
        for name in ("benchmarks.efm_cov", "benchmarks.lw_shrinkage", "benchmarks.ewma_cov",
                     "benchmarks.wishart_dlm_step", "benchmarks.factor_wdlm_step",
                     "dlm.evolve", "dlm.update", "recouple.asset_moments", "data.load_panel"):
            totals[f"{name}_s"] = st[name]
        values = {k: v / rounds for k, v in totals.items()}
        values["batch.filter_updates_per_s"] = c["filter_updates"] / batch_s if batch_s else 0.0
        return {name: values[name] for name, _ in METRICS}


def installed_originals() -> bool:
    """True when every traced target holds the object it held at import."""
    return all(_raw(owner, attr) is fn for (owner, attr), fn in ORIGINALS.items())
