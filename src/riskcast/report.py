"""Results serialization and table rendering.

The machine-readable results file is line-delimited JSON with a versioned
header line, so runs are diffable in CI.  The rendered table mirrors the
usual backtest layout: one block per transaction-cost setting with columns
Turnover / Mean / SD / SR / Fee, annualized except for weekly turnover.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .portfolio import BacktestReport

FORMAT_NAME = "riskcast-results"
FORMAT_VERSION = 1


def results_records(report: BacktestReport) -> list[dict]:
    """Flatten a report into one record per (model, transaction cost)."""
    records = []
    for row in report.rows:
        for tc in row.per_tc:
            records.append({
                "model": row.name,
                "tc_bps": tc.tc_bps,
                "turnover": row.mean_turnover,
                "mean": tc.mean,
                "sd": tc.sd,
                "sharpe": tc.sharpe,
                "phi_bps": {f"{g:g}": v for g, v in sorted(tc.fees_bps.items())},
                "lpd": row.lpd,
                "acc": row.acc,
            })
    return records


def write_results(report: BacktestReport, path) -> None:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
              "header": report.header, "n_dates": len(report.dates)}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in results_records(report):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_results(path) -> tuple[dict, list[dict]]:
    """Parse a results file -> (header, records); corrupt input raises FormatError."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise FormatError(f"cannot read results file {path}: {exc}") from exc
    if not lines:
        raise FormatError(f"{path}: empty results file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: corrupt header line: {exc}") from exc
    if header.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {header.get('version')}")
    records = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: corrupt record at line {i}: {exc}") from exc
        for key in ("model", "tc_bps", "turnover", "mean", "sd", "sharpe"):
            if key not in rec:
                raise FormatError(f"{path}: record at line {i} missing {key!r}")
        records.append(rec)
    return header, records


def _fmt(x, nd: int) -> str:
    if x is None:
        return ""
    return f"{x:.{nd}f}"


def render_table(records: list[dict], header: dict | None = None) -> str:
    """Aligned text table, one block per transaction-cost setting.

    Mean and SD are shown in percent per year, turnover per period and fees
    in annualized basis points.
    """
    by_tc: dict[float, list[dict]] = {}
    gammas: list[str] = []
    for rec in records:
        by_tc.setdefault(float(rec["tc_bps"]), []).append(rec)
        for g in rec.get("phi_bps", {}):
            if g not in gammas:
                gammas.append(g)
    gammas.sort(key=float)
    cols = ["Model", "Turnover", "Mean", "SD", "SR"] + [f"Phi(g={g})" for g in gammas] \
        + ["LPD", "Acc"]
    lines = []
    if header:
        h = header.get("header", header)
        keys = ("strategy", "tau_annual", "max_weight", "turnover_first_period",
                "tau_conversion", "train_len")
        meta = " ".join(f"{k}={h[k]}" for k in keys if k in h and h[k] is not None)
        if meta:
            lines.append(f"# {meta}")
    for tc in sorted(by_tc):
        lines.append(f"TC = {tc:g} bps")
        table = [cols]
        for rec in by_tc[tc]:
            fees = rec.get("phi_bps", {})
            table.append([
                str(rec["model"]),
                _fmt(rec["turnover"], 3),
                _fmt(100.0 * rec["mean"], 2),
                _fmt(100.0 * rec["sd"], 2),
                _fmt(rec["sharpe"], 3),
                *[_fmt(fees.get(g), 1) for g in gammas],
                _fmt(rec.get("lpd"), 2),
                _fmt(rec.get("acc"), 2),
            ])
        widths = [max(len(r[c]) for r in table) for c in range(len(cols))]
        for irow, r in enumerate(table):
            cells = [r[0].ljust(widths[0])] + [r[c].rjust(widths[c]) for c in range(1, len(cols))]
            lines.append("  ".join(cells).rstrip())
            if irow == 0:
                lines.append("-" * (sum(widths) + 2 * (len(cols) - 1)))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def parse_table(text: str) -> list[dict]:
    """Inverse of render_table on its own output (used for round-trip checks)."""
    records: list[dict] = []
    tc = None
    gammas: list[str] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        if ln.startswith("TC ="):
            tc = float(ln.split("=")[1].split()[0])
            header_cells = lines[i + 1].split()
            gammas = [c[len("Phi(g="):-1] for c in header_cells if c.startswith("Phi(g=")]
            i += 3
            continue
        if not ln or ln.startswith("#"):
            i += 1
            continue
        cells = ln.split()
        base = 5
        n_fee = len(gammas)
        rec = {
            "model": cells[0],
            "tc_bps": tc,
            "turnover": float(cells[1]),
            "mean": float(cells[2]) / 100.0,
            "sd": float(cells[3]) / 100.0,
            "sharpe": float(cells[4]),
            "phi_bps": {},
        }
        for k, g in enumerate(gammas):
            if base + k < len(cells) and cells[base + k]:
                rec["phi_bps"][g] = float(cells[base + k])
        rest = cells[base + n_fee:]
        rec["lpd"] = float(rest[0]) if len(rest) > 0 else None
        rec["acc"] = float(rest[1]) if len(rest) > 1 else None
        records.append(rec)
        i += 1
    return records
