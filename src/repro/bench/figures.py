"""The Figure 5 and Figure 6 panels, rendered from a core-bench payload.

The paper's Figures 5 and 6 each have four panels (DBLP, XMark standard,
data1, data2).  Figure 5 plots, per workload query, the elapsed time of
revised MaxMatch and of ValidRTF and the number of RTFs; Figure 6 plots
CFR, APR' and Max APR.  Both are views of one
:func:`~repro.bench.core_bench.run_core_bench` payload: Figure 5 reads its
timing ``entries``, Figure 6 its verified ``figures`` section.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

#: Columns of the Figure 5 table, in print order.
FIGURE5_COLUMNS = ("query", "keywords", "maxmatch_ms", "validrtf_ms", "rtfs",
                   "time_ratio")
#: Columns of the Figure 6 table, in print order.
FIGURE6_COLUMNS = ("query", "keywords", "rtfs", "lca_roots", "maxmatch_kept",
                   "validrtf_kept", "cfr", "apr_prime", "max_apr")


def figure5_rows(payload: Mapping[str, object], dataset: str,
                 backend: str = "memory") -> List[Dict[str, object]]:
    """One dataset's Figure 5 panel, on one backend, as table rows."""
    times = {(entry["query"], entry["algorithm"]): entry["ms"]
             for entry in payload["entries"]
             if entry["dataset"] == dataset and entry["backend"] == backend}
    rows: List[Dict[str, object]] = []
    for row in payload["figures"][dataset]["rows"]:
        maxmatch_ms = times[row["query"], "maxmatch"]
        validrtf_ms = times[row["query"], "validrtf"]
        rows.append({
            "query": row["query"],
            "keywords": row["keywords"],
            "maxmatch_ms": maxmatch_ms,
            "validrtf_ms": validrtf_ms,
            "rtfs": row["rtfs"],
            "time_ratio": _ratio(validrtf_ms, maxmatch_ms),
        })
    return rows


def figure5_summary(payload: Mapping[str, object], dataset: str,
                    backend: str = "memory") -> Dict[str, float]:
    """The ValidRTF-to-MaxMatch time ratios behind the paper's claim of
    "competent performance": their count, mean, max and min."""
    ratios = [row["time_ratio"]
              for row in figure5_rows(payload, dataset, backend)]
    if not ratios:
        return {"queries": 0, "mean_time_ratio": 1.0, "max_time_ratio": 1.0,
                "min_time_ratio": 1.0}
    return {
        "queries": len(ratios),
        "mean_time_ratio": sum(ratios) / len(ratios),
        "max_time_ratio": max(ratios),
        "min_time_ratio": min(ratios),
    }


def render_figure5(payload: Mapping[str, object], dataset: str,
                   backend: str = "memory") -> str:
    """One Figure 5 panel as printable text (table and summary line)."""
    summary = figure5_summary(payload, dataset, backend)
    return "\n\n".join([
        format_table(figure5_rows(payload, dataset, backend), FIGURE5_COLUMNS,
                     title=f"Figure 5 — {dataset} ({backend}): per-query "
                           f"elapsed time"),
        f"summary: mean ValidRTF/MaxMatch time ratio "
        f"{summary['mean_time_ratio']:.3f} "
        f"(max {summary['max_time_ratio']:.3f})",
    ])


def render_figure6(payload: Mapping[str, object], dataset: str) -> str:
    """One Figure 6 panel as printable text (table and summary line)."""
    figure = payload["figures"][dataset]
    summary = figure["summary"]
    return "\n\n".join([
        format_table(figure["rows"], FIGURE6_COLUMNS,
                     title=f"Figure 6 — {dataset}: CFR / APR' / Max APR"),
        f"summary: CFR<1 on {summary['queries_with_extra_pruning']}/"
        f"{summary['queries']} queries, mean Max APR "
        f"{summary['mean_max_apr']:.3f}, mean APR' "
        f"{summary['mean_apr_prime']:.3f}",
    ])


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] = (), title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    headers = list(columns) if columns else list(rows[0].keys())
    table: List[List[str]] = [[str(header) for header in headers]]
    for row in rows:
        table.append([_cell(row.get(header, "")) for header in headers])
    widths = [max(len(line[index]) for line in table) for index in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(table[0], widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row_cells in table[1:]:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row_cells, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return 1.0
    return numerator / denominator
