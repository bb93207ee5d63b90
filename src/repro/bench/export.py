"""Exporting benchmark results: CSV / JSON files and ASCII charts.

The paper presents its evaluation as figures; this module turns the harness
measurements into artefacts a downstream user can archive or plot:

* :func:`write_csv` / :func:`write_json` — persist the per-query rows of a
  :class:`~repro.bench.harness.WorkloadRun`;
* :func:`ascii_bar_chart` — a dependency-free rendering of one series
  (e.g. per-query elapsed time, log-scaled like the paper's Figure 5 axes);
* :func:`export_run` — one call producing every artefact for one dataset.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .figure5 import figure5_rows, figure5_summary
from .figure6 import figure6_rows, figure6_summary
from .harness import WorkloadRun

PathLike = Union[str, Path]


def write_csv(rows: Sequence[Mapping[str, object]], path: PathLike,
              columns: Sequence[str] = ()) -> Path:
    """Write table rows to a CSV file and return its path."""
    target = Path(path)
    if not rows:
        target.write_text("", encoding="utf-8")
        return target
    headers = list(columns) if columns else list(rows[0].keys())
    with target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=headers, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({header: row.get(header, "") for header in headers})
    return target


def write_json(payload: object, path: PathLike) -> Path:
    """Write a JSON-serializable payload (rows, summaries) to a file."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True),
                      encoding="utf-8")
    return target


def ascii_bar_chart(labels: Sequence[str], values: Sequence[float],
                    title: str = "", width: int = 40,
                    log_scale: bool = False, unit: str = "") -> str:
    """Render one series as a horizontal ASCII bar chart.

    ``log_scale=True`` mimics the paper's logarithmic time axes so queries
    spanning several orders of magnitude stay readable.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    lines: List[str] = [title] if title else []
    if not values:
        lines.append("(no data)")
        return "\n".join(lines)

    def transform(value: float) -> float:
        if not log_scale:
            return max(0.0, value)
        return math.log10(value) if value > 0 else 0.0

    transformed = [transform(value) for value in values]
    top = max(transformed) or 1.0
    label_width = max(len(label) for label in labels)
    for label, value, scaled in zip(labels, values, transformed):
        bar = "#" * max(1, round(width * scaled / top)) if value > 0 else ""
        suffix = f" {value:.3f}{unit}"
        lines.append(f"{label.ljust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)


def run_payload(run: WorkloadRun) -> Dict[str, object]:
    """The complete JSON payload of one dataset's run (rows + summaries)."""
    return {
        "dataset": run.dataset,
        "figure5": {"rows": figure5_rows(run), "summary": figure5_summary(run)},
        "figure6": {"rows": figure6_rows(run), "summary": figure6_summary(run)},
    }


def export_run(run: WorkloadRun, directory: PathLike,
               prefix: Optional[str] = None) -> Dict[str, Path]:
    """Write every artefact of one run into ``directory``.

    Produces ``<prefix>_figure5.csv``, ``<prefix>_figure6.csv`` and
    ``<prefix>_results.json``; returns the mapping of artefact name to path.
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    stem = prefix or run.dataset
    artefacts = {
        "figure5_csv": write_csv(figure5_rows(run), base / f"{stem}_figure5.csv"),
        "figure6_csv": write_csv(figure6_rows(run), base / f"{stem}_figure6.csv"),
        "json": write_json(run_payload(run), base / f"{stem}_results.json"),
    }
    return artefacts


def require_verified_payload(payload: Dict[str, object]) -> None:
    """Refuse core-bench payloads whose verification guards did not run.

    :func:`~repro.bench.core_bench.run_core_bench` records whether its answer
    checks (backends vs. memory, memory vs. the naive LCA definitions, and
    the corpus union check) ran under ``protocol.verified_parity``, and
    whether the ranking section's early-vs-exhaustive equality guard ran
    under ``ranking.verified_equivalence``.  An unverified payload may contain
    fast-but-wrong numbers, so persisting it as the ``BENCH_core.json``
    artefact is forbidden — re-run with verify=True.
    """
    from .core_bench import AnswerParityError, RankingEquivalenceError

    protocol = payload.get("protocol")
    verified = isinstance(protocol, dict) and protocol.get("verified_parity")
    if not verified:
        raise AnswerParityError(
            "refusing to persist an unverified core-bench payload "
            "(protocol.verified_parity is not set); re-run with verify=True")
    ranking = payload.get("ranking")
    if ranking is not None and not (
            isinstance(ranking, dict) and
            ranking.get("verified_equivalence")):
        raise RankingEquivalenceError(
            "refusing to persist a core-bench payload whose ranking section "
            "skipped the early-vs-exhaustive equality guard "
            "(ranking.verified_equivalence is not set); re-run with "
            "verify=True")


def write_core_bench(payload: Dict[str, object],
                     path: PathLike = "BENCH_core.json") -> Path:
    """Persist a :func:`~repro.bench.core_bench.run_core_bench` payload.

    Calls :func:`require_verified_payload` first: the artefact is only ever
    written from an answer-verified run (the bench-honesty contract the lint
    gate enforces on every ``BENCH_*.json`` writer).
    """
    require_verified_payload(payload)
    return write_json(payload, path)


def chart_figure5(run: WorkloadRun, width: int = 40) -> str:
    """ASCII rendering of the Figure 5 timing series for one dataset."""
    labels = [measurement.label for measurement in run.measurements]
    validrtf_ms = [measurement.validrtf_seconds * 1000.0
                   for measurement in run.measurements]
    maxmatch_ms = [measurement.maxmatch_seconds * 1000.0
                   for measurement in run.measurements]
    blocks = [
        ascii_bar_chart(labels, maxmatch_ms,
                        title=f"{run.dataset}: MaxMatch elapsed time (ms, log scale)",
                        width=width, log_scale=True, unit=" ms"),
        ascii_bar_chart(labels, validrtf_ms,
                        title=f"{run.dataset}: ValidRTF elapsed time (ms, log scale)",
                        width=width, log_scale=True, unit=" ms"),
    ]
    return "\n\n".join(blocks)


def chart_figure6(run: WorkloadRun, width: int = 40) -> str:
    """ASCII rendering of the Figure 6 ratio series for one dataset."""
    labels = [measurement.label for measurement in run.measurements]
    blocks = [
        ascii_bar_chart(labels, [m.report.cfr for m in run.measurements],
                        title=f"{run.dataset}: CFR", width=width),
        ascii_bar_chart(labels, [m.report.apr_prime for m in run.measurements],
                        title=f"{run.dataset}: APR'", width=width),
        ascii_bar_chart(labels, [m.report.max_apr for m in run.measurements],
                        title=f"{run.dataset}: Max APR", width=width),
    ]
    return "\n\n".join(blocks)
