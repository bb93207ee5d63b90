"""``python -m benchmarks.e2e compare A.json B.json [C.json ...]``.

Compares results files written with ``--output`` (each holding one or more
runs): every later file against the first, per workload and end-to-end
metric.  Run *i* of one side pairs with run *i* of the other.  The verdict
follows the rules the benchmark's bounds were fixed for, first match wins:

* **improved** — at least ten pairs, the candidate wins at least nine
  tenths of them (ties count for neither side), and the medians differ by
  more than the baseline's interquartile distance;
* **worse** — the median moved in the bad direction by more than the
  metric's bound;
* **unresolved** — either side's interquartile distance is wider than the
  bound, unless every candidate run beats every baseline run;
* **unchanged** — otherwise.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import spec
from .stats import quartiles

#: Pairs needed before a gain may be claimed.
MIN_PAIRS_FOR_GAIN = 10

#: Share of pairs the candidate must win to claim a gain.
WIN_SHARE_FOR_GAIN = 0.9


@dataclass(frozen=True)
class Verdict:
    workload: str
    metric: str
    baseline: List[float]
    candidate: List[float]
    wins: int
    pairs: int
    verdict: str


def _better(value: float, other: float, direction: str) -> bool:
    return value < other if direction == "lower" else value > other


def decide(baseline: Sequence[float], candidate: Sequence[float],
           metric: spec.EndToEnd) -> str:
    """The verdict of ``candidate`` against ``baseline`` for one metric."""
    q1_base, median_base, q3_base = quartiles(baseline)
    q1_cand, median_cand, q3_cand = quartiles(candidate)
    limit = metric.bound.limit(median_base)
    worsened = (median_cand - median_base if metric.better == "lower"
                else median_base - median_cand)
    pairs = list(zip(baseline, candidate))
    wins = sum(1 for base, cand in pairs
               if _better(cand, base, metric.better))
    improved = (len(pairs) >= MIN_PAIRS_FOR_GAIN
                and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
                and -worsened > q3_base - q1_base)
    if improved:
        return "improved"
    if worsened > limit:
        return "worse"
    noisy = q3_base - q1_base > limit or q3_cand - q1_cand > limit
    if noisy and not all(_better(cand, base, metric.better)
                         for cand in candidate for base in baseline):
        return "unresolved"
    return "unchanged"


def load_runs(path: Path) -> List[Dict]:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def _values(runs: Sequence[Dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        result = run["workloads"].get(workload)
        if result and metric in result.get("metrics", {}):
            values.append(float(result["metrics"][metric]["value"]))
    return values


def compare(baseline: Sequence[Dict], candidate: Sequence[Dict]
            ) -> List[Verdict]:
    """Verdicts for every (workload, metric) both sides measured."""
    verdicts = []
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.end_to_end_for(workload):
            base = _values(baseline, workload, metric.name)
            cand = _values(candidate, workload, metric.name)
            if not base or not cand:
                continue
            pairs = list(zip(base, cand))
            wins = sum(1 for b, c in pairs if _better(c, b, metric.better))
            verdicts.append(Verdict(workload, metric.name, base, cand, wins,
                                    len(pairs), decide(base, cand, metric)))
    return verdicts


def render(verdicts: Sequence[Verdict]) -> str:
    header = (f"{'workload':12s} {'metric':22s} {'base q1/med/q3':>28s} "
              f"{'cand q1/med/q3':>28s} {'won':>7s} verdict")
    lines = [header]
    for verdict in verdicts:
        metric = spec.END_TO_END_BY_NAME[verdict.metric]
        base = "/".join(f"{value:.4g}" for value in quartiles(verdict.baseline))
        cand = "/".join(f"{value:.4g}" for value in quartiles(verdict.candidate))
        lines.append(f"{verdict.workload:12s} {verdict.metric:22s} "
                     f"{base:>28s} {cand:>28s} "
                     f"{verdict.wins:>3d}/{verdict.pairs:<3d} "
                     f"{verdict.verdict} (bound {metric.bound.describe()}, "
                     f"{metric.better} is better)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e compare",
        description="Compare results files against the first one.")
    parser.add_argument("files", nargs="+", type=Path,
                        help="results files written with --output; the "
                             "first is the baseline")
    arguments = parser.parse_args(argv)
    if len(arguments.files) < 2:
        parser.error("give a baseline and at least one candidate file")
    baseline = load_runs(arguments.files[0])
    for path in arguments.files[1:]:
        print(f"# {path} against {arguments.files[0]}")
        print(render(compare(baseline, load_runs(path))))
    return 0
