"""Service load benchmark: the latency-percentile harness end to end.

Self-hosts the serving stack (engine pool + batcher + admission + TCP
front end) over the scaled-down DBLP corpus, drives it with the closed- and
open-loop generators, sanity-checks the measurements and emits the
``BENCH_service.json`` artefact at the repository root — the serving-layer
counterpart of the Figure 5/6 CSV/JSON exports.

Run with ``pytest benchmarks -k service`` or via ``make loadtest-smoke``
(which exercises the same path through the CLI).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service import ServiceConfig, loadtest, write_service_bench

#: The artefact lands next to the Figure exports, at the repository root.
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

REQUESTS = 120
WORKERS = 2
CONCURRENCY = 4


def test_service_loadtest_emits_bench(dataset_specs):
    spec = dataset_specs["dblp"]
    tree = spec.tree_factory()
    queries = [query.text for query in spec.workload]
    reports = []

    # Closed loop across the pooled backends.
    for backend in ("memory", "sqlite"):
        config = ServiceConfig(backend=backend, workers=WORKERS,
                               document=spec.name)
        report = loadtest(config, queries, tree=tree, mode="closed",
                          requests=REQUESTS, concurrency=CONCURRENCY)
        assert report.completed == REQUESTS, report.errors
        assert report.error_count == 0, report.errors
        assert report.throughput_rps > 0
        latency = report.latency_summary_ms()
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]
        # The batcher must have seen every request the generator sent.
        assert report.server_stats["batcher"]["requests"] == REQUESTS
        reports.append(report)

    # Open loop (offered-load discipline) on the memory backend.
    config = ServiceConfig(backend="memory", workers=WORKERS,
                           document=spec.name)
    open_report = loadtest(config, queries, tree=tree, mode="open",
                           rate=100.0, duration=1.0,
                           concurrency=CONCURRENCY)
    assert open_report.completed > 0
    assert open_report.target_rate == 100.0
    reports.append(open_report)

    path = write_service_bench(reports, BENCH_PATH)
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    assert len(payload["service_bench"]) == len(reports)
    for entry in payload["service_bench"]:
        assert {"mode", "throughput_rps", "latency_ms",
                "errors"} <= set(entry)
        assert {"p50", "p95", "p99", "mean", "max"} <= set(entry["latency_ms"])
