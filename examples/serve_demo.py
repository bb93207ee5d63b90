#!/usr/bin/env python3
"""Serve XML keyword search concurrently and load-test it, in one process.

The demo walks the whole serving stack of :mod:`repro.service`:

1. builds an :class:`~repro.service.engine_pool.EnginePool` — four worker
   threads, each with its own
   :class:`~repro.corpus.engine.CorpusSearchEngine`, all sharing one
   immutable in-memory posting snapshot of the Figure 1(a) document, served
   as the one-document corpus ``figure-1a``;
2. hosts the newline-delimited-JSON TCP front end on a background thread
   (:class:`~repro.service.server.ServerThread`), with request batching (a
   search dispatches at once while a worker is free; searches arriving
   while all four are busy coalesce into one batch) and admission control
   (bounded in-flight depth);
3. talks to it like any remote caller would, through
   :class:`~repro.service.client.ServiceClient` — search with a per-request
   algorithm (answers are doc-tagged: one entry per matching document), a
   ValidRTF-vs-MaxMatch comparison, and the server's
   own pool/batcher/admission/server statistics;
4. scrapes the live metrics registry (the same merged snapshot the
   ``stats`` wire op and ``python -m repro.cli metrics`` expose) and prints
   a few headline series;
5. finishes with a tiny closed-loop load test and prints throughput plus
   p50/p95/p99 latency.

Run with::

    PYTHONPATH=src python examples/serve_demo.py

The equivalent command-line entry points are::

    python -m repro.cli serve --dataset figure-1a --workers 4
    python -m repro.cli loadtest --backend memory --workers 4
"""

from __future__ import annotations

from repro.datasets import PAPER_QUERIES, publications_tree
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    loadtest,
)


def main() -> None:
    tree = publications_tree()
    config = ServiceConfig(backend="memory", workers=4,
                           document="figure-1a", max_inflight=64)

    print("== starting the serving stack (pool + batcher + admission) ==")
    with ServerThread(config, tree=tree) as server:
        host, port = server.address
        print(f"listening on {host}:{port}\n")

        with ServiceClient(host, port) as client:
            print("== one served query, two algorithms ==")
            query = PAPER_QUERIES["Q2"]
            for algorithm in ("validrtf", "maxmatch"):
                payload = client.search(query, algorithm)
                roots = [f"{entry['doc']}:{fragment['root']}"
                         for entry in payload["documents"]
                         for fragment in entry["result"]["fragments"]]
                print(f"{algorithm:>9}: {payload['count']} fragment(s), "
                      f"roots {roots}")

            print("\n== served ValidRTF-vs-MaxMatch comparison ==")
            comparison = client.compare(query)
            for entry in comparison["documents"]:
                report = entry["report"]
                print(f"[{entry['doc']}] RTFs: {report['lca_count']}  "
                      f"CFR: {report['cfr']:.3f}  "
                      f"APR': {report['apr_prime']:.3f}  "
                      f"Max APR: {report['max_apr']:.3f}")

            print("\n== server statistics ==")
            stats = client.stats()
            pool = stats["pool"]
            print(f"workers: {pool['workers']}  engines built: "
                  f"{pool['engines']}  backend: {pool['backend']}")
            print(f"batcher: {stats['batcher']['requests']} request(s) in "
                  f"{stats['batcher']['batches']} batch(es), mean queue "
                  f"wait {stats['batcher']['mean_queue_wait_ms']:.3f} ms")
            print(f"admission: peak in-flight "
                  f"{stats['admission']['peak_inflight']}, "
                  f"rejected {stats['admission']['rejected']}")
            print(f"server: requests by op {stats['server']['requests']}, "
                  f"slow queries {stats['server']['slow_queries']}")

            print("\n== live metrics snapshot (counters) ==")
            snapshot = client.metrics()
            for key, value in sorted(snapshot["counters"].items()):
                if key.startswith(("query.count", "server.requests",
                                   "batcher.", "admission.")):
                    print(f"  {key} = {value}")

        print("\n== closed-loop load test against the same server ==")
        report = loadtest(config, list(PAPER_QUERIES.values()),
                          address=(host, port), mode="closed",
                          requests=100, concurrency=4)
        print(report.summary())


if __name__ == "__main__":
    main()
