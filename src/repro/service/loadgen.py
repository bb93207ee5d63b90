"""Load generation: throughput and latency percentiles for the service.

Two standard driving disciplines:

* **closed loop** (:func:`run_closed_loop`) — ``concurrency`` simulated
  users, each with its own connection, each issuing its next request the
  moment the previous answer arrives, until a shared budget of ``requests``
  is spent.  Measures the service's capacity under a fixed multiprogramming
  level.
* **open loop** (:func:`run_open_loop`) — requests are *scheduled* at a
  target aggregate rate for a fixed duration, independent of completions
  (each of the ``concurrency`` connections fires on its own fixed timetable).
  Measures behaviour under offered load; when the service can't keep up the
  schedule slips and latency percentiles show it.  (With finite connections
  the loop degenerates toward closed-loop behaviour at saturation — raise
  ``concurrency`` to keep the schedule honest.)

Both produce a :class:`LoadReport` with throughput, p50/p95/p99/mean/max
latency and typed error counts (shed load and timeouts are *not* silently
mixed into latency numbers).  :func:`loadtest` self-hosts a server from a
:class:`~repro.service.server.ServiceConfig` and drives it in-process;
:func:`write_service_bench` persists reports as ``BENCH_service.json``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..bench.export import PathLike, write_json
from ..obs import names as metric_names
from ..xmltree import XMLTree
from .client import RetryPolicy, ServiceClient
from .protocol import ServiceError
from .server import ServerThread, ServiceConfig


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of an unsorted sequence."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass
class LoadReport:
    """Everything one load run measured, JSON-exportable."""

    mode: str
    requests: int
    concurrency: int
    algorithm: str
    elapsed_seconds: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)
    errors: Dict[str, int] = field(default_factory=dict)
    target_rate: Optional[float] = None
    #: Client-side retries performed under a :class:`RetryPolicy` — each
    #: one is a transient failure the retrying client healed.
    retries: int = 0
    config: Dict[str, object] = field(default_factory=dict)
    server_stats: Dict[str, object] = field(default_factory=dict)
    #: The server's merged metrics-registry snapshot taken after the run
    #: (queue waits, batch occupancy, shed counters, engine-level series).
    server_metrics: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        """Requests answered successfully."""
        return len(self.latencies_ms)

    @property
    def error_count(self) -> int:
        """Requests answered with a typed error (or failed transport)."""
        return sum(self.errors.values())

    @property
    def throughput_rps(self) -> float:
        """Successful answers per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def latency_summary_ms(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max of the successful requests, in ms."""
        values = self.latencies_ms
        return {
            "p50": percentile(values, 50),
            "p95": percentile(values, 95),
            "p99": percentile(values, 99),
            "mean": (sum(values) / len(values)) if values else 0.0,
            "max": max(values) if values else 0.0,
        }

    def payload(self) -> Dict[str, object]:
        """The JSON payload of one run (raw latencies omitted)."""
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "concurrency": self.concurrency,
            "algorithm": self.algorithm,
            "target_rate": self.target_rate,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_ms": {key: round(value, 3) for key, value
                           in self.latency_summary_ms().items()},
            "errors": dict(self.errors),
            "retries": self.retries,
            "config": self.config,
            "server_stats": self.server_stats,
            "server_metrics": self.server_metrics,
        }

    def summary(self) -> str:
        """One human-readable block (the ``loadtest`` CLI output)."""
        latency = self.latency_summary_ms()
        lines = [
            f"mode: {self.mode}  concurrency: {self.concurrency}  "
            f"algorithm: {self.algorithm}"
            + (f"  target rate: {self.target_rate:g}/s"
               if self.target_rate else ""),
            f"completed: {self.completed}/{self.requests}  "
            f"errors: {self.error_count}"
            + (f" {self.errors}" if self.errors else "")
            + (f"  retries: {self.retries}" if self.retries else ""),
            f"elapsed: {self.elapsed_seconds:.3f}s  "
            f"throughput: {self.throughput_rps:.1f} req/s",
            f"latency ms: p50={latency['p50']:.2f}  p95={latency['p95']:.2f}  "
            f"p99={latency['p99']:.2f}  mean={latency['mean']:.2f}  "
            f"max={latency['max']:.2f}",
        ]
        return "\n".join(lines)


class _Recorder:
    """Thread-safe collection of latencies and typed-error counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.errors: Dict[str, int] = {}
        self.retries = 0

    def success(self, latency_seconds: float) -> None:
        with self._lock:
            self.latencies_ms.append(latency_seconds * 1000.0)

    def failure(self, code: str) -> None:
        with self._lock:
            self.errors[code] = self.errors.get(code, 0) + 1

    def add_retries(self, count: int) -> None:
        with self._lock:
            self.retries += count


def _fire(client: ServiceClient, query: str, algorithm: str,
          recorder: _Recorder) -> None:
    """Issue one timed request, funnelling failures into typed counts."""
    started = time.perf_counter()
    try:
        client.search(query, algorithm)
    except ServiceError as error:
        recorder.failure(error.code)
    except (ConnectionError, OSError):
        recorder.failure("transport")
    else:
        recorder.success(time.perf_counter() - started)


def _run_threads(workers: Sequence[threading.Thread]) -> None:
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


# ---------------------------------------------------------------------- #
# Driving disciplines
# ---------------------------------------------------------------------- #
def run_closed_loop(address: Tuple[str, int], queries: Sequence[str],
                    requests: int = 200, concurrency: int = 4,
                    algorithm: str = "validrtf",
                    retry: Optional[RetryPolicy] = None) -> LoadReport:
    """``concurrency`` users, back-to-back requests, shared budget.

    With a ``retry`` policy every simulated user heals transient failures
    itself; the report's ``retries`` field counts the heals.
    """
    if requests < 1:
        raise ValueError(f"requests must be positive, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    if not queries:
        raise ValueError("the query mix must not be empty")
    recorder = _Recorder()
    ticket = itertools.count()

    def user() -> None:
        try:
            client = ServiceClient(*address, retry=retry).connect()
        except (ConnectionError, OSError):
            recorder.failure("connect")
            return
        with client:
            try:
                while True:
                    serial = next(ticket)
                    if serial >= requests:
                        return
                    _fire(client, queries[serial % len(queries)], algorithm,
                          recorder)
            finally:
                recorder.add_retries(client.retries)

    started = time.perf_counter()
    _run_threads([threading.Thread(target=user, name=f"loadgen-{index}")
                  for index in range(concurrency)])
    elapsed = time.perf_counter() - started
    return LoadReport(mode="closed", requests=requests,
                      concurrency=concurrency, algorithm=algorithm,
                      elapsed_seconds=elapsed,
                      latencies_ms=recorder.latencies_ms,
                      errors=recorder.errors,
                      retries=recorder.retries)


def run_open_loop(address: Tuple[str, int], queries: Sequence[str],
                  rate: float = 100.0, duration: float = 2.0,
                  concurrency: int = 4,
                  algorithm: str = "validrtf",
                  retry: Optional[RetryPolicy] = None) -> LoadReport:
    """Fire at a target aggregate ``rate`` (req/s) for ``duration`` seconds."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    if not queries:
        raise ValueError("the query mix must not be empty")
    recorder = _Recorder()
    interval = concurrency / rate
    planned_per_user = max(1, int(duration * rate / concurrency))

    def user(index: int) -> None:
        try:
            client = ServiceClient(*address, retry=retry).connect()
        except (ConnectionError, OSError):
            recorder.failure("connect")
            return
        with client:
            try:
                # Stagger users across one interval so the aggregate arrival
                # process is (roughly) uniform, not concurrency-sized bursts.
                origin = time.perf_counter() + (index / concurrency) * interval
                for step in range(planned_per_user):
                    now = time.perf_counter()
                    scheduled = origin + step * interval
                    if scheduled > now:
                        time.sleep(scheduled - now)
                    _fire(client, queries[(index + step * concurrency)
                                          % len(queries)], algorithm, recorder)
            finally:
                recorder.add_retries(client.retries)

    started = time.perf_counter()
    _run_threads([threading.Thread(target=user, args=(index,),
                                   name=f"loadgen-{index}")
                  for index in range(concurrency)])
    elapsed = time.perf_counter() - started
    return LoadReport(mode="open", requests=planned_per_user * concurrency,
                      concurrency=concurrency, algorithm=algorithm,
                      elapsed_seconds=elapsed, target_rate=rate,
                      latencies_ms=recorder.latencies_ms,
                      errors=recorder.errors,
                      retries=recorder.retries)


# ---------------------------------------------------------------------- #
# Self-hosting harness + export
# ---------------------------------------------------------------------- #
def loadtest(config: ServiceConfig, queries: Sequence[str],
             tree: Optional[XMLTree] = None,
             address: Optional[Tuple[str, int]] = None,
             mode: str = "closed", requests: int = 200, concurrency: int = 4,
             rate: float = 100.0, duration: float = 2.0,
             algorithm: str = "validrtf",
             fetch_stats: bool = False,
             retry: Optional[RetryPolicy] = None) -> LoadReport:
    """Drive one load run, self-hosting a server unless ``address`` is given.

    Returns the :class:`LoadReport`, annotated (when self-hosting, or when
    ``fetch_stats`` is set against an external ``address``) with the
    server's own pool/batcher/admission/server counters plus its merged
    metrics-registry snapshot.  A self-hosted report's ``config`` records
    the served ``config``; against an ``address`` this process never sees
    the server's settings, so ``config`` records only what the client chose
    (query mix, mode, concurrency) and the server's own settings come from
    its stats.
    """
    def drive(target: Tuple[str, int]) -> LoadReport:
        if mode == "closed":
            return run_closed_loop(target, queries, requests=requests,
                                   concurrency=concurrency,
                                   algorithm=algorithm, retry=retry)
        if mode == "open":
            return run_open_loop(target, queries, rate=rate,
                                 duration=duration, concurrency=concurrency,
                                 algorithm=algorithm, retry=retry)
        raise ValueError(f"unknown mode {mode!r}; expected closed or open")

    if address is not None:
        report = drive(address)
        report.config = {"query_mix": len(queries), "mode": mode,
                         "concurrency": concurrency}
        if fetch_stats:
            with ServiceClient(*address) as client:
                response = client.request({"op": "stats"})
            if response.get("ok"):
                report.server_stats = response.get("stats", {})
                report.server_metrics = response.get("metrics", {})
        return report
    with ServerThread(config, tree=tree) as server:
        report = drive(server.address)
        report.server_stats = server.service.stats()
        report.server_metrics = server.service.metrics_snapshot()
    report.config = {
        "backend": config.backend,
        "workers": config.workers,
        "cache_size": config.cache_size,
        "document": config.document,
        "max_inflight": config.max_inflight,
        "timeout_seconds": config.timeout_seconds,
        "query_mix": len(queries),
    }
    return report


class ServiceBenchIntegrityError(AssertionError):
    """A load report failed its sanity checks; it must not be persisted."""


def verify_service_reports(reports: Sequence[LoadReport]) -> None:
    """Sanity-check reports before they become a bench artefact.

    A report that answered nothing, recorded a negative latency or whose
    percentiles are out of order is a harness bug, not a measurement —
    writing it to ``BENCH_service.json`` would archive a lie.  This is the
    service-side analogue of the core bench's answer-parity guard.
    """
    if not reports:
        raise ServiceBenchIntegrityError("no load reports to persist")
    for index, report in enumerate(reports):
        where = f"report[{index}] ({report.mode}/{report.algorithm})"
        if report.completed + report.error_count == 0:
            raise ServiceBenchIntegrityError(
                f"{where}: the run answered no request at all")
        if report.elapsed_seconds <= 0:
            raise ServiceBenchIntegrityError(
                f"{where}: non-positive elapsed time "
                f"{report.elapsed_seconds!r}")
        if any(latency < 0 for latency in report.latencies_ms):
            raise ServiceBenchIntegrityError(
                f"{where}: negative latency recorded")
        latency = report.latency_summary_ms()
        if not (latency["p50"] <= latency["p95"] <= latency["p99"]
                <= latency["max"]):
            raise ServiceBenchIntegrityError(
                f"{where}: percentiles out of order: {latency}")
        _verify_server_metrics(where, report)


def _verify_server_metrics(where: str, report: LoadReport) -> None:
    """Metrics-snapshot invariants for reports that captured one.

    The snapshot and the stats dict are derived from the same registries,
    so they must agree exactly — a divergence means the old two-bookkeeping
    bug is back.
    """
    metrics = report.server_metrics
    if not metrics:
        return
    counters = metrics.get("counters", {})
    for key, value in counters.items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ServiceBenchIntegrityError(
                f"{where}: counter {key} has impossible value {value!r}")
    for key, histogram in metrics.get("histograms", {}).items():
        if histogram["count"] != sum(histogram["counts"]):
            raise ServiceBenchIntegrityError(
                f"{where}: histogram {key} count {histogram['count']} != "
                f"sum of its bucket counts")
        if histogram["count"] < 0 or histogram["sum"] < 0:
            raise ServiceBenchIntegrityError(
                f"{where}: histogram {key} has negative count/sum")
    batcher = (report.server_stats or {}).get("batcher")
    if isinstance(batcher, dict):
        for stat_key, metric in (
                ("requests", metric_names.BATCHER_REQUESTS),
                ("batches", metric_names.BATCHER_BATCHES)):
            if batcher.get(stat_key) != counters.get(metric, 0):
                raise ServiceBenchIntegrityError(
                    f"{where}: stats batcher.{stat_key} "
                    f"({batcher.get(stat_key)}) disagrees with metrics "
                    f"counter {metric} ({counters.get(metric, 0)})")
    admission = (report.server_stats or {}).get("admission")
    if isinstance(admission, dict):
        for stat_key, metric in (
                ("admitted", metric_names.ADMISSION_ADMITTED),
                ("rejected", metric_names.ADMISSION_REJECTED),
                ("timed_out", metric_names.ADMISSION_TIMED_OUT)):
            if admission.get(stat_key) != counters.get(metric, 0):
                raise ServiceBenchIntegrityError(
                    f"{where}: stats admission.{stat_key} "
                    f"({admission.get(stat_key)}) disagrees with metrics "
                    f"counter {metric} ({counters.get(metric, 0)})")


def write_service_bench(reports: "Union[LoadReport, Sequence[LoadReport]]",
                        path: PathLike = "BENCH_service.json") -> "Path":
    """Persist one report (or a list of them) as the service bench artefact.

    Refuses (raises :class:`ServiceBenchIntegrityError`) when any report
    fails :func:`verify_service_reports` — the bench-honesty contract the
    lint gate enforces on every ``BENCH_*.json`` writer.
    """
    if isinstance(reports, LoadReport):
        reports = [reports]
    verify_service_reports(reports)
    payload = {"service_bench": [report.payload() for report in reports]}
    return write_json(payload, path)
