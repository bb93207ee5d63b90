"""The benchmark's catalogue: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root carries the metrics that every
workload reports (its ``end_to_end`` list) and the per-layer metrics of the
traced run; this module is the full catalogue, including the end-to-end
metrics that only some workloads define and which per-layer metric should
move which end-to-end metric.  ``test_e2e.py`` keeps the two in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: The seed the pinned answer digests (``digests.json``) belong to.
DEFAULT_SEED = 2009

#: Measured seconds per run when ``--seconds`` is not given.
DEFAULT_SECONDS = 20.0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: Listed in ``BENCHMARK.json``, so judged by the tools that run it.
    listed: bool


# The served workloads are not listed.  Their latencies are chains of
# wake-ups across the load generator, the server's event loop and its
# worker threads, which other tenants of a shared machine delay by amounts
# that no probe beside them measures (``speed.py`` corrects in-process
# times only).  On the two-core machine the benchmark was sized on, ten runs
# of unchanged code spread their latencies by up to 0.26 (interquartile
# range over the median), as wide as the bound.  They still run, print
# and compare with the rest.
WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "paper-mem",
        "the paper's Figure-5 queries on resident DBLP and XMark trees: all "
        "time is in the lca and core hot loops, storage and service idle",
        True),
    WorkloadSpec(
        "disk-cold",
        "the tree-free sqlite path a serve --db worker runs after every "
        "restart or rebuild: a fresh store, posting source and engine, so "
        "program caches cold, for every query", True),
    WorkloadSpec(
        "rank-topk",
        "early-terminated top-10 ranking over a 60-document corpus: the "
        "corpus driver, impact bounds and ranking dominate", True),
    WorkloadSpec(
        "served-read",
        "open-loop search against serve --backend corpus at fixed rates, "
        "answered from the result cache: parsing, admission, the batcher, "
        "the pool and encoding dominate", False),
    WorkloadSpec(
        "served-rw",
        "uncached reads beside live document updates and background "
        "compaction: writes rebuild worker engines, trading read cost against "
        "write cost and space", False),
)

WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)
LISTED = tuple(workload.name for workload in WORKLOADS if workload.listed)
SERVED = ("served-read", "served-rw")
ALL = WORKLOAD_NAMES


@dataclass(frozen=True)
class Bound:
    """How far a metric may worsen before a change counts as a regression.

    ``relative`` bounds are a share of the baseline median; ``absolute``
    bounds are in the metric's unit (``0`` means any worsening).
    """

    kind: str
    value: float

    def limit(self, baseline: float) -> float:
        if self.kind == "relative":
            return self.value * abs(baseline)
        return self.value

    def describe(self) -> str:
        if self.kind == "relative":
            return f"{self.value:.0%}"
        return f"+{self.value:g}"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: Bound
    workloads: Tuple[str, ...]
    #: Reported by every workload, so listed in ``BENCHMARK.json``.
    shared: bool
    description: str


# The timing bounds are as tight as the shared two-core machine the
# benchmark was sized on allows.  Other tenants' load there, lasting
# seconds to minutes, slowed whole runs by up to 40%; even at the nominal
# machine speed, listed workloads' set-up times spread up to 15% over ten
# runs (interquartile range over the median), so a 10% bound would reject
# unchanged code.  Memory repeats within about 1%.  README.md has the
# measurements.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", Bound("relative", 0.25), ALL, True,
             "median of five set-ups (inputs, index or database, server "
             "start and warm-up), at the nominal machine speed"),
    EndToEnd("query_p50_ms", "ms", "lower", Bound("relative", 0.25), ALL,
             True, "median over the requests of each one's median read "
                   "latency; closed loops at the nominal machine speed, "
                   "open loops as measured from the scheduled send"),
    EndToEnd("query_p90_ms", "ms", "lower", Bound("relative", 0.25), ALL,
             True, "90th-percentile read latency, taken like query_p50_ms"),
    EndToEnd("queries_per_s", "1/s", "higher", Bound("relative", 0.25), ALL,
             True, "closed loops: one caller's pass over the mix at each "
                   "request's median time, at the nominal machine speed; "
                   "open loops: reads answered per second of the timetable"),
    EndToEnd("peak_rss_mb", "MiB", "lower", Bound("relative", 0.10), ALL,
             True, "peak resident memory of the workload process, or of the "
                   "server on served workloads"),
    EndToEnd("max_rate_rps", "req/s", "higher", Bound("absolute", 100.0),
             ("served-read",), False,
             "highest ladder rate with p90 <= 20 ms, no errors and <= 2 "
             "requests outstanding per connection at the step's end"),
    EndToEnd("update_p50_ms", "ms", "lower", Bound("relative", 0.25),
             ("served-rw",), False,
             "median update latency from the scheduled send"),
    EndToEnd("error_rate", "failed/attempted", "lower", Bound("absolute", 0.0),
             ALL, False, "refused, failed or timed-out requests over attempted"),
    EndToEnd("db_bytes_per_xml_byte", "ratio", "lower",
             Bound("relative", 0.02), ("disk-cold", "served-rw"), False,
             "database plus journal/WAL bytes after the run over XML bytes "
             "stored"),
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {metric.name: metric
                                           for metric in END_TO_END}


#: Units of time.
TIME_UNITS = ("ms", "s")

IN_PROCESS = ("paper-mem", "disk-cold", "rank-topk")
#: Workloads whose reads run the search pipeline.  served-read's are all
#: answered from the server's result cache.
ENGINE = IN_PROCESS + ("served-rw",)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric(s) and workload(s) a change here should move.
    moves: str
    measured_by: str
    #: Workloads that measure it.  The others enter no code it measures and
    #: report 0 for it.
    workloads: Tuple[str, ...]


_P50_MEM = "query_p50_ms on paper-mem"
_DISK = "query_p50_ms and query_p90_ms on disk-cold and served-rw"
_RANK = "query_p50_ms and queries_per_s on rank-topk"
_SERVED = "query_p50_ms and max_rate_rps on served-read"
_RW = "query_p90_ms, update_p50_ms and db_bytes_per_xml_byte on served-rw"

#: Per-layer metrics of the traced run, per read unless stated.  In-process
#: workloads measure them with spans around the program's public seams
#: (``tracing.py``); served workloads with deltas of the server's ``stats``
#: op and the client's own timestamps.  The server's batched search path
#: times only the lca and fragments stages (of reads that miss its result
#: cache), so parsing and posting reads are in-process metrics.
LAYERS: Tuple[Layer, ...] = (
    Layer("text.parse_ms", "ms", "lower",
          "query_p50_ms on paper-mem (expected negligible)", "Query.parse",
          IN_PROCESS),
    Layer("storage.postings_ms", "ms", "lower", "query_p50_ms on disk-cold",
          "PostingSource.keyword_nodes", IN_PROCESS),
    Layer("storage.posting_rows", "count", "lower",
          "query_p50_ms on disk-cold", "keyword_nodes list lengths",
          IN_PROCESS),
    Layer("storage.posting_bytes", "B", "lower", "query_p50_ms on disk-cold",
          "read_stats() bytes delta", ("disk-cold",)),
    Layer("storage.posting_lru_hit_ratio", "ratio", "higher",
          "query_p50_ms on disk-cold", "read_stats() LRU hit/miss deltas",
          ("disk-cold",)),
    Layer("storage.node_prefetch_ms", "ms", "lower", _DISK,
          "prefetch_nodes", ("disk-cold",)),
    Layer("storage.nodes_prefetched", "count", "lower", _DISK,
          "nodes passed to prefetch_nodes", ("disk-cold",)),
    Layer("storage.node_lookup_ms", "ms", "lower", _DISK,
          "node_label / node_words", ("disk-cold",)),
    Layer("lca.roots_ms", "ms", "lower", _P50_MEM,
          "each pipeline's lca_function; served: query.stage.lca_seconds",
          ENGINE),
    Layer("lca.candidates", "count", "lower", _P50_MEM,
          "roots returned by lca_function; served: query.lca.candidates",
          ENGINE),
    Layer("core.fragments_ms", "ms", "lower",
          "query_p50_ms and query_p90_ms on paper-mem and disk-cold",
          "the fragments stage: build_rtfs + record_tree + pruner, node "
          "prefetch and lookups included; served: "
          "query.stage.fragments_seconds", ENGINE),
    Layer("core.search_ms", "ms", "lower", _P50_MEM,
          "SearchEngine.search self time: stage dispatch, SLCA flags, "
          "result assembly", ("paper-mem", "disk-cold")),
    Layer("core.rtf_ms", "ms", "lower", _P50_MEM, "build_rtfs", IN_PROCESS),
    Layer("core.record_tree_ms", "ms", "lower",
          "query_p50_ms on paper-mem and disk-cold",
          "each pipeline's record_tree (self time)", IN_PROCESS),
    Layer("core.prune_ms", "ms", "lower", _P50_MEM, "each pipeline's pruner",
          IN_PROCESS),
    Layer("core.kept_node_ratio", "ratio", "higher", _P50_MEM,
          "kept nodes over record-tree nodes, from the pruner's results",
          IN_PROCESS),
    Layer("core.rank_ms", "ms", "lower", _RANK, "rank_result",
          ("rank-topk",)),
    Layer("corpus.impacts_ms", "ms", "lower", _RANK, "keyword_impact",
          ("rank-topk",)),
    Layer("corpus.doc_search_ms", "ms", "lower", _RANK,
          "per-document SearchEngine.search (self time)", ("rank-topk",)),
    Layer("corpus.driver_ms", "ms", "lower", _RANK,
          "CorpusSearchEngine.rank_search (self time)", ("rank-topk",)),
    Layer("corpus.docs_visited_ratio", "ratio", "lower", _RANK,
          "RankedCorpusSearch docs_visited over docs_selected",
          ("rank-topk",)),
    Layer("trace.other_ms", "ms", "lower",
          "none: read wall time no span covers",
          "benchmark timer minus spans", IN_PROCESS),
    Layer("trace.reconciled_ratio", "ratio", "higher",
          "none: share of traced reads whose spans cover 95% of their wall "
          "time", "benchmark timer minus spans", IN_PROCESS),
    Layer("trace.overhead_ratio", "ratio", "lower",
          "none: traced over untraced query_p50_ms",
          "two phases of the traced run", ALL),
    Layer("service.server_ms", "ms", "lower", _SERVED,
          "server.request_seconds{op=search}", SERVED),
    Layer("service.wire_ms", "ms", "lower", _SERVED,
          "client send-to-answer time minus server time", SERVED),
    Layer("service.queue_wait_ms", "ms", "lower", _SERVED,
          "batcher.queue_wait_seconds", SERVED),
    Layer("service.batch_size_mean", "count", "higher", _SERVED,
          "batcher requests over batches", SERVED),
    Layer("service.timer_flush_ratio", "ratio", "lower", _SERVED,
          "batcher timer flushes over batches", SERVED),
    Layer("service.admission_rejected", "count", "lower",
          "error_rate on served-read and served-rw",
          "admission.rejected (whole phase)", SERVED),
    Layer("service.rebuilds_per_write", "ratio", "lower", _RW,
          "pool.engine_rebuilds over updates", ("served-rw",)),
    Layer("service.update_server_ms", "ms", "lower", _RW,
          "server.request_seconds{op=update}", ("served-rw",)),
    Layer("storage.compactor_runs", "count", "lower", _RW,
          "compactor.runs (whole phase)", ("served-rw",)),
    Layer("storage.segments_folded", "count", "lower", _RW,
          "compactor.segments_folded (whole phase)", ("served-rw",)),
    Layer("storage.db_growth_bytes_per_write", "B/B", "lower", _RW,
          "database growth over XML bytes written by updates",
          ("served-rw",)),
    Layer("loadgen.late_ms_p99", "ms", "lower",
          "none: a step is invalid past 2 ms", "send time minus due time",
          SERVED),
)

LAYER_BY_NAME: Dict[str, Layer] = {layer.name: layer for layer in LAYERS}


def layers_for(workload: str) -> Tuple[Layer, ...]:
    """The per-layer metrics a workload measures."""
    return tuple(layer for layer in LAYERS if workload in layer.workloads)


def listed_layers() -> Tuple[Layer, ...]:
    """The per-layer metrics in ``BENCHMARK.json``: those a listed workload
    measures.  The rest would read 0 on every listed workload."""
    return tuple(layer for layer in LAYERS
                 if set(layer.workloads) & set(LISTED))


def end_to_end_for(workload: str) -> Tuple[EndToEnd, ...]:
    """Every end-to-end metric a workload reports."""
    return tuple(metric for metric in END_TO_END
                 if workload in metric.workloads)


def shared_end_to_end() -> Tuple[EndToEnd, ...]:
    return tuple(metric for metric in END_TO_END if metric.shared)
