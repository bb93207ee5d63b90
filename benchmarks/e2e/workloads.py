"""The five workloads: set-up, correctness gates and the timed phase.

Every workload follows the same life cycle, driven by ``runner.py``:

1. ``setup()`` builds the inputs and the system under test (timed, and
   repeated so ``setup_s`` is a median);
2. ``gate()`` checks the system's answers against an independent oracle
   before anything is timed and returns the answers for the pinned digest;
3. ``measure(seconds, tracer)`` runs the timed phase, traced or not;
4. ``finish()`` runs the after-the-run gates and measurements;
5. ``teardown()`` stops whatever ``setup()`` started.

In-process workloads are closed loops of one caller; served workloads are
open-loop timetables against a ``repro.cli serve`` child process.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import SearchEngine
from repro.corpus import CorpusPostingSource, CorpusSearchEngine
from repro.datasets import (
    DBLPConfig,
    XMarkConfig,
    dblp_workload,
    generate_dblp,
    generate_xmark,
    xmark_workload,
)
from repro.lca import naive_elca, naive_slca
from repro.obs import split_series_key
from repro.service.protocol import (
    decode_message,
    encode_message,
    ok_response,
    ranking_payload,
    result_payload,
)
from repro.storage import (
    SegmentedStore,
    SQLitePostingSource,
    SQLiteStore,
    verify_database,
)
from repro.xmltree import parse_string, to_xml_string

from . import inputs, loadgen
from .server import ServerProcess
from .speed import SpeedProbe
from .stats import percentile
from .tracing import TracedSource, Tracer, instrument_engine


class GateFailure(AssertionError):
    """A correctness gate failed; the run reports no metrics."""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    sizes: inputs.Sizes
    seconds: float


@dataclass
class Phase:
    """What one timed phase measured."""

    #: Every read, in the order sent.
    latencies_ms: List[float] = field(default_factory=list)
    #: Each distinct request's read latencies.
    per_request_ms: List[List[float]] = field(default_factory=list)
    #: Closed loops repeat each request once per pass; open loops send the
    #: request mix on a timetable.
    closed: bool = True
    passes: int = 0
    #: What this phase's latencies are multiplied by to give them at the
    #: nominal machine speed (``speed.py``); 1 where no probe ran.
    speed: float = 1.0
    #: Open loops: reads answered per second of the timetable.
    answered_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Workload-specific end-to-end metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced phases only).
    layers: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def typical_ms(self) -> List[float]:
        """Each distinct request's median latency, as measured.

        These are the percentiles' population.  Every workload repeats one
        fixed mix of requests whose latencies spread over an order of
        magnitude with wide gaps between neighbours.  A percentile of the
        pooled reads sits where two requests' samples overlap and takes the
        extremes of their noise; a percentile over one value per request
        moves only as much as the requests do.  The median of a request's
        runs, rather than its fastest, because a request of tens of
        milliseconds rarely runs entirely in a quiet moment of the shared
        machine: its fastest of five to ten runs varied 20 to 30% between
        runs where the median varied 5 to 10%.  For open loops the median
        also keeps the queueing an open loop exists to show.
        """
        return [statistics.median(samples) for samples in self.per_request_ms]

    def read_percentile(self, q: float) -> float:
        return percentile(self.typical_ms(), q) * self.speed

    def raw_percentile(self, q: float) -> float:
        """``read_percentile`` at the speed the machine ran at."""
        return percentile(self.typical_ms(), q)

    def queries_per_s(self) -> float:
        """Closed loops: one pass of the mix at each request's median time."""
        if self.closed:
            return (len(self.per_request_ms) * 1000.0
                    / (sum(self.typical_ms()) * self.speed))
        return self.answered_per_s


# ---------------------------------------------------------------------- #
# Answers: canonical bytes for the gates, fingerprints for the digests
# ---------------------------------------------------------------------- #
def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_fingerprint(result: Any) -> List[Any]:
    """What a search answered, independent of the wire format."""
    return [[str(code) for code in result.lca_nodes],
            [[str(fragment.root), fragment.is_slca,
              [str(code) for code in fragment.kept_nodes],
              [str(code) for code in fragment.fragment.nodes],
              [str(code) for code in fragment.fragment.keyword_nodes]]
             for fragment in result.fragments]]


def corpus_fingerprint(result: Any) -> List[Any]:
    return [[entry.doc_id, result_fingerprint(entry.result)]
            for entry in result.documents]


def ranking_fingerprint(outcome: Any) -> List[Any]:
    return [[entry.doc_id, str(entry.fragment.root), repr(entry.score)]
            for entry in outcome.ranked]


def search_line(result: Any) -> bytes:
    """The exact line the server answers a ``search`` with."""
    return encode_message(ok_response(result=result_payload(result)))


def search_request(query: str) -> Dict[str, object]:
    return {"op": "search", "query": query}


# ---------------------------------------------------------------------- #
# Shared machinery
# ---------------------------------------------------------------------- #
Session = Callable[[Any], ContextManager[Callable[[], Any]]]


def ready(call: Callable[..., Any], *args: Any, **kwargs: Any
          ) -> ContextManager[Callable[[], Any]]:
    """A session that only binds the arguments of ``call``."""
    return contextlib.nullcontext(lambda: call(*args, **kwargs))


#: Closed loops sample the speed probe before every this many requests.
PROBE_EVERY = 10


def closed_loop(requests: Sequence[Any], seconds: float, order_rng: Any,
                session: Session, tracer: Optional[Tracer]) -> Phase:
    """One caller running shuffled passes over ``requests`` until ``seconds``.

    ``session(request)`` is a context manager yielding the call to time;
    what it does around that call (opening a store) is not timed.  Whole
    passes only: a pass that starts before the deadline finishes.  Each
    request is timed by the benchmark's own clock; with a tracer it also
    becomes one traced request.  The speed probe runs between requests,
    untimed, and gives the phase its ``speed``.
    """
    phase = Phase(per_request_ms=[[] for _ in requests])
    probe = SpeedProbe()
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        order = list(range(len(requests)))
        order_rng.shuffle(order)
        for position, index in enumerate(order):
            if position % PROBE_EVERY == 0:
                probe.sample()
            with session(requests[index]) as call:
                sent = clock()
                if tracer is None:
                    call()
                else:
                    with tracer.request(len(phase.latencies_ms)):
                        call()
                elapsed = clock() - sent
            phase.latencies_ms.append(elapsed * 1000.0)
            phase.per_request_ms[index].append(elapsed * 1000.0)
        phase.passes += 1
        if clock() >= deadline:
            break
    phase.attempted = len(phase.latencies_ms)
    phase.speed = probe.factor()
    phase.diagnostics["kernel_ms"] = probe.kernel_ms()
    return phase


#: Span names whose summed self time per read is a ``<name>_ms`` metric.
_TIMED_SPANS = ("text.parse", "storage.postings", "storage.node_prefetch",
                "storage.node_lookup", "lca.roots", "core.search", "core.rtf",
                "core.record_tree", "core.prune", "core.rank",
                "corpus.impacts", "corpus.doc_search", "corpus.driver")

#: The spans inside the pipeline's fragments stage (``getRTF`` + pruning).
_FRAGMENT_SPANS = ("core.rtf", "core.record_tree", "core.prune",
                   "storage.node_prefetch", "storage.node_lookup")

#: Pipeline stages the server times on its batched search path, as its
#: ``query.stage.*`` histograms name them.
SERVED_STAGES = (("lca", "lca.roots_ms"), ("fragments", "core.fragments_ms"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def in_process_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-read layer metrics of an in-process traced phase."""
    requests = len(tracer.requests)
    own = tracer.layer_seconds()
    counts = tracer.counts
    layers = {f"{span}_ms": own.get(span, 0.0) * 1000.0 / requests
              for span in _TIMED_SPANS}
    layers["core.fragments_ms"] = sum(layers[f"{span}_ms"]
                                      for span in _FRAGMENT_SPANS)
    for metric, counter in (("storage.posting_rows", "storage.posting_rows"),
                            ("storage.posting_bytes", "storage.read.bytes"),
                            ("storage.nodes_prefetched",
                             "storage.nodes_prefetched"),
                            ("lca.candidates", "lca.candidates")):
        layers[metric] = counts.get(counter, 0.0) / requests
    hits = counts.get("storage.read.lru_hits", 0.0)
    layers["storage.posting_lru_hit_ratio"] = _ratio(
        hits, hits + counts.get("storage.read.lru_misses", 0.0))
    layers["core.kept_node_ratio"] = _ratio(
        counts.get("core.kept_nodes", 0.0),
        counts.get("core.fragment_nodes", 0.0))
    layers["corpus.docs_visited_ratio"] = _ratio(
        counts.get("corpus.docs_visited", 0.0),
        counts.get("corpus.docs_selected", 0.0))
    unattributed, reconciled = tracer.reconcile()
    layers["trace.other_ms"] = unattributed * 1000.0 / requests
    layers["trace.reconciled_ratio"] = reconciled
    return layers


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process or its reaped children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def db_bytes(path: Path) -> int:
    """A database's size on disk, journal and WAL files included."""
    total = 0
    for suffix in ("", "-journal", "-wal", "-shm"):
        candidate = Path(f"{path}{suffix}")
        if candidate.exists():
            total += candidate.stat().st_size
    return total


class Workload:
    """Base class: see the module docstring for the life cycle."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.set_ups = 0
        self.order_rng = inputs.stream(ctx.seed, inputs.STREAM_ORDER)

    def setup(self) -> None:
        raise NotImplementedError

    def gate(self) -> List[Any]:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        return {}

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def _fresh_db(self) -> Path:
        self.set_ups += 1
        return self.ctx.work / f"{self.name}-{self.set_ups}.db"


# ---------------------------------------------------------------------- #
# paper-mem
# ---------------------------------------------------------------------- #
class PaperMem(Workload):
    """Figure 5 on resident trees: 38 queries x {validrtf, maxmatch}."""

    name = "paper-mem"
    algorithms = ("validrtf", "maxmatch")

    def setup(self) -> None:
        sizes = self.ctx.sizes
        dblp = inputs.arranged(generate_dblp(DBLPConfig(
            publications=sizes.paper_publications,
            keyword_scale=sizes.paper_keyword_scale,
            seed=inputs.CONTENT_SEED)), self.ctx.seed)
        xmark = inputs.arranged(generate_xmark(XMarkConfig(
            scale="data1", base_items=sizes.xmark_base_items,
            seed=inputs.CONTENT_SEED)), self.ctx.seed)
        self.engines = {"dblp": SearchEngine(dblp), "xmark": SearchEngine(xmark)}
        self.workloads = {"dblp": dblp_workload(), "xmark": xmark_workload()}
        self.requests = [(dataset, query.text, algorithm)
                         for dataset, queries in self.workloads.items()
                         for query in queries
                         for algorithm in self.algorithms]
        for dataset, text, algorithm in self.requests:  # warm-up pass
            self.engines[dataset].search(text, algorithm)

    def teardown(self) -> None:
        self.engines = {}

    def gate(self) -> List[Any]:
        """ELCA/SLCA roots equal the naive definitions on the same lists."""
        for dataset, engine in self.engines.items():
            for query in self.workloads[dataset]:
                lists = engine.keyword_nodes(query.text)
                for label, pipeline, oracle in (
                        ("ELCA", "validrtf", naive_elca),
                        ("SLCA", "validrtf-slca", naive_slca)):
                    fast = engine.algorithm(pipeline).lca_function(lists)
                    expected = oracle(lists)
                    if [str(code) for code in fast] != \
                            [str(code) for code in expected]:
                        raise GateFailure(
                            f"{dataset} {query.text!r}: {label} roots "
                            f"{len(fast)} differ from the naive "
                            f"definition's {len(expected)}")
        return [[dataset, text, algorithm, result_fingerprint(
                    self.engines[dataset].search(text, algorithm))]
                for dataset, text, algorithm in self.requests]

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        engines = self.engines
        if tracer is not None:
            engines = {}
            for dataset, engine in self.engines.items():
                traced = SearchEngine(engine.tree,
                                      source=TracedSource(engine.source, tracer))
                instrument_engine(traced, tracer, self.algorithms)
                engines[dataset] = traced

        def session(request: Tuple[str, str, str]
                    ) -> ContextManager[Callable[[], Any]]:
            dataset, text, algorithm = request
            if tracer is None:
                return ready(engines[dataset].search, text, algorithm)
            return ready(tracer.call, "core.search", engines[dataset].search,
                         text, algorithm)

        phase = closed_loop(self.requests, seconds, self.order_rng, session,
                            tracer)
        if tracer is not None:
            phase.layers = in_process_layers(tracer)
        return phase


# ---------------------------------------------------------------------- #
# disk-cold
# ---------------------------------------------------------------------- #
class DiskCold(Workload):
    """Tree-free sqlite retrieval with program caches cold on every query.

    Each query gets a freshly opened store, posting source and engine, so
    its cost does not depend on which queries ran before it.  (With one
    engine per pass, the node LRU carried whatever the shuffled order had
    left in it, and passes of the same 20 queries within one run took from
    11 to 100 ms per query.)
    """

    name = "disk-cold"
    document = "dblp"

    def setup(self) -> None:
        sizes = self.ctx.sizes
        self.tree = inputs.arranged(generate_dblp(DBLPConfig(
            publications=sizes.disk_publications,
            keyword_scale=sizes.disk_keyword_scale,
            seed=inputs.CONTENT_SEED)), self.ctx.seed)
        self.xml_bytes = len(to_xml_string(self.tree).encode("utf-8"))
        self.db = self._fresh_db()
        store = SQLiteStore(self.db)
        try:
            store.store_tree(self.tree, self.document)
        finally:
            store.close()
        self.queries = [query.text for query in dblp_workload()]
        # One query pays the process's one-time costs.  No more: the shred
        # left the file in the OS page cache, and program caches are cold on
        # every query by design.
        with self._cold(self.queries[0], None) as call:
            call()

    @contextlib.contextmanager
    def _cold(self, query: str, tracer: Optional[Tracer]
              ) -> Iterator[Callable[[], Any]]:
        """A fresh store, posting source and engine: what a restart sees."""
        store = SQLiteStore(self.db)
        try:
            source = SQLitePostingSource(store, self.document)
            if tracer is None:
                engine = SearchEngine(source=source)
                yield lambda: engine.search(query, "validrtf")
            else:
                traced = SearchEngine(source=TracedSource(source, tracer))
                instrument_engine(traced, tracer, ("validrtf",))
                yield lambda: tracer.call("core.search", traced.search, query,
                                          "validrtf")
        finally:
            store.close()

    def gate(self) -> List[Any]:
        """Disk answers equal a memory engine's over the same tree."""
        memory = SearchEngine(self.tree)
        answers = []
        for query in self.queries:
            with self._cold(query, None) as call:
                disk = call()
            expected = memory.search(query, "validrtf")
            if canonical(result_payload(disk)) != \
                    canonical(result_payload(expected)):
                raise GateFailure(f"{query!r}: the sqlite engine's answer "
                                  f"differs from the memory engine's")
            answers.append([query, result_fingerprint(disk)])
        return answers

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = closed_loop(self.queries, seconds, self.order_rng,
                            lambda query: self._cold(query, tracer), tracer)
        if tracer is not None:
            phase.layers = in_process_layers(tracer)
        return phase

    def finish(self) -> Dict[str, float]:
        return {"db_bytes_per_xml_byte": db_bytes(self.db) / self.xml_bytes}


# ---------------------------------------------------------------------- #
# rank-topk
# ---------------------------------------------------------------------- #
class RankTopk(Workload):
    """Early-terminated top-k over a partitioned in-memory corpus."""

    name = "rank-topk"
    top_k = 10

    def setup(self) -> None:
        sizes = self.ctx.sizes
        documents, _ = inputs.partitioned_dblp(
            sizes.rank_documents, sizes.rank_publications, self.ctx.seed)
        self.trees = {name: inputs.build_document(name, records)
                      for name, records in documents.items()}
        self.engine = CorpusSearchEngine.from_trees(self.trees)
        self.queries = [query.text for query in dblp_workload()]
        for query in self.queries:  # warm-up pass
            self.engine.rank_search(query, top_k=self.top_k,
                                    early_terminate=True)

    def teardown(self) -> None:
        self.engine = None
        self.trees = {}

    def gate(self) -> List[Any]:
        """Early termination returns exactly the exhaustive ranking."""
        answers = []
        for query in self.queries:
            exhaustive = self.engine.rank_search(query, top_k=self.top_k)
            early = self.engine.rank_search(query, top_k=self.top_k,
                                            early_terminate=True)
            if canonical(ranking_payload(exhaustive.ranked)) != \
                    canonical(ranking_payload(early.ranked)):
                raise GateFailure(f"{query!r}: early-terminated top-"
                                  f"{self.top_k} differs from the exhaustive "
                                  f"ranking")
            answers.append([query, ranking_fingerprint(early)])
        return answers

    def _traced_engine(self, tracer: Tracer) -> CorpusSearchEngine:
        source = CorpusPostingSource({
            name: TracedSource(self.engine.source.document_source(name), tracer)
            for name in self.engine.doc_ids})
        engine = CorpusSearchEngine(source, trees=self.trees)
        for name in engine.doc_ids:
            document = engine.document_engine(name)
            instrument_engine(document, tracer, ("validrtf",))
            document.search = tracer.wrap("corpus.doc_search",
                                          document.search)
        return engine

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        if tracer is None:
            engine = self.engine

            def run(query: str) -> Any:
                return engine.rank_search(query, top_k=self.top_k,
                                          early_terminate=True)
        else:
            engine = self._traced_engine(tracer)

            def run(query: str) -> Any:
                outcome = tracer.call("corpus.driver", engine.rank_search,
                                      query, top_k=self.top_k,
                                      early_terminate=True)
                tracer.count("corpus.docs_visited", outcome.docs_visited)
                tracer.count("corpus.docs_selected", outcome.docs_selected)
                return outcome

        phase = closed_loop(self.queries, seconds, self.order_rng,
                            lambda query: ready(run, query), tracer)
        if tracer is not None:
            phase.layers = in_process_layers(tracer)
        return phase


# ---------------------------------------------------------------------- #
# Served workloads
# ---------------------------------------------------------------------- #
def server_stats(address: Tuple[str, int]) -> Dict[str, Any]:
    return decode_message(loadgen.call(address, [{"op": "stats"}])[0])


def _series(snapshot: Dict[str, Any], kind: str, name: str,
            label: Optional[str]) -> Iterator[Any]:
    for key, value in snapshot["metrics"][kind].items():
        metric, labels = split_series_key(key)
        if metric == name and (label is None or label in labels):
            yield value


def counter_delta(before: Dict[str, Any], after: Dict[str, Any], name: str,
                  label: Optional[str] = None) -> float:
    return (sum(_series(after, "counters", name, label))
            - sum(_series(before, "counters", name, label)))


def histogram_delta(before: Dict[str, Any], after: Dict[str, Any], name: str,
                    label: Optional[str] = None) -> Tuple[float, float]:
    """``(count, sum)`` observed between two ``stats`` snapshots."""
    def totals(snapshot: Dict[str, Any]) -> Tuple[float, float]:
        series = list(_series(snapshot, "histograms", name, label))
        return (sum(entry["count"] for entry in series),
                sum(entry["sum"] for entry in series))
    count_after, sum_after = totals(after)
    count_before, sum_before = totals(before)
    return count_after - count_before, sum_after - sum_before


def _mean_ms(count_and_sum: Tuple[float, float]) -> float:
    count, total = count_and_sum
    return total / count * 1000.0 if count else 0.0


def served_layers(before: Dict[str, Any], after: Dict[str, Any],
                  step: loadgen.Step) -> Dict[str, float]:
    """Per-read serving-layer metrics from two ``stats`` snapshots."""
    reads = [sample for sample in step.of_kind("read") if sample.ok]
    count = len(reads) or 1
    server_ms = _mean_ms(histogram_delta(before, after,
                                         "server.request_seconds",
                                         'op="search"'))
    client_ms = (statistics.fmean(sample.service for sample in reads) * 1000.0
                 if reads else 0.0)
    batches = counter_delta(before, after, "batcher.batches")
    layers = {
        "service.server_ms": server_ms,
        "service.wire_ms": client_ms - server_ms,
        "service.queue_wait_ms": _mean_ms(histogram_delta(
            before, after, "batcher.queue_wait_seconds")),
        "service.batch_size_mean": _ratio(
            counter_delta(before, after, "batcher.requests"), batches),
        "service.timer_flush_ratio": _ratio(
            counter_delta(before, after, "batcher.timer_flushes"), batches),
        "service.admission_rejected": counter_delta(before, after,
                                                    "admission.rejected"),
        "lca.candidates": counter_delta(before, after,
                                        "query.lca.candidates") / count,
        "loadgen.late_ms_p99": percentile(
            [sample.lateness * 1000.0 for sample in step.samples], 99),
    }
    for stage, metric in SERVED_STAGES:
        _, total = histogram_delta(before, after,
                                   f"query.stage.{stage}_seconds")
        layers[metric] = total * 1000.0 / count
    return layers


def record_client_spans(tracer: Tracer, step: loadgen.Step) -> None:
    """Each request of a step as one client span, scheduled to answered."""
    for sample in step.samples:
        tracer.record(f"client.{sample.kind}", sample.scheduled,
                      sample.done if sample.answered else sample.scheduled)


class Served(Workload):
    """A partitioned DBLP corpus served by ``repro.cli serve --backend corpus``."""

    server_args: Tuple[str, ...] = ()
    warm_up_rounds = 2

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.server: Optional[ServerProcess] = None

    def setup(self) -> None:
        sizes = self.ctx.sizes
        self.documents, self.spares = inputs.partitioned_dblp(
            sizes.served_documents, sizes.served_publications, self.ctx.seed,
            spare=sizes.spare_publications)
        self.xml = {name: inputs.document_xml(name, records)
                    for name, records in self.documents.items()}
        self.prepare_inputs()
        self.db = self._fresh_db()
        store = SegmentedStore(self.db)
        try:
            for name in sorted(self.xml):
                store.store_tree(parse_string(self.xml[name], name), name)
        finally:
            store.close()
        self.server = ServerProcess(self.ctx.root, self.db, self.ctx.work,
                                    self.server_args)
        self.address = self.server.start()
        self.queries = [query.text for query in dblp_workload()]
        loadgen.call(self.address, [search_request(query)
                                    for _ in range(self.warm_up_rounds)
                                    for query in self.queries])

    def prepare_inputs(self) -> None:
        """Extra seeded inputs a subclass needs (built during set-up)."""

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        # The servers are reaped children of this process by now.
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def wire_parity(self, oracle: CorpusSearchEngine) -> List[Any]:
        """Served answers equal ``oracle``'s, byte for byte."""
        lines = loadgen.call(self.address, [search_request(query)
                                            for query in self.queries])
        answers = []
        for query, line in zip(self.queries, lines):
            expected = oracle.search(query)
            if line != search_line(expected):
                raise GateFailure(f"{query!r}: the served answer differs "
                                  f"from the in-process engine's")
            answers.append([query, corpus_fingerprint(expected)])
        return answers

    def gate(self) -> List[Any]:
        store = SegmentedStore(self.db)
        try:
            return self.wire_parity(CorpusSearchEngine.from_store(store))
        finally:
            store.close()

    def read_payloads(self) -> List[bytes]:
        order = list(self.queries)
        self.order_rng.shuffle(order)
        return [encode_message(search_request(query)) for query in order]

    def run_step(self, items: Sequence[loadgen.Item], seconds: float,
                 tracer: Optional[Tracer]
                 ) -> Tuple[loadgen.Step, Dict[str, Any], Dict[str, Any]]:
        """One timetable, bracketed by ``stats`` snapshots when traced."""
        before = server_stats(self.address) if tracer is not None else {}
        step = loadgen.run(loadgen.run_timetable(self.address, items, seconds))
        after = server_stats(self.address) if tracer is not None else {}
        if tracer is not None:
            record_client_spans(tracer, step)
        return step, before, after


def answered_reads(items: Sequence[loadgen.Item], step: loadgen.Step
                   ) -> Tuple[List[float], List[List[float]]]:
    """Latencies (ms) of the answered reads: in send order, and per request."""
    latencies: List[float] = []
    by_request: Dict[bytes, List[float]] = {}
    for item, sample in zip(items, step.samples):
        if sample.kind == "read" and sample.ok:
            latency = sample.latency * 1000.0
            latencies.append(latency)
            by_request.setdefault(item.payload, []).append(latency)
    return latencies, list(by_request.values())


def answered_span(step: loadgen.Step) -> float:
    """Seconds from the first due time to the last answer of a step."""
    answered = [sample.done for sample in step.samples if sample.answered]
    first = min(sample.scheduled for sample in step.samples)
    return max(answered) - first if answered else step.duration


def step_summary(step: loadgen.Step) -> Dict[str, Any]:
    reads = [sample.latency * 1000.0 for sample in step.of_kind("read")
             if sample.ok]
    summary: Dict[str, Any] = {
        "reads": len(reads),
        "failed": sum(1 for sample in step.samples if not sample.ok),
        "outstanding_at_end": step.outstanding,
        "late_ms_p99": percentile(
            [sample.lateness * 1000.0 for sample in step.samples], 99),
    }
    if reads:
        summary.update(p50_ms=percentile(reads, 50), p90_ms=percentile(reads, 90),
                       p99_ms=percentile(reads, 99), max_ms=max(reads))
    return summary


class ServedRead(Served):
    """Open-loop search at a fixed ladder of offered rates.

    The server runs with its default per-worker result cache, which holds
    the paper's 20 queries after warm-up: every read is a cache hit, so this
    workload measures the serving path around the engine.  (With
    ``--cache-size 0`` the server spent about 12 ms per read and fell
    behind at 200 req/s.)  served-rw runs without the cache, so every one
    of its reads runs the engine.
    """

    name = "served-read"
    #: Offered rates (req/s) and each step's share of the measured seconds.
    #: The 200 req/s step gives the workload's p50/p90, so it runs longest.
    ladder = ((100, 0.2), (200, 0.4), (300, 0.2), (400, 0.2))
    measured_rate = 200
    slo_p90_ms = 20.0
    max_outstanding = 2
    max_late_ms = 2.0

    def meets_slo(self, summary: Dict[str, Any]) -> bool:
        return (summary["failed"] == 0 and summary["reads"] > 0
                and summary["p90_ms"] <= self.slo_p90_ms
                and max(summary["outstanding_at_end"]) <= self.max_outstanding)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        phase = Phase(closed=False)
        answered = 0
        elapsed = 0.0
        max_rate = 0
        steps = {}
        for rate, share in self.ladder:
            step_seconds = seconds * share
            items = loadgen.timetable(rate, step_seconds, self.read_payloads())
            step, before, after = self.run_step(items, step_seconds, tracer)
            summary = step_summary(step)
            summary["valid"] = summary["late_ms_p99"] <= self.max_late_ms
            steps[rate] = summary
            answered += summary["reads"]
            elapsed += answered_span(step)
            phase.attempted += len(step.samples)
            phase.failed += summary["failed"]
            if summary["valid"] and self.meets_slo(summary):
                max_rate = rate
            if rate == self.measured_rate:
                phase.latencies_ms, phase.per_request_ms = answered_reads(
                    items, step)
                if tracer is not None:
                    phase.layers = served_layers(before, after, step)
        phase.answered_per_s = answered / elapsed
        phase.extra["max_rate_rps"] = float(max_rate)
        phase.diagnostics["steps"] = steps
        return phase


class ServedRW(Served):
    """Reads at a fixed rate beside seeded document updates."""

    name = "served-rw"
    # Without the result cache every read runs the engine.  With it, each
    # write turned the next ~40 reads into misses (20 queries x 2 workers),
    # so reads were a mix of 4 ms hits and 10-40 ms misses whose median
    # flipped between the two from run to run (interquartile range 0.2 of
    # the median over eight runs, against 0.07 without the cache).
    server_args = ("--compact-segments", "8", "--cache-size", "0")
    # Reads and updates each get a connection, so no read waits behind an
    # update on the client side.  At 100 reads/s beside 4 updates/s this
    # server falls behind for good (post-update cold reads and sqlite lock
    # waits); at 50 reads/s without the cache queueing doubles the spread of
    # the median.  These rates keep the server about a third busy.
    read_rate = 25
    write_rate = 1
    read_connection = 1
    write_connection = 0

    def prepare_inputs(self) -> None:
        count = math.ceil(self.write_rate * self.ctx.seconds) + 1
        self.updates = inputs.update_schedule(self.documents, self.spares,
                                              count, self.ctx.seed)
        self.next_update = 0
        self.applied: List[Tuple[Tuple[str, str], loadgen.Sample]] = []

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        reads = loadgen.timetable(self.read_rate, seconds, self.read_payloads(),
                                  connection=self.read_connection)
        count = max(1, round(self.write_rate * seconds))
        batch = self.updates[self.next_update:self.next_update + count]
        self.next_update += len(batch)
        # Updates share one connection, whose answers come back in order, so
        # they apply in schedule order and the final state is known.
        writes = [loadgen.Item((index + 0.5) * seconds / count,
                               encode_message({"op": "update", "doc": name,
                                               "xml": xml}),
                               "write", connection=self.write_connection)
                  for index, (name, xml) in enumerate(batch)]
        size_before = db_bytes(self.db)
        items = loadgen.merge_timetables(reads, writes)
        step, before, after = self.run_step(items, seconds, tracer)
        size_after = db_bytes(self.db)
        write_samples = step.of_kind("write")
        self.applied.extend(zip(batch, write_samples))

        phase = Phase(closed=False)
        phase.latencies_ms, phase.per_request_ms = answered_reads(items, step)
        phase.answered_per_s = len(phase.latencies_ms) / answered_span(step)
        phase.attempted = len(step.samples)
        phase.failed = sum(1 for sample in step.samples if not sample.ok)
        written = [sample for sample in write_samples if sample.ok]
        if written:
            phase.extra["update_p50_ms"] = percentile(
                [sample.latency * 1000.0 for sample in written], 50)
        phase.diagnostics["step"] = step_summary(step)
        phase.diagnostics["updates"] = len(written)
        if tracer is not None:
            layers = served_layers(before, after, step)
            xml_written = sum(len(xml.encode("utf-8"))
                              for (_, xml), sample in zip(batch, write_samples)
                              if sample.ok)
            layers.update({
                "service.rebuilds_per_write": _ratio(
                    counter_delta(before, after, "pool.engine_rebuilds"),
                    len(written)),
                "service.update_server_ms": _mean_ms(histogram_delta(
                    before, after, "server.request_seconds", 'op="update"')),
                "storage.compactor_runs": counter_delta(before, after,
                                                        "compactor.runs"),
                "storage.segments_folded": counter_delta(
                    before, after, "compactor.segments_folded"),
                "storage.db_growth_bytes_per_write": _ratio(
                    size_after - size_before, xml_written),
            })
            phase.layers = layers
        return phase

    def finish(self) -> Dict[str, float]:
        """The update oracle: answers equal a fresh shred of the final set."""
        final = dict(self.xml)
        for (name, xml), sample in self.applied:
            if sample.ok:
                final[name] = xml
            elif not sample.answered:
                raise GateFailure(f"an update of {name!r} was never answered; "
                                  f"the final document set is unknown")
        oracle = SegmentedStore(self.ctx.work / f"{self.name}-oracle.db")
        try:
            for name in sorted(final):
                oracle.store_tree(parse_string(final[name], name), name)
            self.wire_parity(CorpusSearchEngine.from_store(oracle))
        finally:
            oracle.close()
        self.teardown()
        report = verify_database(self.db)
        if not report.clean:
            raise GateFailure(f"verify_database: {report.render()}")
        xml_bytes = sum(len(xml.encode("utf-8")) for xml in final.values())
        return {"db_bytes_per_xml_byte": db_bytes(self.db) / xml_bytes}


WORKLOADS = {workload.name: workload
             for workload in (PaperMem, DiskCold, RankTopk, ServedRead, ServedRW)}
