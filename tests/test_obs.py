"""Observability unit tests: registry, merge, histograms, spans, tracing.

Three layers under test:

* the :mod:`repro.obs` primitives themselves (catalogue-validated series,
  fixed-bucket histograms, snapshot/merge semantics, Prometheus text);
* the trace span tree (nesting, timing accounting, rendering);
* the pipeline instrumentation — a traced search must produce one span
  per stage on every algorithm and every backend, and an attached registry
  must fill the stage counters without changing any answer.
"""

from __future__ import annotations

import pytest

from repro.core import ALGORITHM_NAMES, Query, SearchEngine
from repro.corpus import CorpusPostingSource, CorpusSearchEngine
from repro.datasets import PAPER_QUERIES
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    Trace,
    empty_snapshot,
    merge_snapshots,
    render_prometheus,
    render_trace,
    split_series_key,
)
from repro.obs import names as metric_names
from repro.storage import DocumentNotFound, SQLitePostingSource, SQLiteStore
from repro.service import EnginePool
from test_service_unit import queued_batch

#: The four posting backends the traced-search matrix runs over.
TRACE_BACKENDS = ("memory", "sqlite", "corpus", "segmented")


def build_engine(tree, backend: str, name: str = "doc"):
    """A one-document corpus engine, the engine the CLI and service hold."""
    if backend in ("memory", "corpus"):
        return CorpusSearchEngine.from_trees({name: tree})
    if backend == "sqlite":
        store = SQLiteStore()
        store.store_tree(tree, name)
        source = SQLitePostingSource(store, name)
    elif backend == "segmented":
        store = SQLiteStore()
        store.store_tree(tree, name)
        store.update_document(tree, name)  # shadow: force the segment path
        source = SQLitePostingSource(store, name)
    else:
        raise ValueError(backend)
    return CorpusSearchEngine(CorpusPostingSource({name: source}))


# ---------------------------------------------------------------------- #
# Registry primitives
# ---------------------------------------------------------------------- #
def test_counter_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter(metric_names.QUERY_COUNT)
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = registry.gauge(metric_names.ADMISSION_INFLIGHT)
    gauge.set(3)
    gauge.set_max(2)        # lower: ignored
    assert gauge.value == 3
    gauge.set_max(7)
    assert gauge.value == 7


def test_unregistered_metric_name_raises():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="unregistered metric name"):
        registry.counter("free.string")
    assert "free.string" not in metric_names.CATALOGUE


def test_series_are_cached_and_label_keys_sorted():
    registry = MetricsRegistry()
    labels = {"op": "search"}
    a = registry.counter(metric_names.SERVER_REQUESTS, labels)
    b = registry.counter(metric_names.SERVER_REQUESTS, {"op": "search"})
    assert a is b
    a.inc()
    key, = registry.snapshot()["counters"]
    assert key == 'server.requests{op="search"}'
    assert split_series_key(key) == ("server.requests", 'op="search"')
    assert split_series_key("query.count") == ("query.count", "")


def test_histogram_bucketing():
    registry = MetricsRegistry()
    histogram = registry.histogram(metric_names.BATCHER_BATCH_SIZE,
                                   buckets=DEFAULT_COUNT_BUCKETS)
    # Bounds are inclusive: 1 -> first bucket, 2 -> second; 1000 overflows.
    for value in (1, 2, 2, 5, 1000):
        histogram.observe(value)
    assert histogram.count == 5
    assert histogram.sum == 1010
    assert histogram.max == 1000
    series = registry.snapshot()["histograms"][metric_names.BATCHER_BATCH_SIZE]
    assert series["buckets"] == list(DEFAULT_COUNT_BUCKETS)
    # counts: per-bucket (not cumulative) + trailing overflow slot
    assert series["counts"] == [1, 2, 0, 1, 0, 0, 0, 0, 1]
    assert sum(series["counts"]) == series["count"] == 5


def test_histogram_rejects_unsorted_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="sorted"):
        registry.histogram(metric_names.QUERY_SECONDS, {"algorithm": "x"},
                           buckets=(2.0, 1.0))


# ---------------------------------------------------------------------- #
# Snapshot merge semantics
# ---------------------------------------------------------------------- #
def _worker_snapshot(queries: int, inflight: float, observations):
    registry = MetricsRegistry()
    registry.counter(metric_names.QUERY_COUNT).inc(queries)
    registry.gauge(metric_names.ADMISSION_INFLIGHT).set(inflight)
    histogram = registry.histogram(metric_names.QUERY_SECONDS)
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()


def test_merge_adds_counters_and_histograms_and_maxes_gauges():
    merged = merge_snapshots([
        _worker_snapshot(3, 2.0, [0.001, 0.5]),
        _worker_snapshot(4, 5.0, [0.002]),
    ])
    assert merged["counters"][metric_names.QUERY_COUNT] == 7
    assert merged["gauges"][metric_names.ADMISSION_INFLIGHT] == 5.0
    series = merged["histograms"][metric_names.QUERY_SECONDS]
    assert series["count"] == 3
    assert series["sum"] == pytest.approx(0.503)
    assert series["max"] == 0.5
    assert sum(series["counts"]) == 3


def test_merge_of_nothing_is_empty_and_mismatched_buckets_raise():
    assert merge_snapshots([]) == empty_snapshot()
    a = MetricsRegistry()
    a.histogram(metric_names.QUERY_SECONDS).observe(0.1)
    b = MetricsRegistry()
    b.histogram(metric_names.QUERY_SECONDS,
                buckets=DEFAULT_COUNT_BUCKETS).observe(0.1)
    with pytest.raises(ValueError, match="bucket"):
        merge_snapshots([a.snapshot(), b.snapshot()])


def test_render_prometheus_shapes():
    registry = MetricsRegistry()
    registry.counter(metric_names.QUERY_COUNT,
                     {"algorithm": "validrtf"}).inc(2)
    registry.gauge(metric_names.ADMISSION_INFLIGHT).set(1)
    histogram = registry.histogram(metric_names.BATCHER_BATCH_SIZE,
                                   buckets=(1.0, 2.0))
    for value in (1, 2, 9):
        histogram.observe(value)
    text = render_prometheus(registry.snapshot())
    assert '# TYPE repro_query_count_total counter' in text
    assert 'repro_query_count_total{algorithm="validrtf"} 2' in text
    assert 'repro_admission_inflight 1' in text
    # Buckets are cumulative and capped by the +Inf bucket == count.
    assert 'repro_batcher_batch_size_bucket{le="1"} 1' in text
    assert 'repro_batcher_batch_size_bucket{le="2"} 2' in text
    assert 'repro_batcher_batch_size_bucket{le="+Inf"} 3' in text
    assert 'repro_batcher_batch_size_count 3' in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------- #
# Trace spans
# ---------------------------------------------------------------------- #
def test_span_nesting_and_accounting():
    trace = Trace("query")
    with trace.span("outer", backend="memory") as outer:
        with trace.span("inner") as inner:
            inner.note(rows=3)
        trace.record("measured", outer.started, outer.started + 0.001,
                     keywords=2)
    trace.finish()
    root = trace.root
    assert [child.name for child in root.children] == ["outer"]
    assert [child.name for child in root.children[0].children] == \
        ["inner", "measured"]
    assert root.children[0].notes == {"backend": "memory"}
    assert root.children[0].children[1].notes == {"keywords": 2}
    # Children are contained in the root interval, so they can't sum past it.
    assert root.child_seconds <= root.seconds + 1e-9
    payload = trace.to_dict()
    assert payload["name"] == "query"
    assert payload["children"][0]["children"][0]["notes"] == {"rows": 3}


def test_render_trace_prints_every_span_and_self_time():
    trace = Trace("query")
    with trace.span("stage", rows=7):
        pass
    rendered = render_trace(trace)
    assert "query" in rendered and "stage" in rendered
    assert "rows=7" in rendered
    assert "unaccounted" in rendered
    assert "ms" in rendered


# ---------------------------------------------------------------------- #
# Traced search: algorithms x backends
# ---------------------------------------------------------------------- #
PIPELINE_STAGES = ("tokenize", "postings", "lca", "fragments")


def _stage_spans(trace: Trace):
    """All pipeline-stage spans, wherever they nest (corpus adds doc spans)."""
    found = []

    def walk(span):
        if span.name in PIPELINE_STAGES:
            found.append(span)
        for child in span.children:
            walk(child)

    walk(trace.root)
    return found


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_search_traced_covers_every_stage(publications, algorithm, backend):
    engine = build_engine(publications, backend, "publications")
    query = PAPER_QUERIES["Q2"]
    plain = engine.search(query, algorithm)
    result, trace = engine.search_traced(query, algorithm)
    # Tracing never changes the answer.
    assert [f.kept_nodes for f in result] == [f.kept_nodes for f in plain]
    spans = _stage_spans(trace)
    assert [span.name for span in spans] == list(PIPELINE_STAGES)
    # Stage intervals (plus per-document overhead) stay inside the root.
    assert trace.root.seconds > 0
    assert sum(span.seconds for span in spans) <= trace.root.seconds + 1e-9
    lca_span = spans[2]
    assert lca_span.notes["algorithm"] == algorithm
    assert lca_span.notes["candidates"] >= 1


@pytest.mark.parametrize("backend", TRACE_BACKENDS)
def test_set_metrics_fills_stage_series(publications, backend):
    engine = build_engine(publications, backend, "publications")
    registry = MetricsRegistry()
    engine.set_metrics(registry)
    for algorithm in ALGORITHM_NAMES:
        engine.search(PAPER_QUERIES["Q2"], algorithm)
    counters = registry.snapshot()["counters"]
    histograms = registry.snapshot()["histograms"]
    for algorithm in ALGORITHM_NAMES:
        key = f'query.count{{algorithm="{algorithm}"}}'
        assert counters[key] == 1
        assert histograms[f'query.seconds{{algorithm="{algorithm}"}}'][
            "count"] == 1
    assert counters[metric_names.POSTING_ROWS] > 0
    assert counters[metric_names.LCA_CANDIDATES] >= len(ALGORITHM_NAMES)
    assert histograms[metric_names.STAGE_TOKENIZE_SECONDS]["count"] == \
        len(ALGORITHM_NAMES)
    if backend == "segmented":
        # The shadowing update forces reads through the delta segment.
        assert counters[metric_names.SEGMENT_READS] > 0


def storage_and_corpus_counters(snapshot: dict) -> dict:
    """The posting, segment and corpus counters of one metrics snapshot."""
    return {key: value for key, value in snapshot["counters"].items()
            if key.startswith(("posting.", "segment.", "corpus."))}


@pytest.mark.parametrize("corpus", ("memory", "database"))
def test_batched_search_records_what_search_records(publications, corpus):
    """A batch of the batcher — the path every unfiltered served search
    takes — records the posting, segment and corpus counters its searches
    record on a direct engine: each query fetches its own postings, a
    query repeated in the batch too, with no fetch shared."""
    lead, queries = PAPER_QUERIES["Q2"], [PAPER_QUERIES["Q1"],
                                          PAPER_QUERIES["Q2"]]
    backend = "memory" if corpus == "memory" else "sqlite"
    with EnginePool.for_backend(backend, tree=publications, workers=1,
                                cache_size=0) as pool:
        queued_batch(pool, queries, lead=lead)
        served = storage_and_corpus_counters(pool.metrics_snapshot())

    registry = MetricsRegistry()
    if corpus == "memory":
        direct = CorpusSearchEngine.from_trees({"service": publications},
                                               metrics=registry)
    else:
        store = SQLiteStore()
        store.store_tree(publications, "service")
        direct = CorpusSearchEngine.from_store(store, metrics=registry)
    for query in [lead] + queries:
        direct.search(query)
    expected = storage_and_corpus_counters(registry.snapshot())
    assert served == expected
    assert expected[metric_names.POSTING_KEYWORDS] == sum(
        len(Query.parse(query).keywords) for query in [lead] + queries)
    assert expected[metric_names.CORPUS_DOCS_SEARCHED] == 3
    if corpus == "database":
        assert expected[metric_names.POSTING_BYTES] > 0
        assert expected[metric_names.SEGMENT_BASE_READS] > 0


def test_search_counters_ignore_other_lookups_of_the_store(publications,
                                                          team):
    """A search records its own source's reads: another request's
    lookup of a tombstoned name on the shared store, landing inside the
    search's posting fetch (as a concurrent ``delete_doc`` does), changes
    none of the search's counters."""
    store = SQLiteStore()
    store.store_tree(publications, "pub")
    store.store_tree(team, "team")
    store.delete_document("team")
    with pytest.raises(DocumentNotFound):
        store.delete_document("team")

    def counters(interleave: bool) -> dict:
        registry = MetricsRegistry()
        engine = CorpusSearchEngine.from_store(store, metrics=registry)
        source = engine.source.document_source("pub")
        fetch = source.keyword_nodes

        def keyword_nodes(query):
            if interleave:
                store.location_of("team")
            return fetch(query)

        source.keyword_nodes = keyword_nodes
        engine.search(PAPER_QUERIES["Q1"])
        return storage_and_corpus_counters(registry.snapshot())

    alone = counters(interleave=False)
    assert alone[metric_names.POSTING_ROWS] > 0
    assert counters(interleave=True) == alone
    store.close()


def test_set_metrics_none_detaches(publications):
    engine = SearchEngine(publications)
    registry = MetricsRegistry()
    engine.set_metrics(registry)
    engine.search(PAPER_QUERIES["Q1"])
    before = registry.snapshot()
    engine.set_metrics(None)
    engine.search(PAPER_QUERIES["Q1"])
    assert registry.snapshot() == before


def test_compare_traced_nests_per_algorithm(publications):
    engine = build_engine(publications, "memory", "publications")
    outcome, trace = engine.compare_traced(PAPER_QUERIES["Q2"])
    [doc_span] = trace.root.children
    assert doc_span.notes["doc"] == "publications"
    names = [span.name for span in doc_span.children]
    assert names == ["validrtf", "maxmatch", "effectiveness"]
    [(_, document_outcome)] = outcome.documents
    assert document_outcome.report.lca_count >= 1
    rendered = render_trace(trace)
    for name in names:
        assert name in rendered


def test_corpus_trace_has_per_document_spans(publications, team):
    engine = CorpusSearchEngine.from_trees(
        {"publications": publications, "team": team})
    registry = MetricsRegistry()
    engine.set_metrics(registry)
    result, trace = engine.search_traced("xml")
    doc_spans = [span for span in trace.root.children if span.name == "doc"]
    assert {span.notes["doc"] for span in doc_spans} == \
        {"publications", "team"}
    for span in doc_spans:
        assert [child.name for child in span.children] == \
            list(PIPELINE_STAGES)
    counters = registry.snapshot()["counters"]
    assert counters[metric_names.CORPUS_DOCS_SEARCHED] == 2
    assert set(result.doc_ids) <= {"publications", "team"}
