"""The metric-name catalogue — every metric the registry may carry.

One module owns every metric name so dashboards, the Prometheus exposition
and the lint gate all agree on the vocabulary.  Call sites must reference
these constants (``registry.counter(names.QUERY_COUNT)``); the
``metrics-discipline`` rule in :mod:`repro.analysis` rejects free-string
metric names anywhere under ``src/``.

Naming convention: ``<layer>.<thing>[_unit]``, dot-separated.  Units are
spelled out (``_seconds``, ``_bytes``, ``_rows``) so the Prometheus
rendering (dots become underscores) reads like conventional exporter
output.
"""

from __future__ import annotations

# --------------------------------------------------------------------- #
# Query pipeline (per-engine registries, merged across pool workers)
# --------------------------------------------------------------------- #
QUERY_COUNT = "query.count"
QUERY_SECONDS = "query.seconds"
STAGE_TOKENIZE_SECONDS = "query.stage.tokenize_seconds"
STAGE_POSTINGS_SECONDS = "query.stage.postings_seconds"
STAGE_LCA_SECONDS = "query.stage.lca_seconds"
STAGE_FRAGMENTS_SECONDS = "query.stage.fragments_seconds"
LCA_CANDIDATES = "query.lca.candidates"
QUERY_FRAGMENTS = "query.fragments"

# Result cache (the engine-level LRU over complete SearchResults).
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"

# --------------------------------------------------------------------- #
# Posting retrieval (stage 1, per-keyword accounting)
# --------------------------------------------------------------------- #
POSTING_KEYWORDS = "posting.keywords"
POSTING_ROWS = "posting.rows"
POSTING_BYTES = "posting.bytes"
POSTING_LRU_HITS = "posting.lru.hits"
POSTING_LRU_MISSES = "posting.lru.misses"
POSTING_PACKED_FETCHES = "posting.decode.packed_fetches"

# Disk posting sources: the generation each fetched keyword was read from
# (a delta segment, or the base tables).
SEGMENT_READS = "segment.reads"
SEGMENT_BASE_READS = "segment.base_reads"

# --------------------------------------------------------------------- #
# Corpus layer (doc-partitioned dispatch)
# --------------------------------------------------------------------- #
CORPUS_DOCS_SEARCHED = "corpus.docs_searched"
CORPUS_DOCS_MATCHED = "corpus.docs_matched"

# Ranked top-k retrieval (threshold-algorithm driver): how many documents
# the driver actually searched vs provably skipped via score upper bounds.
CORPUS_RANK_DOCS_VISITED = "corpus.rank.docs_visited"
CORPUS_RANK_DOCS_SKIPPED = "corpus.rank.docs_skipped"

# --------------------------------------------------------------------- #
# Serving layer (service-level registry)
# --------------------------------------------------------------------- #
SERVER_REQUESTS = "server.requests"
SERVER_ERRORS = "server.errors"
SERVER_SLOW_QUERIES = "server.slow_queries"
SERVER_REQUEST_SECONDS = "server.request_seconds"

BATCHER_REQUESTS = "batcher.requests"
BATCHER_BATCHES = "batcher.batches"
BATCHER_BATCH_SIZE = "batcher.batch_size"
BATCHER_QUEUE_WAIT_SECONDS = "batcher.queue_wait_seconds"

ADMISSION_ADMITTED = "admission.admitted"
ADMISSION_REJECTED = "admission.rejected"
ADMISSION_TIMED_OUT = "admission.timed_out"
ADMISSION_INFLIGHT = "admission.inflight"
ADMISSION_PEAK_INFLIGHT = "admission.peak_inflight"

# --------------------------------------------------------------------- #
# Robustness layer: fault injection, mutation journal, self-healing
# --------------------------------------------------------------------- #
FAULTS_INJECTED = "faults.injected"

JOURNAL_MUTATIONS = "journal.mutations"
JOURNAL_REPLAYS = "journal.replays"

POOL_REBUILDS = "pool.engine_rebuilds"
POOL_REBUILD_FAILURES = "pool.rebuild_failures"
POOL_QUARANTINE_REFUSALS = "pool.quarantine_refusals"

COMPACTOR_RUNS = "compactor.runs"
COMPACTOR_FAILURES = "compactor.failures"
COMPACTOR_SEGMENTS_FOLDED = "compactor.segments_folded"

SERVER_DISCONNECTS = "server.client_disconnects"

#: Every registered metric name; the registry refuses names outside it,
#: so a typo fails fast instead of minting a shadow time series.
CATALOGUE = frozenset(
    value for key, value in sorted(globals().items())
    if key.isupper() and isinstance(value, str)
)
