"""Workload runner shared by the Figure 5 / Figure 6 benchmark drivers.

The harness mirrors the paper's measurement protocol (Section 5.1): each query
is run several times per algorithm, the first run is discarded (warm-up) and
the remaining runs are averaged.  Results are collected per query so the
drivers can print the same per-query series the paper plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import SearchEngine, effectiveness
from ..core.metrics import EffectivenessReport
from ..storage import SQLitePostingSource, SQLiteStore
from ..datasets import (
    DBLPConfig,
    WorkloadQuery,
    XMarkConfig,
    dblp_workload,
    generate_dblp,
    generate_xmark,
    xmark_workload,
)
from ..xmltree import XMLTree


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: a tree factory plus its query workload."""

    name: str
    tree_factory: Callable[[], XMLTree]
    workload: Tuple[WorkloadQuery, ...]
    description: str = ""


@dataclass(frozen=True)
class QueryMeasurement:
    """Per-query measurements for Figure 5 (timing) and Figure 6 (ratios)."""

    dataset: str
    label: str
    query: str
    rtf_count: int
    maxmatch_seconds: float
    validrtf_seconds: float
    report: EffectivenessReport

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary row shared by the reporting helpers."""
        return {
            "dataset": self.dataset,
            "query": self.label,
            "keywords": self.query,
            "rtfs": self.rtf_count,
            "maxmatch_ms": round(self.maxmatch_seconds * 1000.0, 3),
            "validrtf_ms": round(self.validrtf_seconds * 1000.0, 3),
            "cfr": round(self.report.cfr, 4),
            "apr_prime": round(self.report.apr_prime, 4),
            "max_apr": round(self.report.max_apr, 4),
        }


@dataclass
class WorkloadRun:
    """All measurements of one dataset's workload."""

    dataset: str
    measurements: List[QueryMeasurement] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [measurement.as_row() for measurement in self.measurements]


# ---------------------------------------------------------------------- #
# Default dataset registry (sizes chosen for laptop-scale runs; DESIGN.md
# documents the down-scaling from the paper's multi-hundred-MB documents).
# ---------------------------------------------------------------------- #
def default_datasets(dblp_publications: int = 600,
                     xmark_base_items: int = 80) -> Dict[str, DatasetSpec]:
    """The four datasets of the paper's evaluation, scaled down."""
    dblp_spec = DatasetSpec(
        name="dblp",
        tree_factory=lambda: generate_dblp(
            DBLPConfig(publications=dblp_publications)),
        workload=tuple(dblp_workload()),
        description="synthetic DBLP-like bibliography (real-data stand-in)",
    )
    xmark_specs = {
        scale: DatasetSpec(
            name=f"xmark-{scale}",
            tree_factory=lambda scale=scale: generate_xmark(
                XMarkConfig(scale=scale, base_items=xmark_base_items)),
            workload=tuple(xmark_workload()),
            description=f"synthetic XMark-like auction site ({scale})",
        )
        for scale in ("standard", "data1", "data2")
    }
    return {"dblp": dblp_spec, **{spec.name: spec for spec in xmark_specs.values()}}


@lru_cache(maxsize=None)
def cached_engine(dataset_name: str, dblp_publications: int = 600,
                  xmark_base_items: int = 80,
                  cache_size: int = 0) -> SearchEngine:
    """Build (once) the :class:`SearchEngine` of a default dataset.

    ``cache_size`` > 0 gives the engine a query-result cache; engines with
    different cache sizes are memoized separately.  Note the memoization means
    every caller with the same arguments shares one engine — including its
    query-cache contents and statistics.  Measurements that need a cold cache
    should build their own ``SearchEngine`` instead.
    """
    specs = default_datasets(dblp_publications, xmark_base_items)
    try:
        spec = specs[dataset_name]
    except KeyError:
        raise KeyError(f"unknown dataset {dataset_name!r}; "
                       f"expected one of {sorted(specs)}") from None
    return SearchEngine(spec.tree_factory(), cache_size=cache_size)


# ---------------------------------------------------------------------- #
# Backend selection
# ---------------------------------------------------------------------- #
#: Backends accepted by :func:`engine_for_backend` / ``run_workload``.
BACKEND_NAMES = ("memory", "sqlite", "corpus")


def engine_for_backend(tree: XMLTree, backend: str = "memory",
                       cache_size: int = 0,
                       db_path: Optional[str] = None,
                       document: str = "bench") -> SearchEngine:
    """Build a :class:`SearchEngine` over ``tree`` for one posting backend.

    ``memory`` builds the classic in-memory inverted index (tree resident).
    ``sqlite`` shreds the document into a :class:`SQLiteStore` (an on-disk
    file when ``db_path`` is given, in-process otherwise) and searches purely
    through the disk-backed posting source — no tree resident, so the
    measured times include SQL posting retrieval and SQL-backed record
    construction, the cold-disk counterpart the Figure 5/6 drivers compare
    against hot-memory retrieval.  ``db_path`` belongs to ``sqlite`` alone;
    any other backend raises :class:`ValueError` rather than ignore it.
    """
    if db_path and backend != "sqlite":
        raise ValueError(f"a database path needs the sqlite backend, "
                         f"not {backend!r}")
    if backend == "memory":
        return SearchEngine(tree, cache_size=cache_size)
    if backend == "sqlite":
        store = SQLiteStore(db_path if db_path else ":memory:")
        if document in store.documents():
            # Reuse an already-indexed file only when its live document
            # still matches the generated tree (node count is a cheap
            # fingerprint); a stale corpus would silently skew every
            # measurement.  The drop purges every generation of the name,
            # so the file then holds the one copy this engine times.
            if store.document_stats(document)["nodes"] != tree.size():
                store.drop_document(document)
                store.store_tree(tree, document)
        else:
            store.store_tree(tree, document)
        return SearchEngine(
            source=SQLitePostingSource(store, document),
            cache_size=cache_size)
    if backend == "corpus":
        from ..corpus import CorpusSearchEngine

        # A one-document corpus over the dataset: measures the corpus
        # layer's per-document dispatch overhead against the flat backends.
        return CorpusSearchEngine.from_trees({document: tree},
                                             cache_size=cache_size)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
def _average_timed_passes(run: Callable[[], object], repetitions: int) -> float:
    """The paper's protocol: ``repetitions + 1`` passes, first (warm-up)
    discarded, rest averaged."""
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    timings: List[float] = []
    for _ in range(repetitions + 1):
        started = time.perf_counter()
        run()
        timings.append(time.perf_counter() - started)
    kept = timings[1:]
    return sum(kept) / len(kept)


def time_algorithm(engine: SearchEngine, query: str, algorithm: str,
                   repetitions: int = 3) -> float:
    """Average wall-clock seconds per run, discarding the first (warm-up)."""
    return _average_timed_passes(lambda: engine.search(query, algorithm),
                                 repetitions)


def time_batch(engine: SearchEngine, queries: Sequence[str], algorithm: str,
               repetitions: int = 3) -> float:
    """Average wall-clock seconds per ``search_many`` pass over ``queries``.

    Same protocol as :func:`time_algorithm`.  On a cache-enabled engine the
    later passes measure the hot (cache-hit) path — which is exactly what the
    cache ablation wants to compare against the cold loop.
    """
    return _average_timed_passes(lambda: engine.search_many(queries, algorithm),
                                 repetitions)


def measure_query(engine: SearchEngine, dataset: str, query: WorkloadQuery,
                  repetitions: int = 3) -> QueryMeasurement:
    """Measure one workload query: timings, RTF count and effectiveness."""
    validrtf_result = engine.search(query.text, "validrtf")
    maxmatch_result = engine.search(query.text, "maxmatch")
    report = effectiveness(maxmatch_result, validrtf_result)
    return QueryMeasurement(
        dataset=dataset,
        label=query.label,
        query=query.text,
        rtf_count=validrtf_result.count,
        maxmatch_seconds=time_algorithm(engine, query.text, "maxmatch", repetitions),
        validrtf_seconds=time_algorithm(engine, query.text, "validrtf", repetitions),
        report=report,
    )


def run_workload(spec: DatasetSpec, engine: Optional[SearchEngine] = None,
                 repetitions: int = 3,
                 queries: Optional[Sequence[WorkloadQuery]] = None,
                 cache_size: int = 0, backend: str = "memory",
                 db_path: Optional[str] = None) -> WorkloadRun:
    """Run a dataset's whole workload and collect every measurement.

    ``cache_size`` > 0 builds the engine with a query-result cache, so the
    timed repetitions measure the hot (cache-hit) path instead of paying full
    pipeline cost every time.  Keep it at 0 to reproduce the paper's cold
    per-repetition protocol.  ``backend`` selects the posting backend the
    engine is built over (see :func:`engine_for_backend`), so the figure
    drivers can compare cold-disk (``sqlite``) against hot-memory
    retrieval.  All of these are ignored when an ``engine`` is passed in.
    """
    engine = engine if engine is not None else engine_for_backend(
        spec.tree_factory(), backend, cache_size=cache_size,
        db_path=db_path, document=spec.name)
    run = WorkloadRun(dataset=spec.name)
    for query in (queries if queries is not None else spec.workload):
        run.measurements.append(measure_query(engine, spec.name, query, repetitions))
    return run


def run_all(specs: Optional[Mapping[str, DatasetSpec]] = None,
            repetitions: int = 3, cache_size: int = 0,
            backend: str = "memory") -> Dict[str, WorkloadRun]:
    """Run every dataset's workload (the full Figures 5 + 6 campaign)."""
    specs = specs if specs is not None else default_datasets()
    return {name: run_workload(spec, repetitions=repetitions,
                               cache_size=cache_size, backend=backend)
            for name, spec in specs.items()}
