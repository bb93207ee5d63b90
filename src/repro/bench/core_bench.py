"""BENCH_core.json — the core-engine perf trajectory artefact.

The Figure 5/6 drivers measure MaxMatch-vs-ValidRTF per query; this module
records the *systems* axes on top of the paper's: per-algorithm and
per-backend timings over the same workloads, so every PR that touches a hot
path leaves a comparable number behind.

The run doubles as a correctness guard: before anything is timed, every
measured backend answers every (query, algorithm) pair and the results must
equal the memory engine's — roots, kept node sets, SLCA flags — whose
ELCA/SLCA roots must in turn equal the naive definitions
(:func:`~repro.lca.naive_elca` / :func:`~repro.lca.naive_slca`) on the same
posting lists.  A drifting backend or hot loop fails the bench instead of
producing fast-but-wrong numbers (this is what the CI perf-smoke step runs,
scaled down, on the memory backend alone — so the independent oracle is what
it checks against).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import SearchEngine
from ..corpus import CorpusSearchEngine
from ..datasets import DBLPConfig, dblp_workload, generate_dblp
from ..lca import naive_elca, naive_slca
from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..xmltree import TreeBuilder, XMLTree
from .harness import (
    DatasetSpec,
    _average_timed_passes,
    default_datasets,
    engine_for_backend,
    time_algorithm,
)

#: Axes measured by default.
DEFAULT_BACKENDS = ("memory",)
DEFAULT_ALGORITHMS = ("validrtf", "maxmatch")


class AnswerParityError(AssertionError):
    """A measured engine answered wrong (never acceptable).

    Raised when a backend disagrees with the memory engine, or when the
    memory engine's LCA roots disagree with the naive definitions."""


class RankingEquivalenceError(AnswerParityError):
    """Early-terminated top-k disagreed with the exhaustive ranking.

    The threshold driver's entire claim is "same answer, fewer documents";
    a bench that timed a divergent run would be quoting the speed of a
    wrong result.  A top-k that differs from the exhaustive one is a wrong
    answer, so this is an answer-parity failure."""


def _result_fingerprint(result) -> Tuple:
    """Everything that must match across engines (not the timing)."""
    return (
        tuple(str(code) for code in result.lca_nodes),
        tuple((str(fragment.root), fragment.is_slca,
               tuple(str(code) for code in fragment.kept_nodes),
               tuple(str(code) for code in fragment.fragment.nodes),
               tuple(str(code) for code in fragment.fragment.keyword_nodes))
              for fragment in result.fragments),
    )


def run_core_bench(datasets: Sequence[str] = ("dblp",),
                   backends: Sequence[str] = DEFAULT_BACKENDS,
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   repetitions: int = 2,
                   limit: Optional[int] = None,
                   verify: bool = True,
                   specs: Optional[Dict[str, DatasetSpec]] = None
                   ) -> Dict[str, object]:
    """Measure the workload over every (dataset, backend).

    Returns the ``BENCH_core.json`` payload: one entry per (dataset, backend,
    algorithm, query) with the Figure-5 protocol average (``repetitions``
    timed passes after a discarded warm-up), plus per-(dataset, backend,
    algorithm) total-time summaries, the ``ranking`` section
    (:func:`run_ranking_bench`) and the ``observability`` section
    (:func:`run_obs_overhead_bench`).

    ``limit`` trims each dataset's workload to its first N queries (the CI
    perf-smoke uses 1); ``verify=True`` runs :func:`_verify_answers` before
    timing and raises :class:`AnswerParityError` on any mismatch.
    """
    specs = specs if specs is not None else default_datasets()
    entries: List[Dict[str, object]] = []
    for dataset in datasets:
        spec = specs[dataset]
        queries = list(spec.workload)
        if limit is not None:
            queries = queries[:limit]
        tree = spec.tree_factory()
        engines = {backend: engine_for_backend(tree, backend, document=dataset)
                   for backend in backends}
        if verify:
            _verify_answers(dataset, tree, queries, algorithms, engines)
        for backend, engine in engines.items():
            for query in queries:
                for algorithm in algorithms:
                    seconds = time_algorithm(engine, query.text, algorithm,
                                             repetitions)
                    entries.append({
                        "dataset": dataset,
                        "backend": backend,
                        "algorithm": algorithm,
                        "query": query.label,
                        "keywords": query.text,
                        "ms": round(seconds * 1000.0, 4),
                    })
    return {
        "benchmark": "core",
        "protocol": {
            "repetitions": repetitions,
            "warmup_discarded": True,
            "verified_parity": bool(verify),
        },
        "entries": entries,
        "summary": _summaries(entries),
        "ranking": run_ranking_bench(repetitions=repetitions, limit=limit,
                                     verify=verify),
        "observability": run_obs_overhead_bench(
            repetitions=repetitions, limit=limit, specs=specs),
    }


def run_obs_overhead_bench(dataset: str = "dblp",
                           algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                           repetitions: int = 2,
                           limit: Optional[int] = None,
                           specs: Optional[Dict[str, DatasetSpec]] = None
                           ) -> Dict[str, object]:
    """Instrumentation overhead on the Figure-5 workload.

    Two engines over the same tree: one plain, one with a
    :class:`~repro.obs.MetricsRegistry` attached (the configuration every
    pooled server engine runs in).  Sub-millisecond queries make sequential
    A-then-B timing systematically unfair (whatever drift hits the second
    side is charged to instrumentation), so each repetition times the two
    engines back-to-back with the order *alternating* per pass, and each
    side keeps its best (minimum) pass — scheduler noise only ever adds
    time, so the minimum is the faithful per-query cost on both sides.
    ``instrumented_over_plain`` is the total-time ratio — the observability
    acceptance bar keeps it within a few percent of 1.0.  The registry's
    own ``query.count`` is returned too, proving the instrumented side
    actually recorded what it ran.
    """
    specs = specs if specs is not None else default_datasets()
    spec = specs[dataset]
    queries = list(spec.workload)
    if limit is not None:
        queries = queries[:limit]
    tree = spec.tree_factory()
    plain = SearchEngine(tree)
    instrumented = SearchEngine(tree)
    registry = MetricsRegistry()
    instrumented.set_metrics(registry)
    entries: List[Dict[str, object]] = []
    plain_total = 0.0
    instrumented_total = 0.0
    for query in queries:
        for algorithm in algorithms:
            plain.search(query.text, algorithm)         # warm-up, discarded
            instrumented.search(query.text, algorithm)
            plain_passes: List[float] = []
            instrumented_passes: List[float] = []
            for repetition in range(repetitions):
                ordered = (plain, instrumented) if repetition % 2 == 0 \
                    else (instrumented, plain)
                timed = {}
                for engine in ordered:
                    started = time.perf_counter()
                    engine.search(query.text, algorithm)
                    timed[id(engine)] = time.perf_counter() - started
                plain_passes.append(timed[id(plain)])
                instrumented_passes.append(timed[id(instrumented)])
            plain_seconds = min(plain_passes)
            instrumented_seconds = min(instrumented_passes)
            plain_total += plain_seconds
            instrumented_total += instrumented_seconds
            entries.append({
                "query": query.label,
                "keywords": query.text,
                "algorithm": algorithm,
                "plain_ms": round(plain_seconds * 1000.0, 4),
                "instrumented_ms": round(instrumented_seconds * 1000.0, 4),
            })
    counters = registry.snapshot()["counters"]
    recorded = sum(value for key, value in counters.items()
                   if key.startswith(metric_names.QUERY_COUNT))
    return {
        "dataset": dataset,
        "entries": entries,
        "plain_total_ms": round(plain_total * 1000.0, 4),
        "instrumented_total_ms": round(instrumented_total * 1000.0, 4),
        "instrumented_over_plain": (
            round(instrumented_total / plain_total, 4)
            if plain_total else None),
        "queries_recorded": recorded,
    }


def run_ranking_bench(doc_count: int = 6, publications_per_doc: int = 120,
                      top_k: int = 5, algorithm: str = "validrtf",
                      repetitions: int = 2, limit: Optional[int] = None,
                      verify: bool = True) -> Dict[str, object]:
    """The ranked-retrieval row of ``BENCH_core.json``.

    Partitions one ``doc_count * publications_per_doc``-record DBLP
    bibliography into ``doc_count`` documents (the realistic corpus shape:
    rare workload terms — plant counts of a handful across the whole
    bibliography — genuinely live in only a few documents, the regime
    where keyword-impact upper bounds have teeth) and, per workload
    query, times top-k retrieval exhaustively versus with the
    threshold-algorithm driver.

    ``verify=True`` (the bench-honesty contract) first asserts the two
    paths return the *identical* ranking — same documents, roots and
    bit-identical scores — and raises :class:`RankingEquivalenceError`
    otherwise; only then is anything timed.  ``docs_visited_over_selected``
    < 1 is the observable win: the driver answered the same top-k while
    provably skipping the remaining documents.
    """
    trees = _partitioned_dblp_corpus(doc_count, publications_per_doc)
    engine = CorpusSearchEngine.from_trees(trees)
    queries = list(dblp_workload())
    if limit is not None:
        queries = queries[:limit]
    entries: List[Dict[str, object]] = []
    exhaustive_total = 0.0
    early_total = 0.0
    visited_total = 0
    selected_total = 0
    for query in queries:
        if verify:
            _verify_ranking_equivalence(engine, query, algorithm, top_k)
        outcome = engine.rank_search(query.text, algorithm, top_k=top_k,
                                     early_terminate=True)
        exhaustive_seconds = _average_timed_passes(
            lambda q=query.text: engine.rank_search(q, algorithm,
                                                    top_k=top_k),
            repetitions)
        early_seconds = _average_timed_passes(
            lambda q=query.text: engine.rank_search(q, algorithm,
                                                    top_k=top_k,
                                                    early_terminate=True),
            repetitions)
        exhaustive_total += exhaustive_seconds
        early_total += early_seconds
        visited_total += outcome.docs_visited
        selected_total += outcome.docs_selected
        entries.append({
            "query": query.label,
            "keywords": query.text,
            "algorithm": algorithm,
            "exhaustive_ms": round(exhaustive_seconds * 1000.0, 4),
            "early_ms": round(early_seconds * 1000.0, 4),
            "docs_visited": outcome.docs_visited,
            "docs_selected": outcome.docs_selected,
        })
    return {
        "documents": doc_count,
        "publications_per_document": publications_per_doc,
        "top_k": top_k,
        "verified_equivalence": bool(verify),
        "entries": entries,
        "exhaustive_total_ms": round(exhaustive_total * 1000.0, 4),
        "early_total_ms": round(early_total * 1000.0, 4),
        "early_over_exhaustive": (
            round(early_total / exhaustive_total, 4)
            if exhaustive_total else None),
        "docs_visited": visited_total,
        "docs_selected": selected_total,
        "docs_visited_over_selected": (
            round(visited_total / selected_total, 4)
            if selected_total else None),
    }


def _partitioned_dblp_corpus(doc_count: int, publications_per_doc: int,
                             seed: int = 2009) -> Dict[str, "XMLTree"]:
    """One DBLP bibliography split into ``doc_count`` documents.

    Unlike generating each document independently (which plants every
    vocabulary term at least once per document), partitioning preserves the
    bibliography's global term frequencies — a term planted 3 times lands
    in at most 3 documents, so per-document keyword impacts actually differ.
    """
    whole = generate_dblp(DBLPConfig(
        publications=doc_count * publications_per_doc, seed=seed))
    records = whole.root.children
    parts: Dict[str, XMLTree] = {}
    for index in range(doc_count):
        builder = TreeBuilder("dblp", name=f"dblp-part-{index:02d}")
        start = index * publications_per_doc
        for record in records[start:start + publications_per_doc]:
            _copy_subtree(builder, record)
        parts[f"dblp-{index:02d}"] = builder.build()
    return parts


def _copy_subtree(builder: "TreeBuilder", node) -> None:
    """Re-emit one subtree under the builder's current element."""
    builder.element(node.label, text=node.text,
                    attributes=dict(node.attributes or {}))
    for child in node.children:
        _copy_subtree(builder, child)
    builder.up()


def _ranking_fingerprint(ranked) -> Tuple:
    """Everything the equivalence guard compares (order, docs, raw scores)."""
    return tuple((entry.doc_id, str(entry.fragment.root), entry.score)
                 for entry in ranked)


def _verify_ranking_equivalence(engine, query, algorithm, top_k) -> None:
    """Early-terminated and exhaustive top-k must be byte-identical."""
    exhaustive = engine.rank_search(query.text, algorithm, top_k=top_k)
    early = engine.rank_search(query.text, algorithm, top_k=top_k,
                               early_terminate=True)
    if _ranking_fingerprint(exhaustive.ranked) != \
            _ranking_fingerprint(early.ranked):
        raise RankingEquivalenceError(
            f"ranking/{algorithm}/{query.label}: early-terminated top-"
            f"{top_k} diverged from the exhaustive ranking "
            f"(visited {early.docs_visited}/{early.docs_selected} documents)")


def _verify_answers(dataset, tree, queries, algorithms, engines) -> None:
    """Check every measured answer against two references before timing.

    1. The memory engine's ELCA and SLCA roots equal :func:`naive_elca` /
       :func:`naive_slca` on the same posting lists — the independent
       oracle, so a memory-only run is still checked.
    2. Every measured backend answers every (query, algorithm) pair exactly
       like the memory engine (reused when measured, else built over
       ``tree``).
    """
    reference = engines["memory"] if "memory" in engines \
        else SearchEngine(tree)
    for query in queries:
        lists = reference.keyword_nodes(query.text)
        for pipeline, oracle in (("validrtf", naive_elca),
                                 ("validrtf-slca", naive_slca)):
            roots = reference.algorithm(pipeline).lca_function(lists)
            if roots != oracle(lists):
                raise AnswerParityError(
                    f"{dataset}/memory/{pipeline}/{query.label}: LCA roots "
                    f"differ from {oracle.__name__}")
        for algorithm in algorithms:
            expected = _result_fingerprint(
                reference.search(query.text, algorithm))
            for backend, engine in engines.items():
                if engine is reference:
                    continue
                if _result_fingerprint(
                        engine.search(query.text, algorithm)) != expected:
                    raise AnswerParityError(
                        f"{dataset}/{backend}/{algorithm}/{query.label}: "
                        f"answer differs from the memory engine")


def _summaries(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per (dataset, backend, algorithm) total time."""
    totals: Dict[Tuple[str, str, str], float] = {}
    for entry in entries:
        key = (entry["dataset"], entry["backend"], entry["algorithm"])
        totals[key] = totals.get(key, 0.0) + entry["ms"]
    return [{"dataset": dataset, "backend": backend, "algorithm": algorithm,
             "total_ms": round(total, 4)}
            for (dataset, backend, algorithm), total in sorted(totals.items())]
