"""BENCH_core.json: the paper's Figures 5 and 6 and the engine's timings.

:func:`run_core_bench` is the one driver.  For each dataset of the
experiment table (:func:`~repro.bench.harness.default_datasets`: DBLP and
the three XMark scales) it

1. checks every answer before it times the dataset (:func:`_verify_answers`):
   the memory engine's ELCA and SLCA roots must equal the naive definitions
   (:func:`~repro.lca.naive_elca` / :func:`~repro.lca.naive_slca`) on the
   same posting lists, and every measured backend must answer every
   (query, algorithm) pair exactly like the memory engine (roots, kept and
   fragment node sets, SLCA flags);
2. records Figure 6 from those same verified results: per query the RTF
   count, the LCA roots, the nodes each algorithm keeps, and CFR, APR' and
   Max APR (:func:`~repro.core.effectiveness`), with the dataset's
   :func:`~repro.core.summarize_reports`;
3. times Figure 5: each query's (backend, algorithm) runs in one
   alternating loop (:func:`alternating_passes`).

The ``figures`` section is deterministic: a change in it is a change of
answers.  The ranking and observability sections time their two sides with
the same loop.  The ``bench`` command prints the Figure 5 and 6 panels as
renderings of this payload (:mod:`repro.bench.figures`), and
:func:`write_core_bench` persists it only when its guards ran.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import SearchEngine, effectiveness, summarize_reports
from ..corpus import CorpusSearchEngine
from ..datasets import DBLPConfig, WorkloadQuery, dblp_workload, generate_dblp
from ..lca import naive_elca, naive_slca
from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..xmltree import TreeBuilder, XMLTree
from .harness import DatasetSpec, default_datasets, engine_for_backend

#: The two algorithms the paper's figures compare, in timing order.
ALGORITHMS = ("validrtf", "maxmatch")


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


def run_core_bench(datasets: Optional[Sequence[str]] = None,
                   backends: Sequence[str] = ("memory",),
                   repetitions: int = 2,
                   limit: Optional[int] = None,
                   specs: Optional[Dict[str, DatasetSpec]] = None
                   ) -> Dict[str, object]:
    """Verify, record Figure 6 and time Figure 5 over every dataset.

    Returns the ``BENCH_core.json`` payload: one timing entry per (dataset,
    backend, algorithm, query), the mean of ``repetitions`` alternating
    passes after a discarded warm-up; per-(dataset, backend, algorithm)
    totals; the deterministic ``figures`` section per dataset; the
    ``ranking`` section (:func:`run_ranking_bench`) and the
    ``observability`` section (:func:`run_obs_overhead_bench`, on the
    first dataset).

    ``datasets`` defaults to every dataset of ``specs`` (the four of
    :func:`default_datasets`); a dataset or backend named twice runs once.
    ``limit`` keeps each workload's first N queries.  Raises :class:`AnswerParityError`, before the dataset is
    timed, when one of its answers is wrong.
    """
    specs = specs if specs is not None else default_datasets()
    datasets = tuple(dict.fromkeys(datasets if datasets is not None else specs))
    entries: List[Dict[str, object]] = []
    figures: Dict[str, object] = {}
    for dataset in datasets:
        queries = _first(specs[dataset].workload, limit)
        tree = specs[dataset].tree_factory()
        engines = {backend: engine_for_backend(tree, backend, document=dataset)
                   for backend in backends}
        figures[dataset] = _verify_answers(dataset, tree, queries, engines)
        runs = [(backend, algorithm) for backend in engines
                for algorithm in ALGORITHMS]
        for query in queries:
            passes = alternating_passes(
                [lambda e=engines[backend], a=algorithm, q=query.text:
                 e.search(q, a) for backend, algorithm in runs],
                repetitions)
            for (backend, algorithm), seconds in zip(runs, passes):
                entries.append({
                    "dataset": dataset,
                    "backend": backend,
                    "algorithm": algorithm,
                    "query": query.label,
                    "keywords": query.text,
                    "ms": round(sum(seconds) / repetitions * 1000.0, 4),
                })
    return {
        "benchmark": "core",
        "protocol": {
            "repetitions": repetitions,
            "warmup_discarded": True,
            "alternating": True,
            "verified_parity": True,
        },
        "entries": entries,
        "summary": _summaries(entries),
        "figures": figures,
        "ranking": run_ranking_bench(repetitions=repetitions, limit=limit),
        "observability": run_obs_overhead_bench(
            datasets[0], repetitions=repetitions, limit=limit, specs=specs),
    }


def run_obs_overhead_bench(dataset: str = "dblp",
                           repetitions: int = 2,
                           limit: Optional[int] = None,
                           specs: Optional[Dict[str, DatasetSpec]] = None
                           ) -> Dict[str, object]:
    """Instrumentation overhead on the Figure-5 workload.

    Two engines over the same tree: one plain, one with a
    :class:`~repro.obs.MetricsRegistry` attached (the configuration every
    pooled server engine runs in).  Sub-millisecond queries make sequential
    A-then-B timing systematically unfair (whatever drift hits the second
    side is charged to instrumentation), so the two engines are timed in
    alternating order (:func:`alternating_passes`), and each side keeps
    its best (minimum) pass — scheduler noise only ever adds time, so the
    minimum is the faithful per-query cost on both sides.
    ``instrumented_over_plain`` is the total-time ratio — the observability
    acceptance bar keeps it within a few percent of 1.0.  The registry's
    own ``query.count`` is returned too, proving the instrumented side
    actually recorded what it ran.
    """
    specs = specs if specs is not None else default_datasets()
    spec = specs[dataset]
    queries = _first(spec.workload, limit)
    tree = spec.tree_factory()
    plain = SearchEngine(tree)
    instrumented = SearchEngine(tree)
    registry = MetricsRegistry()
    instrumented.set_metrics(registry)
    entries: List[Dict[str, object]] = []
    plain_total = 0.0
    instrumented_total = 0.0
    for query in queries:
        for algorithm in ALGORITHMS:
            plain_passes, instrumented_passes = alternating_passes(
                [lambda q=query.text, a=algorithm: plain.search(q, a),
                 lambda q=query.text, a=algorithm: instrumented.search(q, a)],
                repetitions)
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
                      repetitions: int = 2, limit: Optional[int] = None
                      ) -> Dict[str, object]:
    """The ranked-retrieval row of ``BENCH_core.json``.

    Partitions one ``doc_count * publications_per_doc``-record DBLP
    bibliography into ``doc_count`` documents (the realistic corpus shape:
    rare workload terms — plant counts of a handful across the whole
    bibliography — genuinely live in only a few documents, the regime
    where keyword-impact upper bounds have teeth) and, per workload
    query, times top-k retrieval exhaustively versus with the
    threshold-algorithm driver in alternating order
    (:func:`alternating_passes`), averaged.

    Each query first passes the bench-honesty guard: the two paths must
    return the *identical* ranking — same documents, roots and
    bit-identical scores — or :class:`RankingEquivalenceError` is raised
    before anything is timed.  ``docs_visited_over_selected`` < 1 is the
    observable win: the driver answered the same top-k while provably
    skipping the remaining documents.
    """
    trees = _partitioned_dblp_corpus(doc_count, publications_per_doc)
    engine = CorpusSearchEngine.from_trees(trees)
    entries: List[Dict[str, object]] = []
    exhaustive_total = 0.0
    early_total = 0.0
    visited_total = 0
    selected_total = 0
    for query in _first(dblp_workload(), limit):
        _verify_ranking_equivalence(engine, query, algorithm, top_k)
        outcome = engine.rank_search(query.text, algorithm, top_k=top_k,
                                     early_terminate=True)
        exhaustive_passes, early_passes = alternating_passes(
            [lambda q=query.text: engine.rank_search(q, algorithm,
                                                     top_k=top_k),
             lambda q=query.text: engine.rank_search(q, algorithm,
                                                     top_k=top_k,
                                                     early_terminate=True)],
            repetitions)
        exhaustive_seconds = sum(exhaustive_passes) / repetitions
        early_seconds = sum(early_passes) / repetitions
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
        "verified_equivalence": True,
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


def alternating_passes(runs: Sequence[Callable[[], object]],
                       repetitions: int) -> List[List[float]]:
    """Seconds of ``repetitions`` timed passes of each run, per run.

    One warm-up pass of each run is discarded; then each repetition times
    every run back-to-back, the first run rotating by one per repetition,
    so no run always leads or always follows the same neighbour.  The
    cyclic garbage collector is off while the runs execute, as in
    :mod:`timeit`: one full collection of the process's heap outlasts many
    sub-millisecond passes, and the allocation history, not the runs,
    decides which pass it lands in.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    passes: List[List[float]] = [[] for _ in runs]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for run in runs:
            run()
        for repetition in range(repetitions):
            for offset in range(len(runs)):
                which = (repetition + offset) % len(runs)
                started = time.perf_counter()
                runs[which]()
                passes[which].append(time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return passes


def _first(workload: Sequence[WorkloadQuery],
           limit: Optional[int]) -> List[WorkloadQuery]:
    """The workload's first ``limit`` queries (all of them for None)."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    return list(workload)[:limit]


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


def _verify_answers(dataset, tree, queries, engines) -> Dict[str, object]:
    """Check every measured answer, and return the Figure 6 it gives.

    1. The memory engine's ELCA and SLCA roots equal :func:`naive_elca` /
       :func:`naive_slca` on the same posting lists — the independent
       oracle, so a memory-only run is still checked.
    2. Every measured backend answers every (query, algorithm) pair exactly
       like the memory engine (reused when measured, else built over
       ``tree``).

    The memory engine's verified results then give the dataset's Figure 6
    section: one row per query and the workload summary.
    """
    reference = engines["memory"] if "memory" in engines \
        else SearchEngine(tree)
    rows: List[Dict[str, object]] = []
    reports = []
    for query in queries:
        lists = reference.keyword_nodes(query.text)
        for pipeline, oracle in (("validrtf", naive_elca),
                                 ("validrtf-slca", naive_slca)):
            roots = reference.algorithm(pipeline).lca_function(lists)
            if roots != oracle(lists):
                raise AnswerParityError(
                    f"{dataset}/memory/{pipeline}/{query.label}: LCA roots "
                    f"differ from {oracle.__name__}")
        results = {}
        for algorithm in ALGORITHMS:
            results[algorithm] = reference.search(query.text, algorithm)
            expected = _result_fingerprint(results[algorithm])
            for backend, engine in engines.items():
                if engine is reference:
                    continue
                if _result_fingerprint(
                        engine.search(query.text, algorithm)) != expected:
                    raise AnswerParityError(
                        f"{dataset}/{backend}/{algorithm}/{query.label}: "
                        f"answer differs from the memory engine")
        report = effectiveness(results["maxmatch"], results["validrtf"])
        reports.append(report)
        rows.append({
            "query": query.label,
            "keywords": query.text,
            "rtfs": results["validrtf"].count,
            "lca_roots": len(results["validrtf"].lca_nodes),
            "maxmatch_kept": results["maxmatch"].total_kept_nodes(),
            "validrtf_kept": results["validrtf"].total_kept_nodes(),
            "cfr": round(report.cfr, 4),
            "apr_prime": round(report.apr_prime, 4),
            "max_apr": round(report.max_apr, 4),
        })
    summary = {key: round(value, 4)
               for key, value in summarize_reports(reports).items()}
    return {"rows": rows, "summary": summary}


def _summaries(entries: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per (dataset, backend, algorithm) total time."""
    totals: Dict[Tuple[str, str, str], float] = {}
    for entry in entries:
        key = (entry["dataset"], entry["backend"], entry["algorithm"])
        totals[key] = totals.get(key, 0.0) + entry["ms"]
    return [{"dataset": dataset, "backend": backend, "algorithm": algorithm,
             "total_ms": round(total, 4)}
            for (dataset, backend, algorithm), total in sorted(totals.items())]


def require_verified_payload(payload: Dict[str, object]) -> None:
    """Refuse core-bench payloads whose verification guards did not run.

    :func:`run_core_bench` records that its answer checks (backends vs.
    memory, memory vs. the naive LCA definitions) ran under
    ``protocol.verified_parity``, and that the ranking section's
    early-vs-exhaustive equality guard ran under
    ``ranking.verified_equivalence``.  A payload without them may contain
    fast-but-wrong numbers, so persisting it as the ``BENCH_core.json``
    artefact is forbidden.
    """
    protocol = payload.get("protocol")
    verified = isinstance(protocol, dict) and protocol.get("verified_parity")
    if not verified:
        raise AnswerParityError(
            "refusing to persist an unverified core-bench payload "
            "(protocol.verified_parity is not set)")
    ranking = payload.get("ranking")
    if ranking is not None and not (
            isinstance(ranking, dict) and
            ranking.get("verified_equivalence")):
        raise RankingEquivalenceError(
            "refusing to persist a core-bench payload whose ranking section "
            "skipped the early-vs-exhaustive equality guard "
            "(ranking.verified_equivalence is not set)")


def write_core_bench(payload: Dict[str, object],
                     path: Union[str, Path] = "BENCH_core.json") -> Path:
    """Persist a :func:`run_core_bench` payload as JSON.

    Calls :func:`require_verified_payload` first: the artefact is only ever
    written from an answer-verified run (the bench-honesty contract the lint
    gate enforces on every ``BENCH_*.json`` writer).
    """
    require_verified_payload(payload)
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True),
                      encoding="utf-8")
    return target
