"""Command-line front end (installed as ``repro-xks``).

Sub-commands
------------
``index``
    Shred XML file(s) (or a built-in dataset) into a sqlite database so later
    queries can run disk-backed without re-parsing the document.  Several
    files build a multi-document corpus database (grow it later with
    ``--add``, absorb new document versions with ``--update``, tombstone
    documents with ``--delete``).
``compact``
    Fold the delta segments written by ``index --update`` / ``--delete``
    into the database's base generation.
``verify``
    Run the storage integrity checks (SQLite's page check, schema version,
    catalog, liveness, posting blobs, content ids) against an indexed
    database; exits nonzero when any check fails, so scripts can gate on a
    clean store.  Every command that opens a ``--db`` file written with
    another schema version prints the re-index message and exits 2.
``search``
    Run a keyword query against an XML file, a built-in dataset, an indexed
    sqlite store (``--db file.db --backend sqlite``), or a whole corpus
    (``--backend corpus``) with ValidRTF or MaxMatch and print the resulting
    fragments.  Every backend is searched as a corpus — a single document is
    a corpus of one, named after its file stem, dataset or ``--doc`` — so
    results are tagged with doc ids and ``--top-k --early-terminate`` works
    everywhere.
``compare``
    Run both algorithms on one query and print the CFR / APR' / Max APR
    metrics per document together with the differing fragments.
``bench``
    Check the answers on the built-in datasets, then regenerate the Figure 5
    and Figure 6 panels from one verified, alternating timing run (memory
    and/or the disk-backed ``--backend sqlite``); ``--output`` writes the
    run as ``BENCH_core.json``.
``datasets``
    Generate and describe the built-in synthetic datasets (optionally writing
    them to XML files).
``serve``
    Run the concurrent query-serving front end (newline-delimited JSON over
    TCP) with an engine pool, request batching and admission control.
    ``--fault-plan`` injects deterministic storage faults for chaos
    testing; ``--compact-segments N`` folds the delta segments on the write
    that leaves N or more.
``metrics``
    Scrape a running server's merged metrics registry (``--address``) and
    print it as Prometheus exposition text.

Served throughput and latency are measured by the repository benchmark,
``python -m benchmarks.e2e --workload served-read|served-rw``, which drives
a ``serve --db`` process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .bench import BACKEND_NAMES, default_datasets
from .core import SearchEngine
from .corpus import CorpusSearchEngine
from .storage import SchemaVersionError, SQLiteStore
from .storage.errors import DocumentNotFound
from .datasets import (
    DBLPConfig,
    PAPER_QUERIES,
    XMarkConfig,
    generate_dblp,
    generate_xmark,
    publications_tree,
    team_tree,
)
from .index import InvertedIndex, document_profile
from .xmltree import XMLTree, parse_file, write_xml_file

_BUILTIN_TREES = {
    "figure-1a": publications_tree,
    "figure-1b": team_tree,
    "dblp": lambda: generate_dblp(DBLPConfig()),
    "xmark-standard": lambda: generate_xmark(XMarkConfig(scale="standard")),
    "xmark-data1": lambda: generate_xmark(XMarkConfig(scale="data1")),
    "xmark-data2": lambda: generate_xmark(XMarkConfig(scale="data2")),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-xks`` console script."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    handler = arguments.handler
    try:
        return handler(arguments)
    except (CliError, SchemaVersionError) as error:
        print(error, file=sys.stderr)
        return 2


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xks",
        description="XML keyword search with ValidRTF / MaxMatch (EDBT 2009 "
                    "reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    index = subparsers.add_parser(
        "index", help="shred document(s) into a sqlite store for disk-backed "
                      "(or corpus) search")
    index.add_argument("documents", nargs="*", default=[], metavar="document",
                       help="path(s) to XML file(s); several files build a "
                            "multi-document corpus database (or use "
                            "--dataset)")
    index.add_argument("--dataset", default=None, choices=sorted(_BUILTIN_TREES),
                       help="index a built-in dataset instead of a file")
    index.add_argument("--db", required=True, help="sqlite database file")
    index.add_argument("--name", default=None,
                       help="stored document name (default: file stem or "
                            "dataset name; only with a single document)")
    index.add_argument("--add", action="store_true",
                       help="incrementally add to a database that already "
                            "holds other documents (guards against "
                            "accidentally mixing corpora)")
    index.add_argument("--force", action="store_true",
                       help="replace documents that are already stored")
    index.add_argument("--update", action="store_true",
                       help="absorb the document(s) as immutable delta "
                            "segments (new or changed versions) instead of "
                            "rewriting base rows; serve them immediately, "
                            "fold them later with `repro-xks compact`")
    index.add_argument("--delete", action="append", default=None,
                       metavar="DOC_ID",
                       help="tombstone a stored document (repeatable); "
                            "consulted at read time, removed by `compact`")
    index.set_defaults(handler=_command_index)

    compact = subparsers.add_parser(
        "compact", help="fold index --update/--delete delta segments into "
                        "the base generation")
    compact.add_argument("--db", required=True, help="sqlite database file")
    compact.set_defaults(handler=_command_compact)

    verify = subparsers.add_parser(
        "verify", help="check a database's integrity (sqlite pages, "
                       "ledger, catalog, liveness, posting blobs)")
    verify.add_argument("--db", required=True, help="sqlite database file")
    verify.add_argument("--json", action="store_true",
                        help="emit the typed findings as JSON instead of "
                             "the human-readable report")
    verify.set_defaults(handler=_command_verify)

    search = subparsers.add_parser("search", help="run one keyword query")
    _add_document_arguments(search)
    _add_backend_arguments(search)
    search.add_argument("query", help="keyword query, e.g. 'xml keyword search' "
                                      "or a paper query name like Q3")
    search.add_argument("--algorithm", default="validrtf",
                        choices=("validrtf", "maxmatch", "validrtf-slca",
                                 "maxmatch-slca"))
    search.add_argument("--no-text", action="store_true",
                        help="hide node text in the rendering")
    search.add_argument("--trace", action="store_true",
                        help="print the per-stage span tree (tokenize → "
                             "postings → lca → fragments) with wall times")
    search.add_argument("--top-k", type=int, default=None, metavar="K",
                        help="rank the fragments (corpus-comparable scores) "
                             "and print only the K best")
    search.add_argument("--early-terminate", action="store_true",
                        help="with --top-k: visit documents in "
                             "score-upper-bound order and stop once the K-th "
                             "score provably cannot be beaten (same answer, "
                             "fewer documents searched)")
    search.set_defaults(handler=_command_search)

    compare = subparsers.add_parser("compare",
                                    help="run ValidRTF and MaxMatch side by side")
    _add_document_arguments(compare)
    _add_backend_arguments(compare)
    compare.add_argument("query", help="keyword query or paper query name")
    compare.add_argument("--trace", action="store_true",
                         help="print the span tree of both algorithm runs")
    compare.set_defaults(handler=_command_compare)

    explain = subparsers.add_parser(
        "explain", help="show per-node keep/discard decisions and the "
                        "classified differences between the two algorithms")
    _add_document_arguments(explain)
    explain.add_argument("query", help="keyword query or paper query name")
    explain.add_argument("--algorithm", default="validrtf",
                         choices=("validrtf", "maxmatch"))
    explain.add_argument("--discarded-only", action="store_true",
                         help="only list discarded nodes")
    explain.set_defaults(handler=_command_explain)

    bench = subparsers.add_parser(
        "bench",
        help="check answers, then regenerate Figure 5 / Figure 6 from one "
             "alternating timing run (optionally written as BENCH_core.json)")
    bench.add_argument("--dataset", action="append", default=None,
                       choices=sorted(default_datasets()),
                       help="dataset(s) to run (repeatable; default: all four)")
    bench.add_argument("--backend", action="append", default=None,
                       choices=BACKEND_NAMES,
                       help="backend(s) to time (repeatable; default: memory)")
    bench.add_argument("--repetitions", type=_positive_int, default=2,
                       help="timed passes per query and run, after one "
                            "discarded warm-up")
    bench.add_argument("--limit", type=_positive_int, default=None,
                       help="only the first N workload queries per dataset")
    bench.add_argument("--output", default=None,
                       help="write the verified run to this path "
                            "(BENCH_core.json)")
    bench.set_defaults(handler=_command_bench)

    datasets = subparsers.add_parser("datasets",
                                     help="describe / export the built-in datasets")
    datasets.add_argument("--name", default=None, choices=sorted(_BUILTIN_TREES),
                          help="restrict to one dataset")
    datasets.add_argument("--output", default=None,
                          help="write the dataset(s) to XML file(s) with this prefix")
    datasets.set_defaults(handler=_command_datasets)

    serve = subparsers.add_parser(
        "serve", help="serve keyword search concurrently (JSON over TCP)")
    _add_document_arguments(serve)
    _add_backend_arguments(serve)
    _add_service_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (0 picks a free one)")
    serve.set_defaults(handler=_command_serve)

    metrics = subparsers.add_parser(
        "metrics", help="scrape a server's metrics as Prometheus text")
    metrics.add_argument("--address", required=True, metavar="HOST:PORT",
                         help="scrape a running server's merged registry")
    metrics.set_defaults(handler=_command_metrics)

    return parser


def _add_document_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--file", help="path to an XML document")
    group.add_argument("--dataset", default="figure-1a",
                       choices=sorted(_BUILTIN_TREES),
                       help="use a built-in dataset (default: figure-1a)")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        choices=("memory", "sqlite", "corpus"),
                        help="posting backend (default: memory, or sqlite "
                             "when --db is given)")
    parser.add_argument("--db", default=None,
                        help="sqlite database created with `repro-xks index`; "
                             "queries then run disk-backed, no XML parse")
    parser.add_argument("--doc", default=None,
                        help="document name inside --db (default: the only "
                             "stored document)")


def _positive_int(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return value


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=4,
                        help="engine-pool worker threads (default: 4)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="per-worker query-result cache capacity "
                             "(0 disables caching)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission bound: concurrent requests past the "
                             "front door before load shedding")
    parser.add_argument("--request-timeout", type=float, default=None,
                        help="per-request deadline in seconds (default: none)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log (to stderr) and count requests slower than "
                             "this many milliseconds (default: off)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject deterministic storage faults, e.g. "
                             "'seed=7,error=0.05,latency=0.1,"
                             "latency-ms=2,delay=100,max-faults=25' "
                             "(needs a store-backed backend)")
    parser.add_argument("--compact-segments", type=int, default=None,
                        metavar="N",
                        help="compact on the write that leaves N or more "
                             "delta segments (needs --backend corpus --db; "
                             "default: off)")


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #
def _command_index(arguments: argparse.Namespace) -> int:
    if arguments.delete:
        return _command_index_delete(arguments)
    if arguments.documents and arguments.dataset:
        print("give XML file(s) or --dataset, not both", file=sys.stderr)
        return 2
    if arguments.update and arguments.force:
        print("--update and --force are different write paths: --update "
              "shadows the old version in a delta segment, --force rewrites "
              "base rows; pick one", file=sys.stderr)
        return 2
    if arguments.name and len(arguments.documents) > 1:
        print("--name only applies to a single document; corpus ingestion "
              "names each document after its file stem", file=sys.stderr)
        return 2
    # (name, tree factory) pairs: parsing is deferred so a naming clash is
    # reported before any XML is read.
    pending: List[tuple] = []
    if arguments.documents:
        for path in arguments.documents:
            name = (arguments.name if len(arguments.documents) == 1
                    and arguments.name else Path(path).stem)
            pending.append((name, lambda p=path: parse_file(p)))
    elif arguments.dataset:
        dataset = arguments.dataset
        pending.append((arguments.name or dataset,
                        _BUILTIN_TREES[dataset]))
    else:
        print("nothing to index: give XML file(s) or --dataset",
              file=sys.stderr)
        return 2
    names = [name for name, _ in pending]
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        print(f"duplicate document name(s): {', '.join(clashes)} "
              f"(rename the files or index them separately with --name)",
              file=sys.stderr)
        return 2
    store = SQLiteStore(arguments.db)
    stored = store.documents()
    if arguments.update:
        # Delta-segment path: new and changed versions land as immutable
        # segments; nothing existing is rewritten, so no guard applies.
        for name, tree_factory in pending:
            segment = store.update_document(tree_factory(), name)
            stats = store.document_stats(name)
            verb = "updated" if name in stored else "added"
            print(f"{verb} {name!r} in {arguments.db} (delta segment "
                  f"{segment}): {stats['nodes']} element rows, "
                  f"{stats['keywords']} keywords, {stats['labels']} labels")
        print(f"{arguments.db} now carries {store.segment_count()} delta "
              f"segment(s); fold them with `repro-xks compact "
              f"--db {arguments.db}`")
        return 0
    foreign = sorted(set(stored) - set(names))
    growing = [name for name in names if name not in stored]
    # --force only governs replacing same-named documents; adding *new*
    # documents next to existing ones grows a corpus and needs an explicit
    # --add so corpora are never mixed by accident.
    if foreign and growing and not arguments.add:
        print(f"{arguments.db} already holds other document(s): "
              f"{', '.join(foreign)} (use --add to grow the corpus)",
              file=sys.stderr)
        return 1
    # Every conflict is decidable up front; report before ingesting anything
    # so a failed run never leaves the database partially grown.
    replaced = [name for name in names if name in stored]
    if replaced and not arguments.force:
        print(f"document(s) {', '.join(replaced)} already stored in "
              f"{arguments.db} (use --force to replace)", file=sys.stderr)
        return 1
    for name, tree_factory in pending:
        if name in stored:
            store.drop_document(name)
        store.store_tree(tree_factory(), name)
        stats = store.document_stats(name)
        print(f"indexed {name!r} into {arguments.db}: {stats['nodes']} "
              f"element rows, {stats['keywords']} keywords, "
              f"{stats['labels']} labels")
    documents = store.documents()
    if len(documents) > 1:
        print(f"{arguments.db} now holds {len(documents)} documents "
              f"({', '.join(documents)}); search them together with "
              f"--backend corpus")
    return 0


def _command_index_delete(arguments: argparse.Namespace) -> int:
    """``index --delete DOC_ID``: tombstone stored document(s)."""
    if arguments.documents or arguments.dataset:
        print("--delete removes stored documents; it takes no XML file or "
              "--dataset", file=sys.stderr)
        return 2
    if arguments.update or arguments.force or arguments.add:
        print("--delete cannot be combined with --update/--force/--add",
              file=sys.stderr)
        return 2
    if not Path(arguments.db).exists():
        print(f"no such database file: {arguments.db}", file=sys.stderr)
        return 2
    store = SQLiteStore(arguments.db)
    for name in arguments.delete:
        try:
            segment = store.delete_document(name)
        except DocumentNotFound:
            stored = store.documents()
            print(f"no document {name!r} in {arguments.db}"
                  + (f"; stored: {', '.join(stored)}" if stored else ""),
                  file=sys.stderr)
            return 1
        print(f"deleted {name!r} from {arguments.db} (tombstone segment "
              f"{segment})")
    remaining = store.documents()
    print(f"{arguments.db} now holds {len(remaining)} live document(s)"
          + (f" ({', '.join(remaining)})" if remaining else "")
          + f"; reclaim space with `repro-xks compact --db {arguments.db}`")
    return 0


def _command_compact(arguments: argparse.Namespace) -> int:
    """``compact --db``: fold delta segments into the base generation."""
    if not Path(arguments.db).exists():
        raise CliError(f"no such database file: {arguments.db} "
                       f"(create it with `repro-xks index`)")
    store = SQLiteStore(arguments.db)
    stats = store.compact()
    documents = store.documents()
    print(f"compacted {arguments.db}: folded {stats['folded']} updated "
          f"document(s), dropped {stats['dropped']} deleted document(s), "
          f"absorbed {stats['segments']} delta segment(s); "
          f"{len(documents)} live document(s) remain")
    return 0


def _command_verify(arguments: argparse.Namespace) -> int:
    """``verify --db``: run the integrity checks, exit nonzero when dirty."""
    import json

    from .storage import verify_database

    if not Path(arguments.db).exists():
        raise CliError(f"no such database file: {arguments.db} "
                       f"(create it with `repro-xks index`)")
    report = verify_database(arguments.db)
    if arguments.json:
        print(json.dumps(report.payload(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _command_search(arguments: argparse.Namespace) -> int:
    engine = _build_engine(arguments)
    query = _resolve_query(arguments.query)
    if arguments.top_k is not None:
        return _ranked_search(engine, query, arguments)
    if arguments.early_terminate:
        raise CliError("--early-terminate needs --top-k")
    trace = None
    if arguments.trace:
        result, trace = engine.search_traced(query, arguments.algorithm)
    else:
        result = engine.search(query, arguments.algorithm)
    print(f"query: {result.query}  algorithm: {result.algorithm}  "
          f"backend: {engine.backend_id}  fragments: {result.count}")
    print(engine.render_result(result, show_text=not arguments.no_text))
    _print_trace(trace)
    return 0


def _ranked_search(engine: CorpusSearchEngine, query: str,
                   arguments: argparse.Namespace) -> int:
    """``search --top-k``: corpus-comparable ranked retrieval."""
    from .core import EmptyQueryError, explain_score, render_score_explanation

    if arguments.top_k < 0:
        raise CliError("--top-k must be non-negative")
    try:
        outcome = engine.rank_search(
            query, arguments.algorithm, top_k=arguments.top_k,
            early_terminate=arguments.early_terminate)
    except EmptyQueryError as error:
        raise CliError(str(error)) from None
    print(f"query: {query}  algorithm: {arguments.algorithm}  "
          f"backend: {engine.backend_id}  top-k: {arguments.top_k}  "
          f"documents visited: {outcome.docs_visited}"
          f"/{outcome.docs_selected}")
    for position, entry in enumerate(outcome.ranked, start=1):
        print(f"{position:3d}. [{entry.doc_id}] root {entry.fragment.root}")
        print(render_score_explanation(explain_score(entry.ranked),
                                       indent="     "))
    return 0


def _command_compare(arguments: argparse.Namespace) -> int:
    engine = _build_engine(arguments)
    query = _resolve_query(arguments.query)
    trace = None
    if arguments.trace:
        outcome, trace = engine.compare_traced(query)
    else:
        outcome = engine.compare(query)
    summary = outcome.summary
    print(f"query: {query}")
    print(f"documents: {len(outcome.documents)}  "
          f"mean CFR: {summary['mean_cfr']:.3f}  "
          f"mean APR': {summary['mean_apr_prime']:.3f}  "
          f"mean Max APR: {summary['mean_max_apr']:.3f}")
    for doc_id, document_outcome in outcome.documents:
        _print_comparison_report(document_outcome.report,
                                 prefix=f"[{doc_id}] ")
    _print_trace(trace)
    return 0


def _print_trace(trace) -> None:
    """Render a finished trace after a command's main output (if traced)."""
    if trace is not None:
        from .obs import render_trace

        print()
        print(render_trace(trace))


def _print_comparison_report(report, prefix: str = "") -> None:
    print(f"{prefix}RTFs: {report.lca_count}  CFR: {report.cfr:.3f}  "
          f"APR': {report.apr_prime:.3f}  Max APR: {report.max_apr:.3f}")
    for comparison in report.comparisons:
        marker = "=" if comparison.identical else "≠"
        print(f"{prefix}  root {comparison.root} {marker}  MaxMatch keeps "
              f"{comparison.maxmatch_size}, ValidRTF keeps "
              f"{comparison.validrtf_size} (extra pruned "
              f"{comparison.extra_pruned})")


def _command_explain(arguments: argparse.Namespace) -> int:
    from .core import render_explanation  # local import keeps startup light

    tree = _load_tree(arguments)
    query = _resolve_query(arguments.query)
    engine = SearchEngine(tree)
    explanations = engine.explain(query, arguments.algorithm)
    print(f"query: {query}  algorithm: {arguments.algorithm}  "
          f"fragments: {len(explanations)}")
    for explanation in explanations:
        print()
        print(render_explanation(explanation,
                                 show_kept=not arguments.discarded_only))
    comparison = engine.explain_comparison(query)
    summary = comparison.summary()
    print()
    print(f"ValidRTF vs MaxMatch: {summary['false_positive_fixes']} "
          f"false-positive fix(es), {summary['redundancy_fixes']} "
          f"redundancy fix(es)")
    for difference in comparison.differences:
        print(f"  {difference.dewey} <{difference.label}> — {difference.kind.value}")
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    from .bench import (AnswerParityError, render_figure5, render_figure6,
                        run_core_bench, write_core_bench)

    backends = list(dict.fromkeys(arguments.backend or ["memory"]))
    try:
        payload = run_core_bench(datasets=arguments.dataset, backends=backends,
                                 repetitions=arguments.repetitions,
                                 limit=arguments.limit)
    except AnswerParityError as error:
        print(f"answer parity violated: {error}", file=sys.stderr)
        return 1
    for dataset in payload["figures"]:
        for backend in backends:
            print(render_figure5(payload, dataset, backend))
            print()
        print(render_figure6(payload, dataset))
        print()
    for summary in payload["summary"]:
        print(f"{summary['dataset']}/{summary['backend']}/"
              f"{summary['algorithm']}: {summary['total_ms']:.2f} ms")
    if arguments.output:
        path = write_core_bench(payload, arguments.output)
        print(f"artefact written to {path}")
    return 0


def _command_datasets(arguments: argparse.Namespace) -> int:
    names = [arguments.name] if arguments.name else sorted(_BUILTIN_TREES)
    for name in names:
        tree = _BUILTIN_TREES[name]()
        profile = document_profile(tree, InvertedIndex(tree), name=name)
        print(f"{name}: {profile.node_count} nodes, depth {profile.max_depth}, "
              f"{profile.distinct_labels} labels, vocabulary "
              f"{profile.vocabulary_size}")
        if arguments.output:
            path = f"{arguments.output}{name}.xml"
            write_xml_file(tree, path)
            print(f"  written to {path}")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from .service import SearchServer

    config, tree = _service_setup(arguments)
    try:
        service = config.build(tree)
    except ValueError as error:
        raise CliError(str(error)) from None
    server = SearchServer(service, arguments.host, arguments.port)

    async def main() -> None:
        host, port = await server.start()
        print(f"serving backend={config.backend} workers={config.workers} "
              f"on {host}:{port} (Ctrl-C stops)")
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _command_metrics(arguments: argparse.Namespace) -> int:
    """Scrape a live server's merged registry and print it as Prometheus
    exposition text."""
    from .obs import render_prometheus
    from .service import ServiceClient

    host, _, port = arguments.address.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"--address must be HOST:PORT, got "
                       f"{arguments.address!r}")
    try:
        with ServiceClient(host, int(port)) as client:
            snapshot = client.metrics()
    except (ConnectionError, OSError) as error:
        raise CliError(f"cannot scrape {arguments.address}: "
                       f"{error}") from None
    print(render_prometheus(snapshot), end="")
    return 0


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _resolve_stored_document(arguments: argparse.Namespace) -> str:
    """The document name a ``--db`` invocation should serve.

    Shared by ``search``/``compare`` (:func:`_build_engine`) and
    ``serve`` (:func:`_service_setup`): validates the database
    file exists and holds documents, and resolves ``--doc`` (defaulting to
    the only stored document).
    """
    if arguments.file:
        raise CliError("--db and --file are different documents; give "
                       "one or the other")
    if not Path(arguments.db).exists():
        raise CliError(f"no such database file: {arguments.db} "
                       f"(create it with `repro-xks index`)")
    store = SQLiteStore(arguments.db)
    documents = store.documents()
    store.close()
    if not documents:
        raise CliError(f"{arguments.db} holds no indexed documents "
                       f"(run `repro-xks index` first)")
    document = arguments.doc or (
        documents[0] if len(documents) == 1 else None)
    if document is None:
        raise CliError(f"{arguments.db} holds several documents "
                       f"({', '.join(documents)}); pick one with --doc")
    if document not in documents:
        raise CliError(f"no document {document!r} in {arguments.db}; "
                       f"stored: {', '.join(documents)}")
    return document


def _resolve_corpus_documents(arguments: argparse.Namespace):
    """The document subset a corpus ``--db`` invocation should serve.

    ``None`` means every stored document; ``--doc`` restricts to one (doc ids
    can also be filtered per request through the service's ``doc_filter``).
    """
    if arguments.file:
        raise CliError("--db and --file are different documents; give "
                       "one or the other")
    if not Path(arguments.db).exists():
        raise CliError(f"no such database file: {arguments.db} "
                       f"(create it with `repro-xks index`)")
    store = SQLiteStore(arguments.db)
    documents = store.documents()
    store.close()
    if not documents:
        raise CliError(f"{arguments.db} holds no indexed documents "
                       f"(run `repro-xks index` first)")
    if arguments.doc:
        if arguments.doc not in documents:
            raise CliError(f"no document {arguments.doc!r} in {arguments.db}; "
                           f"stored: {', '.join(documents)}")
        return [arguments.doc]
    return None


def _service_setup(arguments: argparse.Namespace):
    """The (ServiceConfig, tree) pair of a serve invocation.

    Mirrors :func:`_build_engine`'s backend resolution: ``--db`` serves an
    already-indexed sqlite file without parsing any XML; otherwise the
    document is loaded/generated and handed to the pool builder.
    """
    from .service import ServiceConfig

    backend = arguments.backend or ("sqlite" if arguments.db else "memory")
    tree = None
    document = "service"
    documents = None
    if backend == "sqlite" and arguments.db:
        document = _resolve_stored_document(arguments)
    elif backend == "corpus" and arguments.db:
        # Validates the database; --doc restricts the served subset.
        resolved = _resolve_corpus_documents(arguments)
        documents = tuple(resolved) if resolved else None
    else:
        if arguments.db:
            raise CliError(f"--db needs --backend sqlite or corpus, "
                           f"not {backend!r}")
        tree = _load_tree(arguments)
        document = _document_name(arguments)
    if arguments.workers < 1:
        raise CliError(f"--workers must be positive, got {arguments.workers}")
    if arguments.max_inflight < 1:
        raise CliError(f"--max-inflight must be positive, got "
                       f"{arguments.max_inflight}")
    if arguments.request_timeout is not None and arguments.request_timeout <= 0:
        raise CliError(f"--request-timeout must be positive, got "
                       f"{arguments.request_timeout}")
    if arguments.slow_query_ms is not None and arguments.slow_query_ms < 0:
        raise CliError(f"--slow-query-ms must be >= 0, got "
                       f"{arguments.slow_query_ms}")
    if arguments.fault_plan:
        from .faults import FaultPlan
        try:
            FaultPlan.parse(arguments.fault_plan)
        except ValueError as error:
            raise CliError(f"bad --fault-plan: {error}") from None
        if backend not in ("sqlite", "corpus") or \
                (backend == "corpus" and not arguments.db):
            raise CliError("--fault-plan needs a store-backed backend "
                           "(--backend sqlite, or corpus with --db)")
    if arguments.compact_segments is not None:
        if arguments.compact_segments < 1:
            raise CliError(f"--compact-segments must be positive, got "
                           f"{arguments.compact_segments}")
        if backend != "corpus" or not arguments.db or documents is not None:
            raise CliError("--compact-segments needs a mutable corpus "
                           "backend (--backend corpus --db, without --doc)")
    config = ServiceConfig(
        backend=backend,
        workers=arguments.workers,
        cache_size=max(0, arguments.cache_size),
        db_path=arguments.db,
        document=document,
        max_inflight=arguments.max_inflight,
        timeout_seconds=arguments.request_timeout,
        documents=documents,
        slow_query_seconds=(arguments.slow_query_ms / 1000.0
                            if arguments.slow_query_ms is not None else None),
        fault_plan=arguments.fault_plan,
        compact_segments=arguments.compact_segments,
    )
    return config, tree


def _load_tree(arguments: argparse.Namespace) -> XMLTree:
    if getattr(arguments, "file", None):
        return parse_file(arguments.file)
    return _BUILTIN_TREES[arguments.dataset]()


def _document_name(arguments: argparse.Namespace) -> str:
    """The doc id of a ``--file`` or ``--dataset`` document."""
    return Path(arguments.file).stem if arguments.file else arguments.dataset


class CliError(RuntimeError):
    """Raised by helpers when a command cannot proceed; printed, exit 2."""


def _build_engine(arguments: argparse.Namespace) -> CorpusSearchEngine:
    """The corpus engine for a search/compare invocation.

    ``--db`` opens an indexed database and searches **disk-backed, without
    any document in RAM** (rendering degrades to Dewey/label output): every
    stored document with ``--backend corpus`` (or the ``--doc`` subset), the
    one ``--doc`` document with ``--backend sqlite``.  Each document serves
    its live generation, so one living in a delta segment (``index
    --update``) answers exactly like a base-generation one.  Without
    ``--db`` the ``--file`` or
    ``--dataset`` document is a one-document corpus named after its file
    stem or dataset name: held in memory (``memory``, ``corpus``) or
    shredded into an in-process store first (``sqlite``).
    """
    backend = arguments.backend or ("sqlite" if arguments.db else "memory")
    if arguments.db:
        if backend == "corpus":
            documents = _resolve_corpus_documents(arguments)
        elif backend == "sqlite":
            documents = [_resolve_stored_document(arguments)]
        else:
            raise CliError(f"--db needs --backend sqlite or corpus, "
                           f"not {backend!r}")
        return CorpusSearchEngine.from_store(SQLiteStore(arguments.db),
                                             documents=documents)
    tree = _load_tree(arguments)
    name = _document_name(arguments)
    if backend == "sqlite":
        store = SQLiteStore()
        store.store_tree(tree, name)
        return CorpusSearchEngine.from_store(store)
    return CorpusSearchEngine.from_trees({name: tree})


def _resolve_query(raw: str) -> str:
    return PAPER_QUERIES.get(raw.upper(), raw)


if __name__ == "__main__":
    sys.exit(main())
