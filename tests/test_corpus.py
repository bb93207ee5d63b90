"""Corpus layer unit tests + the 3-document corpus golden regression.

The golden file ``tests/golden/corpus3.json`` stores the expected doc-tagged
fragments of a fixed 3-document corpus (the two paper figures plus a small
hand-written notes document whose vocabulary overlaps both) for every
algorithm, so a refactor that shifts every corpus backend identically still
fails here.  A second golden, ``tests/golden/corpus_updated.json``, pins the
same corpus after a fixed mutation sequence (update ``notes`` via a delta
segment, tombstone ``team``) and is asserted both on the live segment log
and after ``compact()``.  Regenerate — only when corpus semantics
intentionally change — with ``python tests/test_corpus.py regen``.
"""

from __future__ import annotations

import sys

import pytest

from fuzz_util import build_corpus_engine, store_corpus
from golden_loader import corpus_result_payload, load_golden, save_golden
from repro.core import ALGORITHM_NAMES
from repro.corpus import (
    CorpusPostingSource,
    CorpusSearchEngine,
    corpus_from_store,
    corpus_from_trees,
)
from repro.datasets import PAPER_QUERIES, publications_tree, team_tree
from repro.service import rank_stats_payload, ranking_payload
from repro.storage import SQLitePostingSource, SQLiteStore
from repro.storage.errors import DocumentNotFound
from repro.xmltree import SubtreeSpec, tree_from_spec

#: The corpus golden's query set: one per-document query per figure document
#: plus two queries whose keywords span several documents.
CORPUS3_QUERIES = {
    "pub-only": PAPER_QUERIES["Q1"],
    "team-only": PAPER_QUERIES["Q4"],
    "cross-name": "name",
    "cross-xml": "xml search",
}

CORPUS3_BACKENDS = ("memory", "sqlite")


def notes_tree():
    """A small deterministic third document overlapping both figure docs."""
    root = SubtreeSpec("notes")
    for text in ("xml search overview", "team name roster",
                 "keyword query basics"):
        root.add(SubtreeSpec("note", text))
    return tree_from_spec(root, name="notes")


def corpus3_trees():
    """The fixed 3-document corpus the golden file stores the truth for."""
    return {"publications": publications_tree(), "team": team_tree(),
            "notes": notes_tree()}


#: The mutated golden's query set: the corpus3 queries (``team-only`` now
#: proves the tombstone is honoured) plus one query only the *updated* notes
#: text can answer (proves the delta segment shadows the base version).
CORPUS_UPDATED_QUERIES = dict(CORPUS3_QUERIES,
                              **{"segment-update": "segment update"})


def updated_notes_tree():
    """The notes document's second version (one note text replaced)."""
    root = SubtreeSpec("notes")
    for text in ("xml search overview", "team name roster",
                 "segment update basics"):
        root.add(SubtreeSpec("note", text))
    return tree_from_spec(root, name="notes")


def corpus_updated_store():
    """corpus3 after the fixed mutation sequence the golden pins.

    Base generation holds all three documents; ``notes`` is then shadowed by
    an updated delta-segment version and ``team`` is tombstoned.
    """
    store = SQLiteStore()
    for doc_id, tree in corpus3_trees().items():
        store.store_tree(tree, doc_id)
    store.update_document(updated_notes_tree(), "notes")
    store.delete_document("team")
    return store


# ---------------------------------------------------------------------- #
# Golden regression
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corpus3_engines():
    trees = corpus3_trees()
    return {backend: build_corpus_engine(trees, backend)
            for backend in CORPUS3_BACKENDS}


@pytest.mark.parametrize("backend", CORPUS3_BACKENDS)
def test_corpus_fragments_match_stored_truth(corpus3_engines, backend):
    golden = load_golden("corpus3")
    engine = corpus3_engines[backend]
    for query_name, entry in golden["queries"].items():
        for algorithm in ALGORITHM_NAMES:
            result = engine.search(entry["text"], algorithm)
            assert corpus_result_payload(result) == \
                entry["algorithms"][algorithm], (query_name, algorithm, backend)


@pytest.mark.parametrize("compacted", (False, True),
                         ids=("segments", "compacted"))
def test_updated_corpus_fragments_match_stored_truth(compacted):
    """The mutated corpus answers the pinned truth — live log or folded."""
    golden = load_golden("corpus_updated")
    store = corpus_updated_store()
    if compacted:
        folded = store.compact()
        assert folded["folded"] == 1 and store.segment_count() == 0
    engine = CorpusSearchEngine.from_store(store)
    assert sorted(engine.source.doc_ids) == ["notes", "publications"]
    for query_name, entry in golden["queries"].items():
        for algorithm in ALGORITHM_NAMES:
            result = engine.search(entry["text"], algorithm)
            assert corpus_result_payload(result) == \
                entry["algorithms"][algorithm], \
                (query_name, algorithm, compacted)
    store.close()


def test_updated_golden_reflects_the_mutations():
    """The pinned truth really shows both the tombstone and the update."""
    golden = load_golden("corpus_updated")
    team_only = golden["queries"]["team-only"]["algorithms"]["validrtf"]
    assert all(entry["doc"] != "team" for entry in team_only["documents"])
    updated = golden["queries"]["segment-update"]["algorithms"]["validrtf"]
    assert [entry["doc"] for entry in updated["documents"]] == ["notes"]


def test_corpus_golden_spans_multiple_documents():
    """The stored truth really exercises cross-document retrieval."""
    golden = load_golden("corpus3")
    cross = golden["queries"]["cross-name"]["algorithms"]["validrtf"]
    assert len(cross["documents"]) >= 2
    assert [entry["doc"] for entry in cross["documents"]] == \
        sorted(entry["doc"] for entry in cross["documents"])


# ---------------------------------------------------------------------- #
# Ranked golden regression
# ---------------------------------------------------------------------- #
#: The ranked golden pins the early-terminated top-3 ranking (wire rows and
#: visit accounting) of the corpus3 queries for every algorithm, so a
#: refactor that shifts scores, order or the threshold driver's skipping on
#: every backend identically still fails here.
RANKED_TOP_K = 3


#: The ranked golden's engines: corpus3 per backend with the trees
#: resident, plus ``sqlite-tree-free``, the layout a database-served corpus
#: ranks on.
RANKED_CORPUS3_ENGINES = CORPUS3_BACKENDS + ("sqlite-tree-free",)


@pytest.fixture(scope="module")
def ranked_corpus3_engines():
    """corpus3 engines per entry of :data:`RANKED_CORPUS3_ENGINES`."""
    trees = corpus3_trees()
    return {
        "memory": CorpusSearchEngine(corpus_from_trees(trees), trees=trees),
        "sqlite": CorpusSearchEngine(store_corpus(trees, SQLiteStore()),
                                     trees=trees),
        "sqlite-tree-free": CorpusSearchEngine(
            store_corpus(trees, SQLiteStore())),
    }


def _ranked_entry(engine, text, algorithm):
    outcome = engine.rank_search(text, algorithm, top_k=RANKED_TOP_K,
                                 early_terminate=True)
    return {"ranking": ranking_payload(outcome.ranked),
            "rank_stats": rank_stats_payload(outcome)}


@pytest.mark.parametrize("backend", RANKED_CORPUS3_ENGINES)
def test_ranked_corpus_matches_stored_truth(ranked_corpus3_engines, backend):
    golden = load_golden("corpus_ranked")
    assert golden["top_k"] == RANKED_TOP_K
    engine = ranked_corpus3_engines[backend]
    for query_name, entry in golden["queries"].items():
        for algorithm in ALGORITHM_NAMES:
            assert _ranked_entry(engine, entry["text"], algorithm) == \
                entry["algorithms"][algorithm], \
                (query_name, algorithm, backend)


def test_ranked_golden_accounting_is_consistent():
    """The pinned truth itself proves the threshold driver skips work."""
    golden = load_golden("corpus_ranked")
    skipped_anywhere = False
    for entry in golden["queries"].values():
        for algorithm_entry in entry["algorithms"].values():
            stats = algorithm_entry["rank_stats"]
            assert stats["docs_visited"] + stats["docs_skipped"] == \
                stats["docs_selected"]
            assert stats["early_terminated"] is True
            assert stats["top_k"] == golden["top_k"]
            skipped_anywhere |= stats["docs_skipped"] > 0
    assert skipped_anywhere, "no golden query ever skipped a document"


# ---------------------------------------------------------------------- #
# Corpus posting sources: a sorted doc-id map, one store per disk corpus
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corpus3_source() -> CorpusPostingSource:
    return corpus_from_trees(corpus3_trees())


def test_sqlite_corpus_holds_every_document_in_one_store():
    """``corpus_from_store`` serves every document of one store (the layout
    a database-served corpus runs) through that one store."""
    trees = corpus3_trees()
    store = SQLiteStore()
    source = store_corpus(trees, store)
    documents = [source.document_source(doc_id) for doc_id in source.doc_ids]
    assert all(isinstance(document, SQLitePostingSource)
               for document in documents)
    assert all(document.store is store for document in documents)
    assert [document.document for document in documents] == \
        list(source.doc_ids) == store.documents() == sorted(trees)
    assert source.source_id == corpus_from_store(store).source_id


def test_unknown_documents_raise(corpus3_source):
    engine = CorpusSearchEngine(corpus3_source)
    with pytest.raises(DocumentNotFound):
        corpus3_source.document_source("nope")
    with pytest.raises(DocumentNotFound):
        engine.search("xml", doc_filter=["nope"])
    with pytest.raises(DocumentNotFound):
        engine.search("xml", doc_filter=[])


def test_corpus_cache_round_trip():
    engine = CorpusSearchEngine.from_trees(corpus3_trees(), cache_size=8)
    first = engine.search("name")
    again = engine.search("name")
    assert corpus_result_payload(first) == corpus_result_payload(again)
    stats = engine.cache_stats()
    assert stats.hits >= 1 and engine.cache_enabled
    engine.clear_cache()
    assert engine.cache_stats().size == 0


def test_corpus_rank_merges_across_documents():
    engine = CorpusSearchEngine.from_trees(corpus3_trees())
    ranked = engine.rank_search("name", top_k=3).ranked
    assert 0 < len(ranked) <= 3
    scores = [entry.score for entry in ranked]
    assert scores == sorted(scores, reverse=True)
    assert len({entry.doc_id for entry in
                engine.rank_search("name").ranked}) >= 2


# ---------------------------------------------------------------------- #
# CLI round trip: multi-file index, corpus search/compare, doc filter
# ---------------------------------------------------------------------- #
def test_cli_corpus_round_trip(tmp_path, capsys):
    from repro.cli import main
    from repro.xmltree import write_xml_file

    paths = []
    for doc_id, tree in corpus3_trees().items():
        path = tmp_path / f"{doc_id}.xml"
        write_xml_file(tree, path)
        paths.append(str(path))
    db = str(tmp_path / "corpus.db")
    assert main(["index", *paths, "--db", db]) == 0
    out = capsys.readouterr().out
    assert "3 documents" in out and "--backend corpus" in out
    # Growing the corpus without --add is refused (no accidental mixing),
    # and --force does not bypass the guard (it only replaces same names)...
    extra = tmp_path / "extra.xml"
    write_xml_file(notes_tree(), extra)
    assert main(["index", str(extra), "--db", db]) == 1
    assert main(["index", str(extra), "--db", db, "--force"]) == 1
    capsys.readouterr()
    # ...while --force replaces a same-named document in place.
    assert main(["index", str(tmp_path / "notes.xml"), "--db", db,
                 "--force"]) == 0
    capsys.readouterr()

    assert main(["search", "--db", db, "--backend", "corpus", "name"]) == 0
    out = capsys.readouterr().out
    assert "=== document notes" in out and "=== document team" in out
    assert main(["search", "--db", db, "--backend", "corpus", "--doc",
                 "team", "name"]) == 0
    out = capsys.readouterr().out
    assert "=== document team" in out and "notes" not in out
    assert main(["compare", "--db", db, "--backend", "corpus", "name"]) == 0
    out = capsys.readouterr().out
    assert "documents: 3" in out and "[team]" in out


def test_service_config_serves_corpus_document_subset(tmp_path):
    """ServiceConfig(documents=...) restricts a served corpus to the subset
    (regression: serve --backend corpus --doc used to be silently ignored)."""
    from repro.service import ServiceConfig
    from repro.storage import SQLiteStore

    db = str(tmp_path / "corpus.db")
    store = SQLiteStore(db)
    for doc_id, tree in corpus3_trees().items():
        store.store_tree(tree, doc_id)
    store.close()
    config = ServiceConfig(backend="corpus", workers=1, db_path=db,
                           documents=("team",))
    service = config.build()
    try:
        result = service.pool.search("name").result(timeout=30)
        assert set(result.doc_ids) == {"team"}
        engine_id = service.pool.backend_id
        assert "team" in engine_id and "notes" not in engine_id
    finally:
        service.close()


# ---------------------------------------------------------------------- #
# Regeneration entry point (not a test)
# ---------------------------------------------------------------------- #
def _golden_payload(engine, dataset: str, queries) -> dict:
    payload = {"dataset": dataset, "queries": {}}
    for query_name, text in queries.items():
        payload["queries"][query_name] = {
            "text": text,
            "algorithms": {
                algorithm: corpus_result_payload(engine.search(text,
                                                               algorithm))
                for algorithm in ALGORITHM_NAMES
            },
        }
    return payload


def _regenerate() -> None:
    engine = CorpusSearchEngine.from_trees(corpus3_trees())
    path = save_golden("corpus3", _golden_payload(engine, "corpus3",
                                                  CORPUS3_QUERIES))
    print(f"corpus golden regenerated at {path}")
    store = corpus_updated_store()
    updated = CorpusSearchEngine.from_store(store)
    path = save_golden("corpus_updated",
                       _golden_payload(updated, "corpus_updated",
                                       CORPUS_UPDATED_QUERIES))
    store.close()
    print(f"updated-corpus golden regenerated at {path}")
    ranked_engine = CorpusSearchEngine.from_trees(corpus3_trees())
    ranked_payload = {"dataset": "corpus_ranked", "top_k": RANKED_TOP_K,
                      "queries": {}}
    for query_name, text in CORPUS3_QUERIES.items():
        ranked_payload["queries"][query_name] = {
            "text": text,
            "algorithms": {
                algorithm: _ranked_entry(ranked_engine, text, algorithm)
                for algorithm in ALGORITHM_NAMES
            },
        }
    path = save_golden("corpus_ranked", ranked_payload)
    print(f"ranked-corpus golden regenerated at {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["regen"]:
        _regenerate()
    else:
        print("usage: python tests/test_corpus.py regen", file=sys.stderr)
        sys.exit(2)
