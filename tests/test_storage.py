"""Tests for the relational shredding store (schema, shredder, both backends)."""

from __future__ import annotations

import re

import pytest

from repro.core import SearchEngine, UnknownAlgorithmError
from repro.storage import (
    DocumentAlreadyStored,
    DocumentNotFound,
    MemoryStore,
    SQLitePostingSource,
    SQLiteStore,
    agreement_with_index,
    decode_dewey,
    encode_dewey,
    shred_tree,
)
from repro.datasets import PAPER_QUERIES
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode, spec, tree_from_spec
from test_backend_parity import build_source

D = DeweyCode.parse

BACKENDS = [MemoryStore, SQLiteStore]


class TestDeweyEncoding:
    def test_round_trip(self):
        components = (0, 2, 10, 3)
        assert decode_dewey(encode_dewey(components)) == components

    def test_string_order_matches_document_order(self):
        first = encode_dewey((0, 2))
        second = encode_dewey((0, 10))
        assert first < second  # zero padding keeps 2 < 10


class TestShredder:
    def test_row_counts(self, publications):
        shredded = shred_tree(publications, "pub")
        assert shredded.name == "pub"
        assert shredded.node_count == publications.size()
        assert shredded.value_count > 0
        assert len(shredded.labels) == len(publications.labels())

    def test_label_number_sequence_matches_depth(self, publications):
        shredded = shred_tree(publications, "pub")
        by_dewey = {row.dewey: row for row in shredded.elements}
        row = by_dewey[encode_dewey((0, 2, 0, 1))]
        assert row.level == 3
        assert len(row.label_number_sequence.split(".")) == 4

    def test_content_feature_is_min_max(self, publications):
        shredded = shred_tree(publications, "pub")
        by_dewey = {row.dewey: row for row in shredded.elements}
        row = by_dewey[encode_dewey((0, 0))]
        assert row.content_feature_min <= row.content_feature_max

    def test_value_rows_split_by_origin(self, team):
        shredded = shred_tree(team, "team")
        name_rows = [row for row in shredded.values
                     if row.dewey == encode_dewey((0, 0))]
        origins = {row.attribute for row in name_rows}
        assert "" in origins          # label word
        assert "#text" in origins     # text word


@pytest.mark.parametrize("backend_class", BACKENDS)
class TestBackends:
    def test_store_and_stats(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        stats = store.document_stats("pub")
        assert stats["nodes"] == publications.size()
        assert stats["labels"] == len(publications.labels())
        assert store.documents() == ["pub"]

    def test_duplicate_name_rejected(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        with pytest.raises(DocumentAlreadyStored):
            store.store_tree(publications, "pub")

    def test_missing_document_raises(self, backend_class):
        store = backend_class()
        with pytest.raises(DocumentNotFound):
            store.document_stats("missing")
        with pytest.raises(DocumentNotFound):
            store.keyword_deweys("missing", "xml")

    def test_keyword_lookup_matches_paper_lists(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        assert [str(code) for code in store.keyword_deweys("pub", "liu")] == \
            ["0.2.0.0.0.0", "0.2.0.3.0"]
        assert [str(code) for code in store.keyword_deweys("pub", "VLDB")] == ["0.0"]
        assert store.keyword_deweys("pub", "absent") == []

    def test_keyword_nodes_for_query(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        lists = store.keyword_nodes("pub", ["Liu", "keyword"])
        assert set(lists) == {"liu", "keyword"}
        assert len(lists["keyword"]) == 3

    def test_frequency_and_labels(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        assert store.keyword_frequency("pub", "title") == 3
        assert "article" in store.labels("pub")
        words = ContentAnalyzer(publications).node_content(
            publications.node(D("0.2.0")))
        assert store.element_row("pub", D("0.2.0")) == \
            ("article", (min(words), max(words)))
        assert store.element_row("pub", D("0.9.9")) is None

    def test_drop_document(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        store.drop_document("pub")
        assert store.documents() == []
        with pytest.raises(DocumentNotFound):
            store.drop_document("pub")

    def test_agreement_with_inverted_index(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        agreement = agreement_with_index(
            publications, store, "pub",
            ["xml", "keyword", "liu", "vldb", "skyline", "article"])
        assert all(agreement.values())

    def test_multiple_documents(self, backend_class, publications, team):
        store = backend_class()
        store.store_tree(publications, "pub")
        store.store_tree(team, "team")
        assert store.documents() == ["pub", "team"]
        assert store.keyword_frequency("team", "position") == 3
        assert store.keyword_frequency("pub", "position") == 0


@pytest.mark.parametrize("backend_class", BACKENDS)
class TestKeywordImpact:
    def test_impact_agrees_with_posting_scan(self, backend_class,
                                             publications):
        from repro.index import impact_from_postings

        store = backend_class()
        store.store_tree(publications, "pub")
        for keyword in ("liu", "xml", "keyword", "vldb", "article"):
            impact = store.keyword_impact("pub", keyword)
            expected = impact_from_postings(
                store.keyword_deweys("pub", keyword))
            assert impact == expected
            assert impact.count == store.keyword_frequency("pub", keyword)

    def test_absent_keyword_impact_is_empty(self, backend_class,
                                            publications):
        from repro.index import EMPTY_IMPACT

        store = backend_class()
        store.store_tree(publications, "pub")
        impact = store.keyword_impact("pub", "absent")
        assert impact == EMPTY_IMPACT
        assert impact.empty

    def test_missing_document_raises(self, backend_class):
        store = backend_class()
        with pytest.raises(DocumentNotFound):
            store.keyword_impact("missing", "xml")


class TestSQLiteSpecifics:
    def test_file_database_persists(self, tmp_path, publications):
        path = tmp_path / "store.db"
        with SQLiteStore(path) as store:
            store.store_tree(publications, "pub")
        with SQLiteStore(path) as reopened:
            assert reopened.documents() == ["pub"]
            assert reopened.keyword_frequency("pub", "xml") == 3

    def test_label_number_sequence_query(self, publications):
        with SQLiteStore() as store:
            store.store_tree(publications, "pub")
            sequence = store.label_number_sequence("pub", D("0.2.0"))
            assert sequence is not None
            assert len(sequence.split(".")) == 3
            assert store.label_number_sequence("pub", D("0.9")) is None

    def test_legacy_sentinel_rows_recompute_impact(self, tmp_path,
                                                   publications):
        # Rows written before the impact-metadata column carry the -1
        # sentinel; the impact must then come from a lazy posting scan.
        import sqlite3

        from repro.index import impact_from_postings

        path = tmp_path / "legacy.db"
        with SQLiteStore(path) as store:
            store.store_tree(publications, "pub")
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE posting SET max_depth = -1")
        with SQLiteStore(path) as reopened:
            impact = reopened.keyword_impact("pub", "liu")
            assert impact == impact_from_postings(
                reopened.keyword_deweys("pub", "liu"))
            assert not impact.empty

    def test_impact_column_added_to_pre_impact_database(self, tmp_path,
                                                        publications):
        # Opening a database created before the max_depth column migrates
        # it in place (ALTER TABLE with the sentinel default).
        import sqlite3

        path = tmp_path / "old.db"
        with SQLiteStore(path) as store:
            store.store_tree(publications, "pub")
        with sqlite3.connect(path) as connection:
            connection.execute("ALTER TABLE posting DROP COLUMN max_depth")
        with SQLiteStore(path) as reopened:
            columns = {row[1] for row in reopened._connection.execute(
                "PRAGMA table_info(posting)")}
            assert "max_depth" in columns
            impact = reopened.keyword_impact("pub", "liu")
            assert impact.count == reopened.keyword_frequency("pub", "liu")


# ---------------------------------------------------------------------- #
# Read cost: a node fetch or an existence check costs the rows it reads
# ---------------------------------------------------------------------- #
def bibliography(records: int):
    """``records`` articles; appending more leaves the first title's Dewey
    code and its rows as they were."""
    return tree_from_spec(spec("dblp", None, *[
        spec("article", None, spec("title", f"xml keyword search {record}"),
             spec("author", f"kong{record} liu"), spec("year", "2009"))
        for record in range(records)]))


def vm_steps(store, call) -> int:
    """The sqlite VM instructions ``call`` runs on the store's connection."""
    steps = 0

    def tick() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection = store._connection
    connection.set_progress_handler(tick, 1)
    try:
        call()
    finally:
        connection.set_progress_handler(None, 1)
    return steps


def read_costs(records: int, layout: str):
    """VM steps of each cold node fetch and existence check of one store."""
    source = build_source(bibliography(records), layout)
    store, title = source.store, D("0.0.0")
    calls = {
        "prefetch_nodes": lambda: source.prefetch_nodes([title], [title]),
        "node_words": lambda: store.node_words("doc", title),
        "_require": lambda: store._require("doc"),
        "has_packed_postings": lambda: store.has_packed_postings("doc"),
    }
    if layout != "sqlite":
        calls["location_of"] = lambda: store.location_of("doc")
    costs = {name: vm_steps(store, call) for name, call in calls.items()}
    # The prefetch filled the caches: the steps bought the right rows.
    assert source.node_label(title) == "title"
    assert source.node_words(title) == {"title", "xml", "keyword", "search",
                                        "0"}
    store.close()
    return costs


class TestReadCostIsPerRow:
    """A cold tree-free read must not scan the document: fetching one
    node's label and words, and checking that a document or its packed
    postings exist, take the same sqlite VM steps on a document a hundred
    times larger.  This pins the query plans (index seeks, ``EXISTS``) as a
    deterministic count, where a scan through the wrong index or a
    ``COUNT(*)`` grows with the document."""

    @pytest.mark.parametrize("layout", ("sqlite", "segmented-base",
                                        "segmented"))
    def test_steps_do_not_grow_with_the_document(self, layout):
        assert read_costs(3, layout) == read_costs(303, layout)


def statements(store, call) -> list:
    """The SQL statements ``call`` runs on the store's connection."""
    seen = []
    connection = store._connection
    connection.set_trace_callback(seen.append)
    try:
        call()
    finally:
        connection.set_trace_callback(None)
    return seen


class TestMinmaxReadsNoValueRows:
    """A ``minmax`` record tree takes each node's cID from the element row
    its label comes from, so a tree-free search with packed postings runs
    no statement on the value tables; ``exact`` mode still reads the
    keyword nodes' words there."""

    @pytest.mark.parametrize("layout", ("sqlite", "segmented-base",
                                        "segmented"))
    @pytest.mark.parametrize("cid_mode", ("minmax", "exact"))
    def test_value_tables_only_in_exact_mode(self, publications, layout,
                                             cid_mode):
        source = build_source(publications, layout)
        engine = SearchEngine(source=source, cid_mode=cid_mode)
        seen = statements(source.store, lambda: [
            engine.search(PAPER_QUERIES[name]) for name in ("Q1", "Q2", "Q3")])
        assert any("FROM element" in statement
                   or "FROM segment_element" in statement
                   for statement in seen)
        value_reads = [statement for statement in seen
                       if re.search(r"\bFROM (segment_)?value\b", statement)]
        assert bool(value_reads) == (cid_mode == "exact"), value_reads


class TestStoreBackedSearch:
    def test_search_matches_engine(self, store_engine, publications,
                                   publications_engine):
        search = store_engine(publications, SQLiteStore(), "pub")
        for query_name in ("Q1", "Q2", "Q3"):
            query = PAPER_QUERIES[query_name]
            stored_result = search.search(query, "validrtf")
            engine_result = publications_engine.search(query, "validrtf")
            assert stored_result.roots() == engine_result.roots()
            stored_nodes = [fragment.kept_set() for fragment in stored_result]
            engine_nodes = [fragment.kept_set() for fragment in engine_result]
            assert stored_nodes == engine_nodes

    def test_maxmatch_via_store(self, store_engine, team):
        search = store_engine(team, MemoryStore(), "team")
        result = search.search(PAPER_QUERIES["Q4"], "maxmatch")
        assert result.count == 1

    def test_unknown_algorithm_rejected(self, store_engine, team):
        search = store_engine(team, MemoryStore(), "team")
        with pytest.raises(UnknownAlgorithmError):
            search.search("grizzlies", "bogus")

    def test_frequency_report(self, store_engine, publications):
        search = store_engine(publications, MemoryStore(), "pub")
        report = {keyword: search.source.frequency(keyword)
                  for keyword in ("xml", "vldb", "absent")}
        assert report == {"xml": 3, "vldb": 1, "absent": 0}

    def test_keyword_nodes_from_store(self, store_engine, publications):
        search = store_engine(publications, MemoryStore(), "pub")
        assert search.keyword_nodes("xml")["xml"]


# ---------------------------------------------------------------------- #
# Multi-threaded store use (the serving layer's worker pool)
# ---------------------------------------------------------------------- #
class TestSQLiteStoreThreading:
    def test_per_thread_connections_share_one_database(self, publications,
                                                       publications_engine):
        """Worker threads searching one shared SQLiteStore agree with the
        in-memory engine — every thread gets its own connection but sees the
        same (shared-cache) database."""
        import threading

        store = SQLiteStore()
        store.store_tree(publications, "pub")
        expected = {
            name: publications_engine.search(PAPER_QUERIES[name]).roots()
            for name in ("Q1", "Q2", "Q3")
        }
        errors = []

        def work() -> None:
            try:
                engine = SearchEngine(source=SQLitePostingSource(store, "pub"))
                for name, roots in expected.items():
                    assert engine.search(PAPER_QUERIES[name]).roots() == roots
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        store.close()

    def test_memory_stores_stay_distinct(self, publications):
        """Two ``:memory:`` stores never alias one shared-cache database."""
        first = SQLiteStore()
        first.store_tree(publications, "pub")
        second = SQLiteStore()
        assert second.documents() == []
        assert first.documents() == ["pub"]
        first.close()
        second.close()

    def test_file_store_reopens_across_threads(self, publications, tmp_path):
        """A file-backed store built on one thread serves another thread."""
        import threading

        path = tmp_path / "threaded.db"
        store = SQLiteStore(path)
        store.store_tree(publications, "pub")
        seen = {}

        def read() -> None:
            seen["docs"] = store.documents()
            seen["freq"] = store.keyword_frequency("pub", "xml")

        thread = threading.Thread(target=read)
        thread.start()
        thread.join()
        assert seen == {"docs": ["pub"], "freq": 3}
        store.close()
