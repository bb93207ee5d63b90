"""Tests for the relational shredding store: schema and its version stamp,
shredder, and both stores read through their posting sources."""

from __future__ import annotations

import re
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.cli import main
from repro.core import SearchEngine, UnknownAlgorithmError
from repro.index import EMPTY_IMPACT, InvertedIndex, impact_from_postings
from repro.storage import (
    SCHEMA_VERSION,
    DocumentAlreadyStored,
    DocumentNotFound,
    SchemaVersionError,
    SegmentedStore,
    SQLitePostingSource,
    SQLiteStore,
    decode_dewey,
    encode_dewey,
    shred_tree,
    source_for_store,
    verify_database,
)
from repro.storage.sqlite_backend import check_schema
from repro.datasets import PAPER_QUERIES
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode, spec, tree_from_spec
from test_backend_parity import build_source

D = DeweyCode.parse

BACKENDS = [SQLiteStore, SegmentedStore]


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
            source_for_store(store, "missing").postings("xml")

    def test_keyword_lookup_matches_paper_lists(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        source = source_for_store(store, "pub")
        assert [str(code) for code in source.postings("liu").deweys] == \
            ["0.2.0.0.0.0", "0.2.0.3.0"]
        assert [str(code) for code in source.postings("VLDB").deweys] == ["0.0"]
        assert list(source.postings("absent").deweys) == []

    def test_keyword_nodes_for_query(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        lists = source_for_store(store, "pub").keyword_nodes(["Liu", "keyword"])
        assert set(lists) == {"liu", "keyword"}
        assert len(lists["keyword"]) == 3

    def test_frequency_and_labels(self, backend_class, publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        source = source_for_store(store, "pub")
        assert source.frequency("title") == 3
        words = ContentAnalyzer(publications).node_content(
            publications.node(D("0.2.0")))
        assert source.node_label(D("0.2.0")) == "article"
        assert source.node_cid(D("0.2.0")) == (min(words), max(words))
        assert source.node_label(D("0.9.9")) is None

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
        source = source_for_store(store, "pub")
        index = InvertedIndex(publications)
        for keyword in ("xml", "keyword", "liu", "vldb", "skyline", "article",
                        "absentkeyword"):
            assert source.postings(keyword).deweys == \
                index.postings(keyword).deweys, keyword

    def test_multiple_documents(self, backend_class, publications, team):
        store = backend_class()
        store.store_tree(publications, "pub")
        store.store_tree(team, "team")
        assert store.documents() == ["pub", "team"]
        assert source_for_store(store, "team").frequency("position") == 3
        assert source_for_store(store, "pub").frequency("position") == 0


@pytest.mark.parametrize("backend_class", BACKENDS)
class TestKeywordImpact:
    def test_impact_agrees_with_posting_scan(self, backend_class,
                                             publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        # A cold source answers the impact from the posting row's columns.
        source = source_for_store(store, "pub")
        for keyword in ("liu", "xml", "keyword", "vldb", "article"):
            impact = source.impact(keyword)
            expected = impact_from_postings(
                source_for_store(store, "pub").postings(keyword).deweys)
            assert impact == expected
            assert impact.count == source.frequency(keyword)

    def test_absent_keyword_impact_is_empty(self, backend_class,
                                            publications):
        store = backend_class()
        store.store_tree(publications, "pub")
        impact = source_for_store(store, "pub").impact("absent")
        assert impact == EMPTY_IMPACT
        assert impact.empty

    def test_missing_document_raises(self, backend_class):
        store = backend_class()
        with pytest.raises(DocumentNotFound):
            source_for_store(store, "missing").impact("xml")


class TestSQLiteSpecifics:
    def test_file_database_persists(self, tmp_path, publications):
        path = tmp_path / "store.db"
        with SQLiteStore(path) as store:
            store.store_tree(publications, "pub")
        with SQLiteStore(path) as reopened:
            assert reopened.documents() == ["pub"]
            assert SQLitePostingSource(reopened, "pub").frequency("xml") == 3


# ---------------------------------------------------------------------- #
# The schema version stamp: a file is created stamped, or refused
# ---------------------------------------------------------------------- #
def stamped(path) -> int:
    with closing(sqlite3.connect(path)) as connection:
        return connection.execute("PRAGMA user_version").fetchone()[0]


def restamp(path, version: int) -> None:
    with closing(sqlite3.connect(path)) as connection:
        connection.execute(f"PRAGMA user_version = {version}")


@pytest.fixture
def foreign_db(request, tmp_path, publications):
    """A database file with tables and the stamp ``request.param``: ``0`` is
    a file written before files were stamped, any other value a file with
    another layout."""
    path = str(tmp_path / "foreign.db")
    with SQLiteStore(path) as store:
        store.store_tree(publications, "pub")
    restamp(path, request.param)
    return path


FOREIGN_VERSIONS = pytest.mark.parametrize(
    "foreign_db", [0, SCHEMA_VERSION + 1], indirect=True,
    ids=["unstamped", "other-version"])


class TestSchemaVersion:
    @pytest.mark.parametrize("store_class", BACKENDS)
    def test_new_files_are_stamped(self, tmp_path, store_class):
        path = str(tmp_path / "new.db")
        with store_class(path):
            pass
        assert stamped(path) == SCHEMA_VERSION
        with store_class() as in_memory:
            assert in_memory._connection.execute(
                "PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION

    def test_stamped_file_opens_with_one_statement(self, tmp_path):
        path = str(tmp_path / "stamped.db")
        SQLiteStore(path).close()
        seen = []
        with closing(sqlite3.connect(path)) as connection:
            connection.set_trace_callback(seen.append)
            check_schema(connection, path)
        # sqlite traces the pragma's own nested read as a "--" comment.
        statements = [text for text in seen if not text.startswith("--")]
        assert len(statements) == 1 and "CREATE" not in statements[0], seen

    @FOREIGN_VERSIONS
    @pytest.mark.parametrize("store_class", BACKENDS)
    def test_stores_refuse_other_versions(self, foreign_db, store_class):
        found = stamped(foreign_db)
        with pytest.raises(SchemaVersionError) as refused:
            store_class(foreign_db)
        message = str(refused.value)
        assert foreign_db in message
        assert f"version {found}" in message
        assert f"version {SCHEMA_VERSION}" in message
        assert "re-index" in message and "repro-xks index" in message
        assert stamped(foreign_db) == found, "a refusal must not restamp"

    @FOREIGN_VERSIONS
    def test_verify_reports_one_schema_version_finding(self, foreign_db,
                                                       capsys):
        report = verify_database(foreign_db)
        assert [finding.code for finding in report.findings] == \
            ["schema-version"]
        assert main(["verify", "--db", foreign_db]) == 1
        assert "schema-version" in capsys.readouterr().out

    @FOREIGN_VERSIONS
    @pytest.mark.parametrize("command", [
        ["search", "--backend", "sqlite", "xml"],
        ["index", "--dataset", "figure-1a", "--add"]], ids=["search", "index"])
    def test_cli_refuses_with_the_reindex_message(self, foreign_db, command,
                                                  capsys):
        assert main(command + ["--db", foreign_db]) == 2
        err = capsys.readouterr().err
        assert "re-index the documents into a new file" in err
        assert "Traceback" not in err

    def test_racing_openers_of_a_new_file_all_succeed(self, tmp_path):
        path = str(tmp_path / "raced.db")
        barrier = threading.Barrier(4)
        errors = []

        def open_store() -> None:
            barrier.wait()
            try:
                SegmentedStore(path).close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=open_store) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert stamped(path) == SCHEMA_VERSION


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
    fresh = type(source)(store, "doc")
    calls = {
        "prefetch_nodes": lambda: source.prefetch_nodes([title], [title]),
        "node_words": lambda: fresh.node_words(title),
        "_require": lambda: store._require("doc"),
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
    node's label and words (one word fetch through a fresh source), and
    checking that a document exists, take the same sqlite VM steps on a
    document a hundred times larger.  This pins the query plans (index seeks, ``EXISTS``) as a
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
        search = store_engine(team, SegmentedStore(), "team")
        result = search.search(PAPER_QUERIES["Q4"], "maxmatch")
        assert result.count == 1

    def test_unknown_algorithm_rejected(self, store_engine, team):
        search = store_engine(team, SegmentedStore(), "team")
        with pytest.raises(UnknownAlgorithmError):
            search.search("grizzlies", "bogus")

    def test_frequency_report(self, store_engine, publications):
        search = store_engine(publications, SegmentedStore(), "pub")
        report = {keyword: search.source.frequency(keyword)
                  for keyword in ("xml", "vldb", "absent")}
        assert report == {"xml": 3, "vldb": 1, "absent": 0}

    def test_keyword_nodes_from_store(self, store_engine, publications):
        search = store_engine(publications, SegmentedStore(), "pub")
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
        path = tmp_path / "threaded.db"
        store = SQLiteStore(path)
        store.store_tree(publications, "pub")
        seen = {}

        def read() -> None:
            seen["docs"] = store.documents()
            seen["freq"] = SQLitePostingSource(store, "pub").frequency("xml")

        thread = threading.Thread(target=read)
        thread.start()
        thread.join()
        assert seen == {"docs": ["pub"], "freq": 3}
        store.close()
