"""Tests for the relational shredding store: schema and its version stamp,
shredder, and the store read through its posting source."""

from __future__ import annotations

import re
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.cli import main
from repro.core import Query, SearchEngine, UnknownAlgorithmError
from repro.index import (
    EMPTY_IMPACT,
    InvertedIndex,
    PackedDeweyList,
    impact_from_postings,
)
from repro.storage import (
    SCHEMA_VERSION,
    DatabaseFileError,
    DocumentAlreadyStored,
    DocumentNotFound,
    SchemaVersionError,
    SQLitePostingSource,
    SQLiteStore,
    decode_dewey,
    encode_dewey,
    shred_tree,
    verify_database,
)
from repro.storage.sqlite_backend import check_schema
from repro.datasets import PAPER_QUERIES
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode, XMLNode, parse_string, spec, tree_from_spec
from test_backend_parity import build_source

D = DeweyCode.parse


class TestDeweyEncoding:
    def test_round_trip(self):
        components = (0, 2, 10, 3)
        assert decode_dewey(encode_dewey(components)) == components

    def test_text_is_unpadded(self):
        assert encode_dewey((0, 2, 10)) == "0.2.10"


class TestShredder:
    def test_row_counts(self, publications):
        shredded = shred_tree(publications, "pub")
        assert shredded.name == "pub"
        assert shredded.node_count == publications.size()
        assert [keyword for keyword, *_ in shredded.postings] == \
            InvertedIndex(publications).vocabulary()
        assert sorted({row.label for row in shredded.elements}) == \
            publications.labels()

    def test_a_deep_chain_shreds_without_walking_ancestors(self,
                                                           monkeypatch):
        # No element row holds a path from the root, so shredding costs
        # per node, not per (node, ancestor) pair.
        tree = parse_string("<a>" * 3000 + "deep word" + "</a>" * 3000)
        walks = []
        iter_ancestors = XMLNode.iter_ancestors

        def counted(node, include_self=False):
            walks.append(node.dewey)
            return iter_ancestors(node, include_self)

        monkeypatch.setattr(XMLNode, "iter_ancestors", counted)
        shredded = shred_tree(tree, "deep")
        assert shredded.node_count == 3000
        assert walks == []

    def test_content_feature_is_min_max(self, publications):
        shredded = shred_tree(publications, "pub")
        by_dewey = {row.dewey: row for row in shredded.elements}
        row = by_dewey[encode_dewey((0, 0))]
        assert row.content_feature_min <= row.content_feature_max

    def test_label_and_text_words_index_the_node(self, team):
        holders = {keyword: PackedDeweyList.from_blob(blob)
                   for keyword, _, blob, _ in shred_tree(team).postings}
        assert D("0.0") in holders["name"]       # label word
        assert D("0.0") in holders["grizzlies"]  # text word


class TestBackends:
    def test_store_and_stats(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        stats = store.document_stats("pub")
        assert stats["nodes"] == publications.size()
        assert stats["keywords"] == \
            InvertedIndex(publications).vocabulary_size()
        assert stats["labels"] == len(publications.labels())
        assert store.documents() == ["pub"]

    def test_duplicate_name_rejected(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        with pytest.raises(DocumentAlreadyStored):
            store.store_tree(publications, "pub")

    def test_missing_document_raises(self):
        store = SQLiteStore()
        with pytest.raises(DocumentNotFound):
            store.document_stats("missing")
        with pytest.raises(DocumentNotFound):
            SQLitePostingSource(store, "missing").keyword_nodes(["xml"])

    def test_keyword_lookup_matches_paper_lists(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        source = SQLitePostingSource(store, "pub")
        lists = source.keyword_nodes(Query.parse("liu VLDB absent").keywords)
        assert [str(code) for code in lists["liu"]] == \
            ["0.2.0.0.0.0", "0.2.0.3.0"]
        assert [str(code) for code in lists["vldb"]] == ["0.0"]
        assert list(lists["absent"]) == []

    def test_keyword_nodes_for_query(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        lists = SQLitePostingSource(store, "pub").keyword_nodes(
            Query.parse(["Liu", "keyword"]).keywords)
        assert list(lists) == ["liu", "keyword"]
        assert len(lists["keyword"]) == 3

    def test_frequency_and_labels(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        source = SQLitePostingSource(store, "pub")
        assert source.impact("title").count == 3
        words = ContentAnalyzer(publications).node_content(
            publications.node(D("0.2.0")))
        assert source.node_label(D("0.2.0")) == "article"
        assert source.node_cid(D("0.2.0")) == (min(words), max(words))
        assert source.node_label(D("0.9.9")) is None

    def test_agreement_with_inverted_index(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        source = SQLitePostingSource(store, "pub")
        index = InvertedIndex(publications)
        for keyword in ("xml", "keyword", "liu", "vldb", "skyline", "article",
                        "absentkeyword"):
            assert source.keyword_nodes([keyword])[keyword] == \
                index.keyword_nodes([keyword])[keyword], keyword

    def test_multiple_documents(self, publications, team):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        store.store_tree(team, "team")
        assert store.documents() == ["pub", "team"]
        assert SQLitePostingSource(store, "team").impact("position").count == 3
        assert SQLitePostingSource(store, "pub").impact("position").count == 0


class TestKeywordImpact:
    def test_impact_agrees_with_posting_scan(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        # A cold source answers the impact from the posting row's columns.
        source = SQLitePostingSource(store, "pub")
        for keyword in ("liu", "xml", "keyword", "vldb", "article"):
            impact = source.impact(keyword)
            deweys = SQLitePostingSource(store, "pub").keyword_nodes(
                [keyword])[keyword]
            assert impact == impact_from_postings(deweys)
            assert impact.count == len(deweys)

    def test_absent_keyword_impact_is_empty(self, publications):
        store = SQLiteStore()
        store.store_tree(publications, "pub")
        impact = SQLitePostingSource(store, "pub").impact("absent")
        assert impact == EMPTY_IMPACT
        assert impact.empty

    def test_missing_document_raises(self):
        store = SQLiteStore()
        with pytest.raises(DocumentNotFound):
            SQLitePostingSource(store, "missing").impact("xml")


class TestSQLiteSpecifics:
    def test_file_database_persists(self, tmp_path, publications):
        path = tmp_path / "store.db"
        with SQLiteStore(path) as store:
            store.store_tree(publications, "pub")
        with SQLiteStore(path) as reopened:
            assert reopened.documents() == ["pub"]
            assert SQLitePostingSource(reopened,
                                       "pub").impact("xml").count == 3


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
    "foreign_db", [0, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1], indirect=True,
    ids=["unstamped", "retired-version", "other-version"])


class TestSchemaVersion:
    def test_new_files_are_stamped(self, tmp_path):
        path = str(tmp_path / "new.db")
        with SQLiteStore(path):
            pass
        assert stamped(path) == SCHEMA_VERSION
        with SQLiteStore() as in_memory:
            assert in_memory._connection.execute(
                "PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION

    def test_new_files_hold_only_what_is_read(self, tmp_path):
        """Schema 4: the posting blobs are the keyword index, so no table
        holds a row per (node, word) pair; no label numbers are stored; a
        delta segment is a generation value in the two row tables, not a
        set of twin tables; no index serves a label filter; no row table
        repeats the document's name, which only the catalogue holds; and
        ``element`` is clustered on its key."""
        path = str(tmp_path / "new.db")
        SQLiteStore(path).close()
        with closing(sqlite3.connect(path)) as connection:
            objects = connection.execute(
                "SELECT COUNT(*) FROM sqlite_master").fetchone()[0]
            tables = {name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            indexes = {name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND sql IS NOT NULL")}
            columns = {table: [row[1] for row in connection.execute(
                           f"PRAGMA table_info({table})")]
                       for table in ("catalogue", "element", "posting")}
            clustered = {name for (name,) in connection.execute(
                "SELECT name FROM pragma_table_list "
                "WHERE schema = 'main' AND wr")}
            counter = connection.execute(
                "SELECT * FROM generation_counter").fetchall()
        assert objects == 10
        assert tables == {"catalogue", "generation_counter", "element",
                          "posting", "segment", "mutation_journal",
                          "sqlite_sequence"}
        assert indexes == {"idx_segment_document", "idx_mutation_journal_key"}
        assert columns == {
            "catalogue": ["document", "generation"],
            "element": ["generation", "dewey", "label",
                        "content_feature_min", "content_feature_max"],
            "posting": ["generation", "keyword", "cardinality", "blob",
                        "max_depth"]}
        assert clustered == {"catalogue", "element"}
        assert counter == [(0,)]

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
    def test_stores_refuse_other_versions(self, foreign_db):
        found = stamped(foreign_db)
        with pytest.raises(SchemaVersionError) as refused:
            SQLiteStore(foreign_db)
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
                SQLiteStore(path).close()
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
    fresh = SQLitePostingSource(store, "doc")
    calls = {
        "prefetch_nodes": lambda: source.prefetch_nodes([title], ()),
        "node_cid": lambda: fresh.node_cid(title),
        "location_of": lambda: store.location_of("doc"),
    }
    costs = {name: vm_steps(store, call) for name, call in calls.items()}
    # The fetches filled the caches: the steps bought the right rows.
    assert source.node_label(title) == "title"
    assert source.node_cid(title) == fresh.node_cid(title) == ("0", "xml")
    store.close()
    return costs


def test_verify_refuses_a_missing_path_without_creating_it(tmp_path):
    missing = tmp_path / "nothere.db"
    with pytest.raises(DatabaseFileError, match="no such database file"):
        verify_database(str(missing))
    assert not missing.exists()


class TestTablelessFiles:
    """Only a writer creates the schema: every reader refuses an existing
    file that holds no tables, a 0-byte one say, and leaves it 0 bytes."""

    @pytest.fixture
    def zero(self, tmp_path):
        path = tmp_path / "zero.db"
        path.touch()
        return path

    @pytest.mark.parametrize("command", [
        ["search", "--backend", "sqlite", "xml"],
        ["search", "--backend", "corpus", "xml"],
        ["compact"],
        ["index", "--delete", "doc"],
    ], ids=["search-sqlite", "search-corpus", "compact", "index-delete"])
    def test_cli_readers_refuse_with_one_line(self, zero, command, capsys):
        assert main(command + ["--db", str(zero)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "holds no tables" in err[0], err
        assert str(zero) in err[0]
        assert zero.stat().st_size == 0

    def test_verify_reports_one_finding(self, zero, capsys):
        report = verify_database(str(zero))
        assert [finding.code for finding in report.findings] == \
            ["sqlite-integrity"]
        assert "holds no tables" in report.findings[0].message
        assert main(["verify", "--db", str(zero)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert zero.stat().st_size == 0

    def test_a_writer_creates_the_schema_in_it(self, zero, publications):
        with SQLiteStore(zero) as store:
            store.store_tree(publications, "pub")
        assert verify_database(str(zero)).clean


class TestReadCostIsPerRow:
    """A cold tree-free read must not scan the document: fetching one
    node's element row (its label and cID, batched through
    ``prefetch_nodes`` and as one ``node_cid`` miss through a fresh source),
    and checking that a document exists, take the same sqlite VM steps on a
    document a hundred times larger.  This pins the query plans (index
    seeks, ``EXISTS``) as a deterministic count, where a scan through the
    wrong index or a ``COUNT(*)`` grows with the document."""

    @pytest.mark.parametrize("layout", ("sqlite", "segmented"))
    def test_steps_do_not_grow_with_the_document(self, layout):
        assert read_costs(3, layout) == read_costs(303, layout)


class TestFoldCostIsPerDocument:
    """``compact`` reads each catalogued document's rows through the
    primary key, so folding one updated document takes the same sqlite VM
    steps beside one other stored document as beside twenty; a statement
    that scanned every generation's rows would grow with the base."""

    @staticmethod
    def fold_steps(others: int) -> int:
        store = SQLiteStore()
        for index in range(others):
            store.store_tree(bibliography(30), f"other-{index}")
        store.store_tree(bibliography(3), "doc")
        store.update_document(bibliography(4), "doc")
        steps = vm_steps(store, store.compact)
        assert store.location_of("doc") == others + 2, "nothing renumbered"
        store.close()
        return steps

    def test_steps_do_not_grow_with_the_base(self):
        assert self.fold_steps(1) == self.fold_steps(20)


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


class TestOneLocationResolution:
    """A fresh source resolves its document's generation once, at its
    first read, and every later statement reads that generation's rows: a
    cold Q1 search runs one primary-key read of the catalogue, one posting
    fetch and one element-row prefetch, on a base document and on one
    that lives in a delta segment alike."""

    @pytest.mark.parametrize("layout", ("sqlite", "segmented"))
    def test_cold_search_resolves_the_location_once(self, publications,
                                                    layout):
        store = build_source(publications, layout).store
        engine = SearchEngine(source=SQLitePostingSource(store, "doc"))
        seen = statements(store, lambda: engine.search(PAPER_QUERIES["Q1"]))
        assert {"statements": len(seen),
                "catalogue reads": sum(
                    bool(re.search(r"\bFROM catalogue\b", statement))
                    for statement in seen),
                "posting fetches": sum(
                    bool(re.search(r"\bFROM posting\b", statement))
                    for statement in seen),
                "element fetches": sum(
                    bool(re.search(r"\bFROM element\b", statement))
                    for statement in seen),
                "segment lookups": sum(
                    bool(re.search(r"\bFROM segment\b", statement))
                    for statement in seen),
                "EXISTS": sum("EXISTS" in statement for statement in seen),
                } == {"statements": 3, "catalogue reads": 1,
                      "posting fetches": 1, "element fetches": 1,
                      "segment lookups": 0, "EXISTS": 0}, seen

    def test_a_query_fetches_its_node_rows_once(self):
        """The element rows of every fragment of a query come in one
        statement: ``xml liu`` roots one fragment at each of the five
        articles."""
        store = SQLiteStore()
        store.store_tree(bibliography(5), "doc")
        engine = SearchEngine(source=SQLitePostingSource(store, "doc"))
        result = []
        seen = statements(store, lambda: result.append(
            engine.search("xml liu")))
        assert len(result[0].fragments) == 5
        assert sum(bool(re.search(r"\bFROM element\b", statement))
                   for statement in seen) == 1, seen
        assert len(seen) == 3, seen
        store.close()


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
        search = store_engine(team, SQLiteStore(), "team")
        result = search.search(PAPER_QUERIES["Q4"], "maxmatch")
        assert result.count == 1

    def test_unknown_algorithm_rejected(self, store_engine, team):
        search = store_engine(team, SQLiteStore(), "team")
        with pytest.raises(UnknownAlgorithmError):
            search.search("grizzlies", "bogus")

    def test_frequency_report(self, store_engine, publications):
        search = store_engine(publications, SQLiteStore(), "pub")
        report = {keyword: search.source.impact(keyword).count
                  for keyword in ("xml", "vldb", "absent")}
        assert report == {"xml": 3, "vldb": 1, "absent": 0}

    def test_keyword_nodes_from_store(self, store_engine, publications):
        search = store_engine(publications, SQLiteStore(), "pub")
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
            seen["freq"] = SQLitePostingSource(store,
                                               "pub").impact("xml").count

        thread = threading.Thread(target=read)
        thread.start()
        thread.join()
        assert seen == {"docs": ["pub"], "freq": 3}
        store.close()
