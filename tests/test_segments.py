"""Segment lifecycle unit tests of :class:`~repro.storage.SQLiteStore`.

The segment lifecycle (delta segments, tombstones, liveness resolution,
compaction) is property-tested end to end in ``tests/test_corpus_fuzz.py``;
this module pins the store-level semantics directly, including the event
orders tier-1's bounded fuzz does not reach: two updates of one document
before a compaction, and an update followed by a delete.  Every store and
every :class:`~repro.storage.SQLitePostingSource` opened on a database file
serves each document's live generation, including one that lives only in
a delta segment.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.core import SearchEngine
from repro.datasets import PAPER_QUERIES, publications_tree, team_tree
from repro.index import InvertedIndex
from repro.storage import (
    BASE_GENERATION,
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SQLitePostingSource,
    SQLiteStore,
    verify_database,
)
from repro.storage.errors import DocumentAlreadyStored, DocumentNotFound
from repro.xmltree import spec, tree_from_spec


@pytest.fixture
def store():
    segmented = SQLiteStore()
    segmented.store_tree(publications_tree(), "pub")
    segmented.store_tree(team_tree(), "team")
    yield segmented
    segmented.close()


def assert_answers_like_memory(store, document, tree, query):
    reference = SearchEngine(tree).search(query)
    candidate = SearchEngine(
        source=SQLitePostingSource(store, document)).search(query)
    assert candidate.roots() == reference.roots(), (document, query)
    assert [f.kept_nodes for f in candidate] == \
        [f.kept_nodes for f in reference], (document, query)


# ---------------------------------------------------------------------- #
# Lifecycle semantics
# ---------------------------------------------------------------------- #
def test_base_documents_live_at_generation_zero(store):
    assert store.location_of("pub") == BASE_GENERATION
    assert store.location_of("missing") is None
    assert store.documents() == ["pub", "team"]
    assert store.segment_count() == 0


def test_update_shadows_base_with_a_delta_segment(store):
    first = store.update_document(team_tree(), "team")
    assert first == 1 and store.location_of("team") == 1
    second = store.update_document(team_tree(), "team")
    assert second == 2, "segment ids are monotonically increasing"
    assert store.location_of("team") == 2, "the highest event wins"
    assert store.location_of("pub") == BASE_GENERATION
    assert store.documents() == ["pub", "team"]
    events = store.segment_events()
    assert events == [(1, "team", SEGMENT_KIND_DOC),
                      (2, "team", SEGMENT_KIND_DOC)]


def test_packed_read_takes_the_live_segment_row():
    """Every update leaves the older versions' rows in their segments; the
    packed read answers from the live segment's one row per keyword."""
    versions = [
        tree_from_spec(spec("doc", None, spec("title", "xml alpha"),
                            spec("author", "beta"))),
        tree_from_spec(spec("doc", None, spec("author", "beta"),
                            spec("venue", None, spec("title", "xml")))),
    ]
    store = SQLiteStore()
    store.store_tree(versions[0], "doc")
    for step in range(4):
        live = versions[step % 2]
        if step:
            assert store.update_document(live, "doc") == step
        fresh = SQLiteStore()
        fresh.store_tree(live, "doc")
        segmented = SQLitePostingSource(store, "doc")
        plain = SQLitePostingSource(fresh, "doc")
        for word in ("xml", "alpha", "beta", "title", "author", "venue"):
            assert segmented.postings(word).deweys == \
                plain.postings(word).deweys, (step, word)
        fresh.close()
    store.close()


def test_update_can_add_a_brand_new_document(store):
    segment = store.update_document(publications_tree(), "extra")
    assert store.location_of("extra") == segment
    assert store.documents() == ["extra", "pub", "team"]
    assert_answers_like_memory(store, "extra", publications_tree(),
                               PAPER_QUERIES["Q1"])


def test_delete_is_a_tombstone_not_a_purge(store):
    segment = store.delete_document("team")
    assert store.location_of("team") is None
    assert store.documents() == ["pub"]
    assert store.tombstoned_documents() == ["team"]
    assert (segment, "team", SEGMENT_KIND_TOMBSTONE) in store.segment_events()
    with pytest.raises(DocumentNotFound):
        store.delete_document("team")
    with pytest.raises(DocumentNotFound):
        SQLitePostingSource(store, "team").postings("grizzlies")


def test_store_over_live_document_is_refused(store):
    with pytest.raises(DocumentAlreadyStored):
        store.store_tree(team_tree(), "team")
    store.update_document(team_tree(), "team")
    with pytest.raises(DocumentAlreadyStored):
        store.store_tree(team_tree(), "team")


def test_readd_after_delete_behaves_like_fresh(store):
    store.update_document(team_tree(), "team")
    store.delete_document("team")
    store.store_tree(team_tree(), "team")
    assert store.location_of("team") == BASE_GENERATION
    assert store.tombstoned_documents() == []
    assert_answers_like_memory(store, "team", team_tree(),
                               PAPER_QUERIES["Q4"])


def test_compact_folds_segments_into_base(store):
    store.update_document(team_tree(), "team")
    store.delete_document("pub")
    outcome = store.compact()
    assert outcome == {"folded": 1, "dropped": 1, "segments": 2}
    assert store.segment_count() == 0 and store.segment_events() == []
    assert store.documents() == ["team"]
    assert store.location_of("team") == BASE_GENERATION
    assert_answers_like_memory(store, "team", team_tree(),
                               PAPER_QUERIES["Q4"])
    # Compacting an already-flat store is a no-op.
    assert store.compact() == {"folded": 0, "dropped": 0, "segments": 0}


def test_segmented_source_id_carries_the_generation(store):
    base = SQLitePostingSource(store, "team")
    assert base.source_id == "sqlite::memory:#team@g0"
    store.update_document(team_tree(), "team")
    shadowed = SQLitePostingSource(store, "team")
    assert shadowed.source_id.endswith("#team@g1")
    # A source pins its snapshot at first resolution: the pre-update source
    # keeps its identity (engine rebuilds pick up the new generation).
    assert base.source_id.endswith("#team@g0")


#: Every single-row read of a posting source, over a list of words and
#: a list of node codes.
SINGLE_ROW_READS = {
    "vocabulary": lambda source, words, codes: source.vocabulary(),
    "postings": lambda source, words, codes: [
        list(source.postings(word).deweys) for word in words],
    "frequency": lambda source, words, codes: [
        source.frequency(word) for word in words],
    "impact": lambda source, words, codes: [
        source.impact(word) for word in words],
    "node_label": lambda source, words, codes: [
        source.node_label(code) for code in codes],
    "node_cid": lambda source, words, codes: [
        source.node_cid(code) for code in codes],
}


def test_pinned_source_reads_only_its_generation():
    """A source pinned at g0 answers g0 after an update commits: every
    single-row read, each on its own cold source, takes the pinned
    generation's rows, not the store's live ones, while a fresh source
    answers the new version."""
    old = tree_from_spec(spec("doc", None, spec("title", "xml alpha"),
                              spec("author", "beta")))
    new = tree_from_spec(spec(
        "doc", None, spec("author", "beta gamma"),
        spec("venue", None, spec("proc", None, spec("title", "xml search"))),
        spec("note", "xml")))
    words = sorted(set(InvertedIndex(old).vocabulary())
                   | set(InvertedIndex(new).vocabulary()))
    codes = sorted({node.dewey for tree in (old, new)
                    for node in tree.iter_preorder()})
    store = SQLiteStore()
    store.store_tree(old, "doc")

    def pinned() -> SQLitePostingSource:
        source = SQLitePostingSource(store, "doc")
        assert source.source_id.endswith("#doc@g0")  # resolves and pins
        return source

    sources = {kind: pinned() for kind in SINGLE_ROW_READS}
    before = {kind: read(pinned(), words, codes)
              for kind, read in SINGLE_ROW_READS.items()}
    store.update_document(new, "doc")
    memory = InvertedIndex(new)
    for kind, read in SINGLE_ROW_READS.items():
        assert read(sources[kind], words, codes) == before[kind], kind
        fresh = SQLitePostingSource(store, "doc")
        assert read(fresh, words, codes) == read(memory, words, codes), kind
        assert before[kind] != read(memory, words, codes), \
            f"the two versions must differ on {kind}"
    store.close()


# ---------------------------------------------------------------------- #
# The latest event of a document wins everywhere, not only in location_of
# ---------------------------------------------------------------------- #
def versioned(word: str):
    return tree_from_spec(spec("doc", None, spec("title", f"xml {word}")))


def test_compact_folds_the_latest_of_two_updates():
    """Stored, updated twice, then compacted: the document answers with its
    second update's words before and after ``compact()``."""
    store = SQLiteStore()
    store.store_tree(versioned("alpha"), "doc")
    store.update_document(versioned("beta"), "doc")
    store.update_document(versioned("gamma"), "doc")
    for phase in ("segments", "compacted"):
        if phase == "compacted":
            assert store.compact()["folded"] == 1
        source = SQLitePostingSource(store, "doc")
        assert [word for word in ("alpha", "beta", "gamma")
                if source.frequency(word)] == ["gamma"], phase
        assert_answers_like_memory(store, "doc", versioned("gamma"),
                                   "xml gamma")
    store.close()


def test_update_then_delete_leaves_the_document_out(store):
    store.update_document(team_tree(), "team")
    store.delete_document("team")
    assert store.documents() == ["pub"]
    assert store.tombstoned_documents() == ["team"]


def test_an_event_of_unknown_kind_leaves_the_document_out(tmp_path):
    """Only a ``doc`` event is live: a document whose latest catalog event
    has a kind the store never writes is absent from ``documents()``, from
    ``location_of`` and from a fresh posting source alike, and ``verify``
    names the event."""
    path = str(tmp_path / "unknown-kind.db")
    with SQLiteStore(path) as writer:
        writer.store_tree(publications_tree(), "publications")
        writer.update_document(team_tree(), "team")
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("UPDATE segment SET kind = 'snapshot'")
    with SQLiteStore(path) as reader:
        assert reader.documents() == ["publications"]
        assert reader.location_of("team") is None
        with pytest.raises(DocumentNotFound):
            SQLitePostingSource(reader, "team").postings("forward")
    assert [finding.code for finding in verify_database(path).findings] == \
        ["catalog-unknown-kind"]


def test_compact_drops_what_an_unknown_kind_left_out(tmp_path):
    """``compact`` follows the catalogue's rule: the document whose latest
    event has an unknown kind is dropped, not folded, so the compacted file
    serves exactly the documents it listed before."""
    path = str(tmp_path / "unknown-kind.db")
    with SQLiteStore(path) as writer:
        writer.store_tree(publications_tree(), "publications")
        writer.update_document(team_tree(), "team")
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("UPDATE segment SET kind = 'snapshot'")
    with SQLiteStore(path) as store:
        assert store.compact() == {"folded": 0, "dropped": 1, "segments": 1}
        assert store.documents() == ["publications"]
        assert store.location_of("team") is None
        assert store.segment_count() == 0
    assert verify_database(path).findings == []


# ---------------------------------------------------------------------- #
# Every reader of a file serves the live generation
# ---------------------------------------------------------------------- #
def rows_of(path: str, document: str) -> dict:
    """How many rows ``document`` owns in the base element table and in
    the segment catalogue and element table of the file at ``path``."""
    with closing(sqlite3.connect(path)) as connection:
        return {table: connection.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE document = ?",
                    (document,)).fetchone()[0]
                for table in ("element", "segment", "segment_element")}


def test_fresh_store_serves_a_document_added_by_update(tmp_path):
    """``update_document`` of a new name, what ``index --update`` and the
    wire ``update`` op write, leaves the document in a delta segment alone;
    a store opened afresh on the file lists it, and a source over it
    answers the live postings."""
    path = str(tmp_path / "live.db")
    tree = publications_tree()
    with SQLiteStore(path) as writer:
        writer.update_document(tree, "pub")
    assert rows_of(path, "pub")["element"] == 0
    memory = InvertedIndex(tree)
    with SQLiteStore(path) as reader:
        assert reader.documents() == ["pub"]
        source = SQLitePostingSource(reader, "pub")
        for word in memory.vocabulary():
            assert source.postings(word).deweys == \
                memory.postings(word).deweys, word
        assert source.read_stats()["base_reads"] == 0
