"""Segment lifecycle unit tests of :class:`~repro.storage.SQLiteStore`.

The segment lifecycle (delta segments, tombstones, liveness resolution,
compaction) is property-tested end to end in ``tests/test_corpus_fuzz.py``;
this module pins the store-level semantics directly, including the event
orders tier-1's bounded fuzz does not reach: two updates of one document
before a compaction, and an update followed by a delete.  Every store and
every :class:`~repro.storage.SQLitePostingSource` opened on a database file
serves each document's live generation, including one that lives only in
a delta segment.  Each mutation takes the next number of the file's one
generation counter, so the numbers below are exact: the fixture stores
``pub`` as generation 1 and ``team`` as generation 2.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.core import SearchEngine
from repro.datasets import PAPER_QUERIES, publications_tree, team_tree
from repro.index import InvertedIndex
from repro.storage import (
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
def test_stored_documents_take_fresh_generations(store):
    assert store.location_of("pub") == 1
    assert store.location_of("team") == 2
    assert store.location_of("missing") is None
    assert store.documents() == ["pub", "team"]
    assert store.segment_count() == 0


def test_update_shadows_base_with_a_delta_segment(store):
    first = store.update_document(team_tree(), "team")
    assert first == 3 and store.location_of("team") == 3
    second = store.update_document(team_tree(), "team")
    assert second == 4, "segment ids are monotonically increasing"
    assert store.location_of("team") == 4, "the newest update is live"
    assert store.location_of("pub") == 1
    assert store.documents() == ["pub", "team"]
    events = store.segment_events()
    assert events == [(3, "team", SEGMENT_KIND_DOC),
                      (4, "team", SEGMENT_KIND_DOC)]


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
            assert store.update_document(live, "doc") == step + 1
        fresh = SQLiteStore()
        fresh.store_tree(live, "doc")
        segmented = SQLitePostingSource(store, "doc")
        plain = SQLitePostingSource(fresh, "doc")
        for word in ("xml", "alpha", "beta", "title", "author", "venue"):
            assert segmented.keyword_nodes([word])[word] == \
                plain.keyword_nodes([word])[word], (step, word)
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
        SQLitePostingSource(store, "team").keyword_nodes(["grizzlies"])


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
    assert store.location_of("team") == 5, "a re-add takes a fresh number"
    assert store.tombstoned_documents() == []
    assert store.segment_events() == [], "the re-add purged team's log"
    assert_answers_like_memory(store, "team", team_tree(),
                               PAPER_QUERIES["Q4"])


def test_compact_folds_segments_into_base(store):
    store.update_document(team_tree(), "team")
    store.delete_document("pub")
    outcome = store.compact()
    assert outcome == {"folded": 1, "dropped": 1, "segments": 2}
    assert store.segment_count() == 0 and store.segment_events() == []
    assert store.documents() == ["team"]
    assert store.location_of("team") == 3, "compact renumbers nothing"
    assert_answers_like_memory(store, "team", team_tree(),
                               PAPER_QUERIES["Q4"])
    # Compacting an already-flat store is a no-op.
    assert store.compact() == {"folded": 0, "dropped": 0, "segments": 0}


def test_segmented_source_id_carries_the_generation(store):
    base = SQLitePostingSource(store, "team")
    assert base.source_id == "sqlite::memory:#team@g2"
    store.update_document(team_tree(), "team")
    shadowed = SQLitePostingSource(store, "team")
    assert shadowed.source_id.endswith("#team@g3")
    # A source pins its snapshot at first resolution: the pre-update source
    # keeps its identity (engine rebuilds pick up the new generation).
    assert base.source_id.endswith("#team@g2")


def test_versions_never_share_a_source_id():
    """Store, update, compact, update: the two updates take different
    segment numbers, and their sources different ids.  While compaction
    renumbered generations, both versions answered to ``@g1``."""
    store = SQLiteStore()
    store.store_tree(publications_tree(), "pub")
    first = store.update_document(publications_tree(), "pub")
    before = SQLitePostingSource(store, "pub").source_id
    store.compact()
    second = store.update_document(publications_tree(), "pub")
    after = SQLitePostingSource(store, "pub").source_id
    assert (first, second) == (2, 3)
    assert (before, after) == ("sqlite::memory:#pub@g2",
                               "sqlite::memory:#pub@g3")
    store.close()


#: Every single-row read of a posting source, over a list of words and
#: a list of node codes.
SINGLE_ROW_READS = {
    "vocabulary": lambda source, words, codes: source.vocabulary(),
    "keyword_nodes": lambda source, words, codes: [
        list(source.keyword_nodes([word])[word]) for word in words],
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
        assert source.source_id.endswith("#doc@g1")  # resolves and pins
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


def test_a_source_pinned_before_a_compaction_keeps_its_answers():
    """A source pinned to a delta segment answers, after ``compact()``
    folds that segment, what a fresh source answers: compaction deletes
    only dead generations and renumbers none."""
    store = SQLiteStore()
    store.store_tree(publications_tree(), "pub")
    store.update_document(publications_tree(), "pub")
    source = SQLitePostingSource(store, "pub")
    assert len(source.keyword_nodes(["xml"])["xml"]) == 3
    assert source.source_id.endswith("@g2")
    store.compact()
    fresh = SQLitePostingSource(store, "pub")
    assert len(fresh.keyword_nodes(["keyword"])["keyword"]) == 3
    assert source.keyword_nodes(["keyword"])["keyword"] == \
        fresh.keyword_nodes(["keyword"])["keyword"]
    store.close()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: compact() deletes the superseded generation a source "
    "pinned, and no read transaction or snapshot keeps its rows"))
def test_a_source_pinned_to_a_superseded_generation_survives_compaction():
    """A source pinned before an update answers, after ``compact()``
    deletes the generation it pinned, what it answered before."""
    store = SQLiteStore()
    store.store_tree(publications_tree(), "pub")
    source = SQLitePostingSource(store, "pub")
    assert source.source_id.endswith("@g1")
    store.update_document(publications_tree(), "pub")
    store.compact()
    assert len(source.keyword_nodes(["keyword"])["keyword"]) == 3
    store.close()


# ---------------------------------------------------------------------- #
# The catalogue decides liveness everywhere, not only in location_of
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
                if source.impact(word).count] == ["gamma"], phase
        assert_answers_like_memory(store, "doc", versioned("gamma"),
                                   "xml gamma")
    store.close()


def test_update_then_delete_leaves_the_document_out(store):
    store.update_document(team_tree(), "team")
    store.delete_document("team")
    assert store.documents() == ["pub"]
    assert store.tombstoned_documents() == ["team"]


def test_an_event_of_unknown_kind_changes_no_reader(tmp_path):
    """The catalogue alone decides liveness: after the log's event for
    ``team`` takes a kind the store never writes, ``documents()``,
    ``location_of`` and a fresh posting source still serve ``team``, and
    ``verify`` names the event."""
    path = str(tmp_path / "unknown-kind.db")
    with SQLiteStore(path) as writer:
        writer.store_tree(publications_tree(), "publications")
        writer.update_document(team_tree(), "team")
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("UPDATE segment SET kind = 'snapshot'")
    with SQLiteStore(path) as reader:
        assert reader.documents() == ["publications", "team"]
        assert reader.location_of("team") == 2
        assert SQLitePostingSource(reader, "team").keyword_nodes(
            ["forward"])["forward"] == \
            InvertedIndex(team_tree()).keyword_nodes(["forward"])["forward"]
    assert [finding.code for finding in verify_database(path).findings] == \
        ["catalog-unknown-kind"]


def test_a_document_missing_from_the_catalogue_is_absent(tmp_path):
    """A document without a catalogue row is absent from ``documents()``,
    from ``location_of`` and from a fresh posting source alike, and its
    rows are orphans ``verify`` reports."""
    path = str(tmp_path / "uncatalogued.db")
    with SQLiteStore(path) as writer:
        writer.store_tree(publications_tree(), "publications")
        writer.update_document(team_tree(), "team")
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("DELETE FROM catalogue WHERE document = 'team'")
    with SQLiteStore(path) as reader:
        assert reader.documents() == ["publications"]
        assert reader.location_of("team") is None
        with pytest.raises(DocumentNotFound):
            SQLitePostingSource(reader, "team").keyword_nodes(["forward"])
    assert [finding.code for finding in verify_database(path).findings] == \
        ["catalog-orphan-rows"]


def test_compact_counts_from_the_catalogue_not_the_event_kind(tmp_path):
    """``compact`` reports a logged document as folded when the catalogue
    lists it, whatever its event's kind says, and the compacted file serves
    exactly the documents it listed before."""
    path = str(tmp_path / "unknown-kind.db")
    with SQLiteStore(path) as writer:
        writer.store_tree(publications_tree(), "publications")
        writer.update_document(team_tree(), "team")
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("UPDATE segment SET kind = 'snapshot'")
    with SQLiteStore(path) as store:
        assert store.compact() == {"folded": 1, "dropped": 0, "segments": 1}
        assert store.documents() == ["publications", "team"]
        assert store.location_of("team") == 2
        assert store.segment_count() == 0
    assert verify_database(path).findings == []


# ---------------------------------------------------------------------- #
# Every reader of a file serves the live generation
# ---------------------------------------------------------------------- #
def rows_of(path: str, document: str) -> dict:
    """How many log rows ``document`` owns in the file at ``path``, its
    catalogue generation, and how many element rows each generation of
    the file holds."""
    with closing(sqlite3.connect(path)) as connection:
        return {"segment": connection.execute(
                    "SELECT COUNT(*) FROM segment WHERE document = ?",
                    (document,)).fetchone()[0],
                "catalogue": connection.execute(
                    "SELECT generation FROM catalogue WHERE document = ?",
                    (document,)).fetchone()[0],
                "element": dict(connection.execute(
                    "SELECT generation, COUNT(*) FROM element "
                    "GROUP BY generation"))}


def test_fresh_store_serves_a_document_added_by_update(tmp_path):
    """``update_document`` of a new name, what ``index --update`` and the
    wire ``update`` op write, leaves the document in a delta segment alone;
    a store opened afresh on the file lists it, and a source over it
    answers the live postings."""
    path = str(tmp_path / "live.db")
    tree = publications_tree()
    with SQLiteStore(path) as writer:
        writer.update_document(tree, "pub")
    assert rows_of(path, "pub") == {"segment": 1, "catalogue": 1,
                                    "element": {1: tree.size()}}
    memory = InvertedIndex(tree)
    with SQLiteStore(path) as reader:
        assert reader.documents() == ["pub"]
        source = SQLitePostingSource(reader, "pub")
        for word in memory.vocabulary():
            assert source.keyword_nodes([word])[word] == \
                memory.keyword_nodes([word])[word], word
        assert source.read_stats()["base_reads"] == 0
