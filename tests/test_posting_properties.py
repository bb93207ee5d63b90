"""Property-based posting-list invariants, checked across every backend.

Seeded random documents (the shared ``random_tree`` generator from
``conftest``) are indexed two ways — in-memory inverted index and sqlite
store — and for every word of the vocabulary the backends must agree on the
:class:`PostingSource` contract (the segmented source and the parity
matrix's row-decode store inputs are checked one by one against the memory
index):

* posting lists strictly sorted in document (Dewey) order, duplicate-free;
* ``encode_dewey`` / ``decode_dewey`` round-trips every posting;
* ``frequency(w) == len(postings(w))``;
* identical vocabularies and identical posting lists across backends;
* the batched ``keyword_nodes`` path equals per-keyword ``postings``;
* every backend serves :class:`PackedDeweyList` columns whose stored blobs
  round-trip, and legacy databases without blobs answer identically;
* node labels, cIDs and word sets, looked up one node at a time or
  prefetched in a batch, equal the document's on a memory store, on sqlite
  and on a segmented base and delta generation, also where the value table
  repeats a (dewey, keyword) row; a stored cID is the (min, max) of the
  node's word set.
"""

from __future__ import annotations

import pytest

from repro.core import Query
from repro.index import (
    InvertedIndex,
    PackedDeweyList,
    PostingSource,
    impact_from_postings,
    keyword_impact,
)
from repro.storage import (
    SQLitePostingSource,
    SQLiteStore,
    decode_dewey,
    encode_dewey,
    shred_tree,
)
from repro.xmltree import DeweyCode, spec, tree_from_spec
from test_backend_parity import (
    ROW_DECODE_INPUTS,
    SHARED_STORE_INPUTS,
    build_source,
)

SEEDS = (3, 11, 29, 47, 101)

#: Sources the cross-backend loops leave out: the segmented delta-segment
#: path, the store inputs whose postings are decoded from rows and the
#: document served from a store it shares with other documents.
SINGLE_SOURCES = ("segmented",) + ROW_DECODE_INPUTS + SHARED_STORE_INPUTS


def build_sources(tree):
    """The two backends over one document, keyed by name."""
    index = InvertedIndex(tree)
    store = SQLiteStore()
    store.store_tree(tree, tree.name)
    sqlite_source = SQLitePostingSource(store, tree.name)
    return {"memory": index, "sqlite": sqlite_source}


@pytest.fixture(params=SEEDS, ids=lambda seed: f"seed{seed}")
def sources(request, make_random_tree):
    return build_sources(make_random_tree(request.param))


def test_sources_satisfy_protocol(sources):
    for source in sources.values():
        assert isinstance(source, PostingSource)
        word = source.vocabulary()[0]
        assert isinstance(source.postings(word).deweys, PackedDeweyList)
        batch = source.keyword_nodes([word, "definitelyabsentword"])
        assert all(isinstance(deweys, PackedDeweyList)
                   for deweys in batch.values())


def test_vocabulary_equal_across_backends(sources):
    vocabularies = {name: source.vocabulary()
                    for name, source in sources.items()}
    assert vocabularies["memory"] == vocabularies["sqlite"]
    assert vocabularies["memory"], "random documents must index something"


def test_posting_lists_identical_and_strictly_sorted(sources):
    vocabulary = sources["memory"].vocabulary()
    for word in vocabulary:
        reference = list(sources["memory"].postings(word).deweys)
        assert list(sources["sqlite"].postings(word).deweys) == reference, \
            word
        assert reference, f"vocabulary word {word!r} with empty postings"
        for left, right in zip(reference, reference[1:]):
            assert left < right, f"posting list of {word!r} not strictly sorted"


def test_frequency_equals_posting_length(sources):
    vocabulary = sources["memory"].vocabulary()
    for name, source in sources.items():
        for word in vocabulary:
            assert source.frequency(word) == len(source.postings(word)), \
                (name, word)
        assert source.frequency("definitelyabsentword") == 0, name


def test_encode_decode_round_trips_every_posting(sources):
    for word in sources["memory"].vocabulary():
        for dewey in sources["memory"].postings(word):
            components = tuple(dewey.components)
            assert decode_dewey(encode_dewey(components)) == components


def test_batched_keyword_nodes_equals_postings(sources):
    vocabulary = sources["memory"].vocabulary()
    probe = vocabulary[:5] + ["definitelyabsentword"]
    for name, source in sources.items():
        batched = source.keyword_nodes(probe)
        for word in probe:
            assert batched[word] == list(source.postings(word).deweys), \
                (name, word)


@pytest.mark.parametrize("backend", SINGLE_SOURCES)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_source_serves_memory_postings(make_random_tree, seed, backend):
    """One source serves the memory index's lists, packed, on every path.

    A cold batched lookup (with an absent keyword), then ``frequency`` and
    ``postings`` of every keyword (cold past the five batched ones), must
    each equal the in-memory index as a :class:`PackedDeweyList`.
    """
    tree = make_random_tree(seed)
    reference = InvertedIndex(tree)
    source = build_source(tree, backend, tree.name)
    vocabulary = reference.vocabulary()
    assert source.vocabulary() == vocabulary, backend
    probe = vocabulary[:5] + ["definitelyabsentword"]
    batched = source.keyword_nodes(probe)
    assert list(batched) == probe, backend
    for word in probe:
        assert isinstance(batched[word], PackedDeweyList), (backend, word)
        assert batched[word] == reference.postings(word).deweys, \
            (backend, word)
    for word in vocabulary + ["definitelyabsentword"]:
        expected = reference.postings(word).deweys
        assert source.frequency(word) == len(expected), (backend, word)
        deweys = source.postings(word).deweys
        assert isinstance(deweys, PackedDeweyList), (backend, word)
        assert deweys == expected, (backend, word)


@pytest.mark.parametrize("layout", ("memory", "sqlite") + SINGLE_SOURCES)
def test_keyword_impact_is_the_posting_scan(make_random_tree, layout):
    """``keyword_impact`` on a query's normalized keywords, present and
    absent, equals the impact of the source's own posting list; the impact
    is read first, so disk sources answer it from their stored rows."""
    for seed in SEEDS:
        tree = make_random_tree(seed)
        source = (InvertedIndex(tree) if layout == "memory"
                  else build_source(tree, layout, tree.name))
        vocabulary = InvertedIndex(tree).vocabulary()
        for start in range(0, len(vocabulary), 3):
            query = Query.parse(vocabulary[start:start + 3]
                                + ["DefinitelyAbsentWord"])
            for keyword in query.keywords:
                impact = keyword_impact(source, keyword)
                assert impact == impact_from_postings(
                    source.postings(keyword).deweys), (layout, seed, keyword)


def repeated_words_tree():
    """A document whose ``title`` word is in one node's label, text and an
    attribute, so the value table repeats that (dewey, keyword) row."""
    return tree_from_spec(spec(
        "bib", None,
        spec("title", "title of xml search", attributes={"kind": "title"}),
        spec("author", "kong")), name="repeated")


@pytest.mark.parametrize("layout", ("memorystore", "sqlite", "segmented-base",
                                    "segmented"))
@pytest.mark.parametrize("document", ("random", "repeated-words"))
def test_node_lookups_agree_with_tree(make_random_tree, document, layout):
    """node_label / node_cid / node_words of store backends match the
    document, looked up one node at a time, after one batched prefetch of
    every node's element row and words, and after one of element rows
    alone (the ``minmax`` record-tree prefetch)."""
    tree = (make_random_tree(7) if document == "random"
            else repeated_words_tree())
    if document == "repeated-words":
        rows = [(row.dewey, row.keyword) for row in shred_tree(tree).values]
        assert len(rows) > len(set(rows)), "the input must repeat a row"
    index = InvertedIndex(tree)
    single = build_source(tree, layout, tree.name)
    prefetched = type(single)(single.store, tree.name)
    element_rows = type(single)(single.store, tree.name)
    nodes = [node.dewey for node in tree.iter_preorder()]
    prefetched.prefetch_nodes(nodes, nodes)
    element_rows.prefetch_nodes(nodes, ())
    for node in tree.iter_preorder():
        words = index.node_words(node.dewey)
        cid = (min(words), max(words)) if words else ("", "")
        assert index.node_cid(node.dewey) == cid
        for source in (single, prefetched, element_rows):
            assert source.node_label(node.dewey) == node.label
            assert source.node_cid(node.dewey) == cid
            assert source.node_words(node.dewey) == words
    absent = DeweyCode((0, 999))
    for source in (index, single, prefetched, element_rows):
        assert source.node_label(absent) is None
        assert source.node_cid(absent) == ("", "")


def test_packed_blobs_round_trip_per_keyword(sources):
    """Every stored blob rebuilds the exact posting columns."""
    memory = sources["memory"]
    sqlite_source = sources["sqlite"]
    store = sqlite_source.store
    assert store.has_packed_postings(sqlite_source.document)
    for word in memory.vocabulary():
        packed = sqlite_source.postings(word).deweys
        assert PackedDeweyList.from_blob(packed.to_blob()) == packed
        assert list(packed) == list(memory.postings(word).deweys), word


def test_legacy_store_without_blobs_falls_back(make_random_tree):
    """A database ingested without ``posting`` rows still answers packed."""
    tree = make_random_tree(19)
    store = SQLiteStore()
    store.store_tree(tree, "doc")
    store._connection.execute("DELETE FROM posting WHERE document = ?",
                              ("doc",))
    store._connection.commit()
    assert not store.has_packed_postings("doc")
    legacy = SQLitePostingSource(store, "doc")
    reference = InvertedIndex(tree)
    words = reference.vocabulary()
    for word in words[:10]:
        packed = legacy.postings(word).deweys
        assert isinstance(packed, PackedDeweyList)
        assert list(packed) == list(reference.postings(word).deweys), word
    batch = legacy.keyword_nodes(words[:5] + ["definitelyabsentword"])
    for word in words[:5]:
        assert list(batch[word]) == list(reference.postings(word).deweys)
    assert list(batch["definitelyabsentword"]) == []


def test_predates_posting_table_row_decode_identical_to_packed(
        make_random_tree, tmp_path):
    """A database file written before the ``posting`` table existed answers
    every path — including a query containing an empty (absent) keyword —
    identically to a freshly packed database.

    Unlike ``test_legacy_store_without_blobs_falls_back`` (which empties the
    table) this crafts the raw pre-``posting`` schema on disk, runs the whole
    engine over it and diffs full search results against the packed store.
    """
    import sqlite3

    from repro.core import SearchEngine
    from repro.storage import CREATE_TABLES_SQL, shred_tree

    tree = make_random_tree(23)
    shredded = shred_tree(tree, "doc")
    legacy_path = tmp_path / "legacy.db"
    connection = sqlite3.connect(legacy_path)
    for statement in CREATE_TABLES_SQL:
        if "posting" in statement:
            continue  # the pre-packed schema had no posting table
        connection.execute(statement)
    connection.executemany(
        "INSERT INTO label (document, label, id) VALUES (?, ?, ?)",
        [(shredded.name, row.label, row.label_id) for row in shredded.labels])
    connection.executemany(
        "INSERT INTO element (document, label, dewey, level, "
        "label_number_sequence, content_feature_min, content_feature_max) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        [(shredded.name, row.label, row.dewey, row.level,
          row.label_number_sequence, row.content_feature_min,
          row.content_feature_max) for row in shredded.elements])
    connection.executemany(
        "INSERT INTO value (document, label, dewey, attribute, keyword) "
        "VALUES (?, ?, ?, ?, ?)",
        [(shredded.name, row.label, row.dewey, row.attribute, row.keyword)
         for row in shredded.values])
    connection.commit()
    connection.close()

    legacy_store = SQLiteStore(legacy_path)
    packed_store = SQLiteStore()
    packed_store.store_tree(tree, "doc")
    assert not legacy_store.has_packed_postings("doc")
    assert packed_store.has_packed_postings("doc")

    words = InvertedIndex(tree).vocabulary()
    # A query mixing present keywords with an empty (zero-posting) keyword.
    mixed_query = words[:2] + ["definitelyabsentword"]
    legacy = SQLitePostingSource(legacy_store, "doc")
    packed = SQLitePostingSource(packed_store, "doc")
    legacy_lists = legacy.keyword_nodes(mixed_query)
    packed_lists = packed.keyword_nodes(mixed_query)
    assert set(legacy_lists) == set(packed_lists)
    for keyword in legacy_lists:
        assert list(legacy_lists[keyword]) == \
            list(packed_lists[keyword]), keyword
    assert list(legacy.postings("definitelyabsentword").deweys) == []
    assert legacy.frequency("definitelyabsentword") == 0
    for algorithm in ("validrtf", "maxmatch"):
        legacy_result = SearchEngine(
            source=SQLitePostingSource(legacy_store, "doc")).search(
                " ".join(mixed_query), algorithm)
        packed_result = SearchEngine(
            source=SQLitePostingSource(packed_store, "doc")).search(
                " ".join(mixed_query), algorithm)
        assert legacy_result.roots() == packed_result.roots()
        assert [f.kept_nodes for f in legacy_result] == \
            [f.kept_nodes for f in packed_result], algorithm
    legacy_store.close()
    packed_store.close()


def test_legacy_fallback_skips_pointless_blob_probes(make_random_tree):
    """On a no-blob document, per-keyword fetches go straight to row decode.

    Regression guard for the legacy fast path: once ``has_packed_postings``
    answered False, ``postings()`` must not keep issuing one doomed
    ``SELECT ... FROM posting`` per keyword before each row-decode fallback.
    """
    tree = make_random_tree(29)
    store = SQLiteStore()
    store.store_tree(tree, "doc")
    store._connection.execute("DELETE FROM posting WHERE document = ?",
                              ("doc",))
    store._connection.commit()
    source = SQLitePostingSource(store, "doc", lru_size=0)
    words = source.vocabulary()[:5]
    for word in words:
        source.postings(word)  # prime the has-blobs check

    probes = []
    store._connection.set_trace_callback(
        lambda statement: probes.append(statement)
        if "FROM posting" in statement else None)
    try:
        for word in words:
            assert list(source.postings(word).deweys)
    finally:
        store._connection.set_trace_callback(None)
    assert probes == [], "legacy documents must not probe the posting table " \
                         "once its absence is known"


def test_posting_lru_serves_repeats(make_random_tree):
    """Repeated lookups of one keyword are answered from the source's LRU."""
    tree = make_random_tree(13)
    store = SQLiteStore()
    store.store_tree(tree, "doc")
    source = SQLitePostingSource(store, "doc", lru_size=4)
    word = source.vocabulary()[0]
    first = source.postings(word).deweys
    misses = source.lru_misses
    assert source.postings(word).deweys == first
    assert source.lru_misses == misses  # second lookup hit the LRU
    assert source.lru_hits >= 1
