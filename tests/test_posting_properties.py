"""Property-based posting-list invariants, checked across every backend.

Seeded random documents (the shared ``random_tree`` generator from
``conftest``) are indexed two ways — in-memory inverted index and sqlite
store — and for every word of the vocabulary the backends must agree on the
:class:`PostingSource` contract (the segmented source and the parity
matrix's layout and shared-store inputs are checked one by one against the
memory index):

* posting lists strictly sorted in document (Dewey) order, duplicate-free;
* ``encode_dewey`` / ``decode_dewey`` round-trips every posting;
* ``impact(w).count == len(keyword_nodes([w])[w])``;
* identical vocabularies and identical posting lists across backends;
* one ``keyword_nodes`` call over several keywords equals one call per
  keyword;
* every backend serves :class:`PackedDeweyList` columns whose stored blobs
  round-trip;
* node labels, cIDs and word sets, looked up one node at a time or
  prefetched in a batch, equal the document's on sqlite, on a segmented
  base and delta generation and on every layout input, also where the value
  table repeats a (dewey, keyword) row; a stored cID is the (min, max) of
  the node's word set.
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
)
from repro.text import DEFAULT_TOKENIZER, ContentAnalyzer
from repro.xmltree import DeweyCode, spec, tree_from_spec
from test_backend_parity import (
    LAYOUT_INPUTS,
    SHARED_STORE_INPUTS,
    build_source,
)

SEEDS = (3, 11, 29, 47, 101)

#: Sources the cross-backend loops leave out: the segmented delta-segment
#: path, the stores whose rows reached the base tables by another route and
#: the document served from a store it shares with other documents.
SINGLE_SOURCES = ("segmented",) + LAYOUT_INPUTS + SHARED_STORE_INPUTS


def postings(source, word):
    """The posting list of one normalized word, read through the one
    stage-1 entry point."""
    return source.keyword_nodes([word])[word]


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
        assert isinstance(postings(source, word), PackedDeweyList)
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
        reference = list(postings(sources["memory"], word))
        assert list(postings(sources["sqlite"], word)) == reference, \
            word
        assert reference, f"vocabulary word {word!r} with empty postings"
        for left, right in zip(reference, reference[1:]):
            assert left < right, f"posting list of {word!r} not strictly sorted"


def test_frequency_equals_posting_length(sources):
    vocabulary = sources["memory"].vocabulary()
    for name, source in sources.items():
        for word in vocabulary:
            assert source.impact(word).count == len(postings(source, word)), \
                (name, word)
        assert source.impact("definitelyabsentword").count == 0, name


def test_encode_decode_round_trips_every_posting(sources):
    for word in sources["memory"].vocabulary():
        for dewey in postings(sources["memory"], word):
            components = tuple(dewey.components)
            assert decode_dewey(encode_dewey(components)) == components


def test_batched_keyword_nodes_equals_postings(sources):
    vocabulary = sources["memory"].vocabulary()
    probe = vocabulary[:5] + ["definitelyabsentword"]
    for name, source in sources.items():
        batched = source.keyword_nodes(probe)
        for word in probe:
            assert batched[word] == list(postings(source, word)), \
                (name, word)


@pytest.mark.parametrize("backend", SINGLE_SOURCES)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_source_serves_memory_postings(make_random_tree, seed, backend):
    """One source serves the memory index's lists, packed, on every path.

    A cold batched lookup (with an absent keyword), then the impact count
    and the one-keyword list of every keyword (cold past the five batched
    ones), must each equal the in-memory index as a
    :class:`PackedDeweyList`.
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
        assert batched[word] == postings(reference, word), \
            (backend, word)
    for word in vocabulary + ["definitelyabsentword"]:
        expected = postings(reference, word)
        assert source.impact(word).count == len(expected), (backend, word)
        deweys = postings(source, word)
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
                    postings(source, keyword)), (layout, seed, keyword)


def repeated_words_tree():
    """A document whose ``title`` word is in one node's label, text and an
    attribute, so that node's raw strings repeat the word."""
    return tree_from_spec(spec(
        "bib", None,
        spec("title", "title of xml search", attributes={"kind": "title"}),
        spec("author", "kong")), name="repeated")


@pytest.mark.parametrize("layout", ("sqlite", "segmented") + LAYOUT_INPUTS)
@pytest.mark.parametrize("document", ("random", "repeated-words"))
def test_node_lookups_agree_with_tree(make_random_tree, document, layout):
    """node_label / node_cid of the disk sources match the document,
    looked up one node at a time and after one batched prefetch of every
    node's element row (the record-tree prefetch).  The expected cID is
    the ``(min, max)`` of the node's content words, read by the analyzer
    off the tree."""
    tree = (make_random_tree(7) if document == "random"
            else repeated_words_tree())
    if document == "repeated-words":
        assert any(len(words) > len(set(words)) for words in (
            DEFAULT_TOKENIZER.tokenize_many(node.raw_strings())
            for node in tree.iter_preorder())), \
            "one node's raw strings must repeat a word"
    index = InvertedIndex(tree)
    analyzer = ContentAnalyzer(tree)
    single = build_source(tree, layout, tree.name)
    prefetched = type(single)(single.store, tree.name)
    nodes = [node.dewey for node in tree.iter_preorder()]
    prefetched.prefetch_nodes(nodes, ())
    for node in tree.iter_preorder():
        words = analyzer.node_content(node)
        cid = (min(words), max(words)) if words else ("", "")
        assert index.node_cid(node.dewey) == cid
        # A code and its plain tuple are one node-table key.
        assert index.node_label(node.dewey.components) == node.label
        for source in (single, prefetched):
            assert source.node_label(node.dewey) == node.label
            assert source.node_cid(node.dewey) == cid
    absent = DeweyCode((0, 999))
    for source in (index, single, prefetched):
        assert source.node_label(absent) is None
        assert source.node_cid(absent) == ("", "")


def test_packed_blobs_round_trip_per_keyword(sources):
    """Every stored blob rebuilds the exact posting columns."""
    memory = sources["memory"]
    sqlite_source = sources["sqlite"]
    for word in memory.vocabulary():
        packed = postings(sqlite_source, word)
        assert PackedDeweyList.from_blob(packed.to_blob()) == packed
        assert list(packed) == list(postings(memory, word)), word
    assert sqlite_source.read_stats()["packed_fetches"] == \
        len(memory.vocabulary())


def test_posting_lru_serves_repeats(make_random_tree):
    """Repeated lookups of one keyword are answered from the source's LRU."""
    tree = make_random_tree(13)
    store = SQLiteStore()
    store.store_tree(tree, "doc")
    source = SQLitePostingSource(store, "doc", lru_size=4)
    word = source.vocabulary()[0]
    first = postings(source, word)
    misses = source.lru_misses
    assert postings(source, word) == first
    assert source.lru_misses == misses  # second lookup hit the LRU
    assert source.lru_hits >= 1
