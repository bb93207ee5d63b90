"""Backend parity: every posting backend must answer exactly like memory.

This is the repo's cross-backend transparency contract: the paper-example
documents and a synthetic corpus are searched through the in-memory inverted
index, the disk-backed sqlite source over the base tables, a one-document
corpus and the sqlite source over a delta segment, and the complete
:class:`SearchResult` — roots, kept node sets, SLCA flags, LCA node list —
must be identical for all four algorithms.  **Any new
backend must be added to ``BACKENDS`` here and pass unchanged** (see
ROADMAP, Open items).

The disk-backed engines deliberately run *without* a resident tree, so this
suite also proves the purely source-backed pipeline (Dewey-arithmetic
fragments, lookup-driven record trees) against the tree-backed one.

Next to the backends the matrix runs the ``LAYOUT_INPUTS``: stores that reach
a stored layout by other routes (a new name written as a delta segment alone,
a compacted delta version, a document stored under a tombstoned name), so
the packed rows are read after every mutation that writes them.  The
``SHARED_STORE_INPUTS`` serve the document from a sqlite store it shares with
other documents, the one-store layout every disk-backed corpus runs.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ALGORITHM_NAMES,
    Query,
    SearchEngine,
    build_fragment,
    build_record_tree,
    rank_result,
)
from fuzz_util import store_corpus
from repro.corpus import CorpusSearchEngine
from repro.datasets import PAPER_QUERIES
from repro.storage import SQLitePostingSource, SQLiteStore
from repro.text import ContentAnalyzer
from repro.xmltree import SubtreeSpec, XMLTree, tree_from_spec

BACKENDS = ("memory", "sqlite", "corpus", "segmented")

#: The registration contract the lint gate (``parity-registration``)
#: machine-checks: every class in ``src/`` that implements the
#: ``PostingSource`` protocol must appear here, mapped to the ``BACKENDS``
#: entries it serves, and together the entries must cover all of BACKENDS.
PARITY_SOURCES = {
    "InvertedIndex": ("memory",),
    "SQLitePostingSource": ("sqlite", "corpus", "segmented"),
}

#: Store inputs the matrix runs besides BACKENDS, all tree-free, whose rows
#: got where they are by another route than the backends' writes:
#: ``segment-only`` is a new name written by ``update_document`` alone, a
#: delta segment with no base rows under it (what ``index --update`` and the
#: wire ``update`` op write); ``tombstone-restored`` is stored by
#: ``store_tree`` under a name whose earlier document was stored, shadowed
#: by a delta segment and tombstoned; ``segmented-compacted`` is a delta
#: version, shadowing another version of the name in the base tables, folded
#: into them by ``compact``.  The earlier versions are the document
#: mirrored: the same labels and words on other Dewey codes, so any row of
#: theirs left behind changes an answer.
LAYOUT_INPUTS = ("segment-only", "tombstone-restored", "segmented-compacted")

#: Store inputs whose document shares one sqlite store with other
#: documents: ``corpus-store`` is the document's source in a corpus served
#: by ``corpus_from_store`` out of one ``SQLiteStore``, stored between two
#: mirrored copies of itself, so every word it holds is also stored for a
#: neighbour.
SHARED_STORE_INPUTS = ("corpus-store",)

#: Everything the matrix compares against the memory reference engine.
CANDIDATES = (tuple(b for b in BACKENDS if b != "memory") + LAYOUT_INPUTS
              + SHARED_STORE_INPUTS)

#: (dataset fixture name, queries) pairs the parity matrix runs over.
DATASETS = (
    ("publications", ("Q1", "Q2", "Q3")),
    ("team", ("Q4", "Q5")),
)

SMALL_DBLP_QUERIES = ("xml keyword", "data algorithm", "tree query pattern")


def mirrored(tree: XMLTree) -> XMLTree:
    """``tree`` with every node's children reversed: the same labels and
    words on other Dewey codes."""
    def spec_of(node) -> SubtreeSpec:
        return SubtreeSpec(node.label, node.text, node.attributes,
                           [spec_of(child) for child in reversed(node.children)])
    return tree_from_spec(spec_of(tree.root), name=f"{tree.name}-mirrored")


def build_source(tree, backend: str, name: str = "doc"):
    """The posting source of one single-document backend or store input."""
    if backend == "sqlite":
        store = SQLiteStore()
        store.store_tree(tree, name)
        return SQLitePostingSource(store, name)
    if backend == "segmented":
        # Store the tree, then shadow the base copy with an identical
        # delta-segment version: parity runs through the segment read path
        # (the generation-2 posting and element rows).
        store = SQLiteStore()
        store.store_tree(tree, name)
        store.update_document(tree, name)
        return SQLitePostingSource(store, name)
    if backend == "segment-only":
        store = SQLiteStore()
        store.update_document(tree, name)
        return SQLitePostingSource(store, name)
    if backend == "tombstone-restored":
        store = SQLiteStore()
        store.store_tree(mirrored(tree), name)
        store.update_document(mirrored(tree), name)
        store.delete_document(name)
        store.store_tree(tree, name)
        return SQLitePostingSource(store, name)
    if backend == "segmented-compacted":
        store = SQLiteStore()
        store.store_tree(mirrored(tree), name)
        store.update_document(tree, name)
        store.compact()
        return SQLitePostingSource(store, name)
    if backend == "corpus-store":
        # Doc ids sort "0-mirror" < name < "~mirror": the document's rows
        # sit between its neighbours' in the one store, and no neighbour
        # row may reach its answers.
        mirror = mirrored(tree)
        corpus = store_corpus(
            {"0-mirror": mirror, name: tree, "~mirror": mirror},
            SQLiteStore())
        return corpus.document_source(name)
    raise ValueError(backend)


def build_engine(tree, backend: str, name: str = "doc") -> SearchEngine:
    """An engine over ``tree`` for one backend (tree-free for disk backends)."""
    if backend == "memory":
        return SearchEngine(tree)
    if backend == "corpus":
        # A one-document corpus served out of a sqlite store: the corpus
        # answer must equal the single-document answer exactly (the union
        # of one document is that document's result).
        return CorpusSearchEngine(store_corpus({name: tree}, SQLiteStore()))
    return SearchEngine(source=build_source(tree, backend, name))


@pytest.fixture(scope="module")
def engines(publications, team, small_dblp):
    """One engine per (dataset, backend) pair, built once per module."""
    trees = {"publications": publications, "team": team,
             "small_dblp": small_dblp}
    return {(dataset, backend): build_engine(tree, backend, dataset)
            for dataset, tree in trees.items()
            for backend in ("memory",) + CANDIDATES}


def assert_same_result(reference, candidate, context):
    """Full-fidelity SearchResult comparison (everything but timings)."""
    assert reference.query == candidate.query, context
    assert [str(c) for c in reference.lca_nodes] == \
        [str(c) for c in candidate.lca_nodes], context
    assert reference.roots() == candidate.roots(), context
    assert [f.kept_nodes for f in reference] == \
        [f.kept_nodes for f in candidate], context
    assert [f.is_slca for f in reference] == \
        [f.is_slca for f in candidate], context
    assert [f.fragment.nodes for f in reference] == \
        [f.fragment.nodes for f in candidate], context
    assert [f.fragment.keyword_nodes for f in reference] == \
        [f.fragment.keyword_nodes for f in candidate], context


# ---------------------------------------------------------------------- #
# The parity matrix: paper examples x algorithms x backends
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", CANDIDATES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@pytest.mark.parametrize("dataset,query_names", DATASETS)
def test_paper_examples_identical_across_backends(engines, dataset, query_names,
                                                  algorithm, backend):
    reference_engine = engines[(dataset, "memory")]
    candidate_engine = engines[(dataset, backend)]
    for query_name in query_names:
        query = PAPER_QUERIES[query_name]
        reference = reference_engine.search(query, algorithm)
        candidate = candidate_engine.search(query, algorithm)
        assert_same_result(reference, candidate,
                           (dataset, query_name, algorithm, backend))


@pytest.mark.parametrize("backend", CANDIDATES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_synthetic_corpus_identical_across_backends(engines, algorithm, backend):
    reference_engine = engines[("small_dblp", "memory")]
    candidate_engine = engines[("small_dblp", backend)]
    for query in SMALL_DBLP_QUERIES:
        reference = reference_engine.search(query, algorithm)
        candidate = candidate_engine.search(query, algorithm)
        assert_same_result(reference, candidate,
                           ("small_dblp", query, algorithm, backend))


# ---------------------------------------------------------------------- #
# Record trees: the search path's seed-and-fold against the definition
# ---------------------------------------------------------------------- #
def record_fields(records):
    """What a record tree holds, column by column: each node's code,
    label, mask, feature, parent and children, and the keyword nodes."""
    fragment = records.fragment
    return {
        "nodes": list(fragment.nodes),
        "labels": list(records.labels),
        "masks": list(records.masks),
        "features": list(records.features),
        "parents": list(records.parents),
        "children": [list(children) for children in records.children],
        "keyword_nodes": [fragment.nodes[position] for position in (
            fragment.keyword_positions or
            [fragment.nodes.index(code) for code in fragment.keyword_nodes])],
    }


#: The record-tree inputs: every backend's per-document source (the
#: ``corpus`` entry's is a ``sqlite`` source, so ``corpus-store`` stands in
#: for it) and the layout inputs.
RECORD_TREE_INPUTS = (tuple(b for b in BACKENDS if b != "corpus")
                      + LAYOUT_INPUTS + SHARED_STORE_INPUTS)


@pytest.mark.parametrize("backend", RECORD_TREE_INPUTS)
@pytest.mark.parametrize("dataset,query_names", DATASETS)
def test_record_trees_equal_the_definition(request, dataset, query_names,
                                           backend):
    """Every column the search path builds — shape and masks from
    ``getRTF``, labels and cIDs from node lookups, one fold — equals the one
    ``build_record_tree`` derives from the document's node contents and
    Dewey codes: labels, masks, features, parents, children and the keyword
    nodes."""
    tree = request.getfixturevalue(dataset)
    if backend == "memory":
        engine = SearchEngine(tree)
    else:
        engine = SearchEngine(source=build_source(tree, backend, dataset))

    analyzer = ContentAnalyzer(tree)
    checked = 0
    for algorithm in ("validrtf", "validrtf-slca"):
        pipeline = engine.algorithm(algorithm)
        for query_name in query_names:
            query = Query.parse(PAPER_QUERIES[query_name])
            for fragment in pipeline.raw_fragments(query):
                records = pipeline.record_tree(query, fragment)
                reference = build_record_tree(
                    tree, analyzer, query,
                    build_fragment(tree, fragment.root,
                                   list(fragment.keyword_nodes),
                                   fragment.is_slca))
                expected = record_fields(reference)
                for column, values in record_fields(records).items():
                    assert values == expected[column], \
                        (algorithm, query_name, str(fragment.root), column)
                checked += records.size()
    assert checked, "the queries must build record trees"


# ---------------------------------------------------------------------- #
# Ranking coverage: the search path's masks against the definition
# ---------------------------------------------------------------------- #
def tree_coverage(tree, query, fragment) -> float:
    """The coverage definition, read off the document: the distinct query
    keywords in the kept keyword nodes' own content, over ``|Q|``."""
    analyzer = ContentAnalyzer(tree)
    matched = set()
    for dewey in fragment.kept_keyword_nodes():
        matched |= analyzer.matched_keywords(tree.node(dewey), query.keywords)
    return len(matched) / query.size


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dataset,query_names", DATASETS)
def test_coverage_equals_the_definition(request, engines, dataset,
                                        query_names, backend):
    """Every ranked fragment's coverage, scored from the keyword masks of
    ``getRTF`` on a tree-free backend too, equals the tree-based
    definition."""
    tree = request.getfixturevalue(dataset)
    engine = engines[(dataset, backend)]
    checked = 0
    for query_name in query_names:
        query = Query.parse(PAPER_QUERIES[query_name])
        for algorithm in ALGORITHM_NAMES:
            for ranked in rank_result(engine.search(query, algorithm)):
                assert ranked.coverage == tree_coverage(
                    tree, query, ranked.fragment), \
                    (query_name, algorithm, str(ranked.fragment.root))
                checked += 1
    assert checked, "the queries must rank fragments"


# ---------------------------------------------------------------------- #
# The layout inputs are what they claim
# ---------------------------------------------------------------------- #
def stored_rows(store, name: str) -> dict:
    """Every element and posting row of the store, with its generation
    replaced by whether it is ``name``'s live one, and ``name``'s log rows
    without their numbers, sorted."""
    live = store.location_of(name)
    rows = {table: sorted((generation == live,) + tuple(rest)
                          for generation, *rest in store._connection.execute(
                              f"SELECT * FROM {table}"))
            for table in ("element", "posting")}
    rows["segment"] = sorted(store._connection.execute(
        "SELECT document, kind FROM segment WHERE document = ?", (name,)))
    return rows


@pytest.mark.parametrize("store_input", LAYOUT_INPUTS)
def test_layout_inputs_hold_the_fresh_rows(publications, store_input):
    """Each layout input holds exactly the rows one fresh write of its
    layout leaves: ``segment-only`` a fresh ``update_document``'s segment
    rows and no base row, every other input a fresh ``store_tree``'s base
    rows and no segment row.

    Guards the matrix entries above: a base-table input still read from a
    delta segment would repeat the ``segmented`` entries instead of
    covering its route, and a row of the name's earlier version left behind
    would be a stale answer the matrix only catches where a query happens
    to hit it.
    """
    store = build_source(publications, store_input, "publications").store
    fresh = SQLiteStore()
    if store_input == "segment-only":
        fresh.update_document(publications, "publications")
    else:
        fresh.store_tree(publications, "publications")
    assert store.documents() == ["publications"]
    assert stored_rows(store, "publications") == \
        stored_rows(fresh, "publications")
    fresh.close()


# ---------------------------------------------------------------------- #
# The registration contract itself
# ---------------------------------------------------------------------- #
def test_parity_sources_cover_backends():
    """PARITY_SOURCES names real PostingSource classes and covers BACKENDS."""
    from repro.index import InvertedIndex

    classes = {
        "InvertedIndex": InvertedIndex,
        "SQLitePostingSource": SQLitePostingSource,
    }
    assert set(classes) == set(PARITY_SOURCES)
    protocol_members = ("source_id", "keyword_nodes", "impact", "vocabulary",
                        "node_label", "node_cid")
    claimed = set()
    for name, entries in PARITY_SOURCES.items():
        for member in protocol_members:
            assert hasattr(classes[name], member), (name, member)
        assert entries, name
        for entry in entries:
            assert entry in BACKENDS, (name, entry)
        claimed.update(entries)
    assert claimed == set(BACKENDS)


# ---------------------------------------------------------------------- #
# Cache keys carry backend identity
# ---------------------------------------------------------------------- #
def test_backend_ids_are_distinct(engines):
    ids = {engines[("publications", backend)].backend_id
           for backend in BACKENDS}
    # The five backends must never share cache identity.
    assert len(ids) == len(BACKENDS)


def test_cached_results_keyed_by_backend(publications):
    """Identical queries on different backends never share cache entries."""
    store = SQLiteStore()
    store.store_tree(publications, "pub")
    memory_engine = SearchEngine(publications, cache_size=8)
    sqlite_engine = SearchEngine(source=SQLitePostingSource(store, "pub"),
                                 cache_size=8)
    query = PAPER_QUERIES["Q2"]
    memory_result = memory_engine.search(query)
    sqlite_result = sqlite_engine.search(query)
    # Both engines miss then hit within themselves...
    assert memory_engine.search(query) is memory_result
    assert sqlite_engine.search(query) is sqlite_result
    # ...and their keys differ, so a hypothetical shared cache cannot mix them.
    from repro.core import Query, QueryResultCache
    parsed = Query.parse(query)
    memory_key = QueryResultCache.key_for("validrtf", parsed,
                                          memory_engine.backend_id)
    sqlite_key = QueryResultCache.key_for("validrtf", parsed,
                                          sqlite_engine.backend_id)
    assert memory_key != sqlite_key
