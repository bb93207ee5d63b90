"""Shared helpers of the differential corpus fuzz harness.

The corpus correctness contract is *differential*: for any corpus, any
backend and any algorithm, the corpus answer must equal
the **union of the per-document single-document answers** computed by the
plain in-memory :class:`~repro.core.engine.SearchEngine` (the most-tested
reference path in the repo).  These helpers generate seeded random corpora
and queries, build corpus engines across the backend matrix and perform the
full-fidelity comparison.

A second, *mutation-sequence* contract rides on top of it: a segmented
corpus that absorbed any seeded sequence of add / update / delete / compact
mutations must answer byte-identically (canonical wire payloads) to a corpus
re-shredded from scratch out of the same live documents — see
:func:`run_mutation_sequence` and :func:`assert_segmented_matches_fresh`.

Used by the fast bounded tier-1 suite (``tests/test_corpus_fuzz.py``) and
the deep opt-in sweep (``benchmarks/test_corpus_fuzz.py``); kept
self-contained (no conftest imports) so both suites can load it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.core import ALGORITHM_NAMES, SearchEngine
from repro.corpus import (
    CorpusPostingSource,
    CorpusSearchEngine,
    corpus_from_store,
)
from repro.faults import InjectedCrash
from repro.service.protocol import (
    comparison_payload,
    encode_message,
    ranking_payload,
    result_payload,
)
from repro.storage import SQLiteStore
from repro.xmltree import SubtreeSpec, XMLTree, tree_from_spec

#: Small label/word pools keep keyword collisions (and therefore non-trivial
#: posting lists spanning several documents) frequent.
LABEL_POOL = ("a", "b", "c", "d", "e")
WORD_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")


def random_document(seed: int, max_children: int = 3, max_depth: int = 4,
                    max_nodes: int = 40) -> XMLTree:
    """One deterministic random labelled tree with word-bearing nodes."""
    rng = random.Random(seed)
    counter = {"nodes": 1}

    def make(depth: int) -> SubtreeSpec:
        label = rng.choice(LABEL_POOL)
        text = None
        if rng.random() < 0.6:
            text = " ".join(rng.choice(WORD_POOL)
                            for _ in range(rng.randint(1, 3)))
        node = SubtreeSpec(label, text)
        if depth < max_depth and counter["nodes"] < max_nodes:
            for _ in range(rng.randint(0, max_children)):
                if counter["nodes"] >= max_nodes:
                    break
                counter["nodes"] += 1
                node.add(make(depth + 1))
        return node

    return tree_from_spec(make(0), name=f"fuzz-{seed}")


def random_corpus(seed: int, min_docs: int = 2, max_docs: int = 8,
                  max_nodes: int = 40) -> Dict[str, XMLTree]:
    """A seeded random corpus of ``min_docs``–``max_docs`` documents."""
    rng = random.Random(seed * 7919 + 13)
    count = rng.randint(min_docs, max_docs)
    return {f"doc-{index:02d}": random_document(seed * 101 + index,
                                                max_nodes=max_nodes)
            for index in range(count)}


def random_queries(seed: int, count: int = 4,
                   max_keywords: int = 3) -> List[str]:
    """Seeded keyword queries over the shared word pool."""
    rng = random.Random(seed * 31 + count)
    queries = []
    for _ in range(count):
        size = rng.randint(1, max_keywords)
        queries.append(" ".join(rng.sample(WORD_POOL, size)))
    return queries


def store_corpus(trees: Dict[str, XMLTree],
                 store: SQLiteStore) -> CorpusPostingSource:
    """Store every document into ``store`` and serve them as a corpus, the
    one-store layout a database-served corpus runs (tree-free)."""
    for name in sorted(trees):
        store.store_tree(trees[name], name)
    return corpus_from_store(store)


def build_corpus_engine(trees: Dict[str, XMLTree],
                        backend: str) -> CorpusSearchEngine:
    """A corpus engine over ``trees`` for one backend: ``memory`` keeps one
    inverted index per document, ``sqlite`` stores every document into the
    base tables of one :class:`SQLiteStore`, and ``segmented`` then shadows
    each with an identical delta-segment version, so every document is read
    from the segment tables."""
    if backend == "memory":
        return CorpusSearchEngine.from_trees(trees)
    store = SQLiteStore()
    for name in sorted(trees):
        store.store_tree(trees[name], name)
        if backend == "segmented":
            store.update_document(trees[name], name)
    return CorpusSearchEngine(corpus_from_store(store))


def reference_engines(trees: Dict[str, XMLTree]) -> Dict[str, SearchEngine]:
    """One plain memory engine per document — the differential reference."""
    return {doc_id: SearchEngine(tree) for doc_id, tree in trees.items()}


def result_fingerprint(result) -> tuple:
    """Everything of a SearchResult the union contract covers (no timings)."""
    return (
        tuple(str(code) for code in result.lca_nodes),
        tuple((str(fragment.root), fragment.is_slca,
               tuple(str(code) for code in fragment.kept_nodes),
               tuple(str(code) for code in fragment.fragment.nodes),
               tuple(str(code) for code in fragment.fragment.keyword_nodes))
              for fragment in result.fragments),
    )


def assert_corpus_equals_union(corpus_result, references, query: str,
                               algorithm: str, context=()) -> None:
    """The differential check: corpus answer == per-document union."""
    expected = {}
    for doc_id, engine in references.items():
        result = engine.search(query, algorithm)
        if result.count or result.lca_nodes:
            expected[doc_id] = result
    got = corpus_result.by_doc()
    assert set(got) == set(expected), (
        "corpus answered documents differ from the per-document union",
        sorted(got), sorted(expected), query, algorithm, *context)
    for doc_id, reference in expected.items():
        assert result_fingerprint(got[doc_id]) == \
            result_fingerprint(reference), (
            "corpus document result differs from its single-document engine",
            doc_id, query, algorithm, *context)
    # The aggregate accessors must agree with the per-document concatenation
    # in corpus (sorted doc-id) order.
    flat = [fragment for doc_id in sorted(expected)
            for fragment in expected[doc_id].fragments]
    assert list(corpus_result.fragments) == flat, (query, algorithm, *context)


# ---------------------------------------------------------------------- #
# Mutation-sequence fuzz (segmented incremental updates)
# ---------------------------------------------------------------------- #
# The update-oracle convention: a corpus that absorbed ANY sequence of
# add / update / delete / compact mutations must answer **byte-identically**
# (canonical wire payloads of search, compare and rank) to a corpus
# re-shredded from scratch out of the same live documents.  The driver below
# mirrors every mutation it applies to a ``SQLiteStore`` into a plain
# ``{doc_id: tree}`` dict — that dict *is* the oracle state, and a fresh
# in-memory corpus engine built from it is the reference answer.

def wire_lines(engine: CorpusSearchEngine,
               queries: List[str]) -> List[bytes]:
    """Canonical wire bytes of every (query × algorithm) search plus the
    compare and rank answers — the byte-identity fingerprint of an engine."""
    lines = [
        encode_message({"query": query, "algorithm": algorithm,
                        "result": result_payload(
                            engine.search(query, algorithm))})
        for query in queries for algorithm in ALGORITHM_NAMES
    ]
    for query in queries:
        lines.append(encode_message(
            {"query": query,
             "comparison": comparison_payload(engine.compare(query))}))
        lines.append(encode_message(
            {"query": query,
             "ranking": ranking_payload(engine.rank_search(query).ranked)}))
    return lines


def segmented_engine(store: SQLiteStore) -> CorpusSearchEngine:
    """A tree-free corpus engine over the store's current live documents,
    as a database-served corpus runs."""
    return CorpusSearchEngine(corpus_from_store(store))


def fresh_oracle(state: Dict[str, XMLTree]) -> CorpusSearchEngine:
    """The update oracle: the live state re-shredded from scratch."""
    return CorpusSearchEngine.from_trees(state)


def assert_segmented_matches_fresh(store: SQLiteStore,
                                   state: Dict[str, XMLTree],
                                   queries: List[str],
                                   context=()) -> None:
    """Byte-identity of the mutated store against the fresh-rebuild oracle."""
    got = wire_lines(segmented_engine(store), queries)
    want = wire_lines(fresh_oracle(state), queries)
    assert got == want, (
        "mutated segmented corpus diverged from a fresh rebuild", *context)


def run_mutation_sequence(store: SQLiteStore, state: Dict[str, XMLTree],
                          seed: int, steps: int,
                          check: Callable[[str], None],
                          max_nodes: int = 25) -> List[str]:
    """Drive ``steps`` seeded random mutations through ``store``.

    Every mutation is mirrored into ``state`` (the oracle dict) and
    ``check(label)`` runs after each commit, so **every intermediate state**
    is verified, not just the final one.  Kinds: ``add`` a brand-new
    document, ``update`` (shadow) an existing one, ``delete`` (tombstone)
    one — only while more than one is live, the engines refuse empty
    corpora — and ``compact`` the segment log.  Returns the step labels.
    """
    rng = random.Random(seed * 7907 + 23)
    counter = len(state)
    labels = []
    for index in range(steps):
        kinds = ["add", "update", "compact"]
        if len(state) > 1:
            kinds.append("delete")
        kind = rng.choice(kinds)
        if kind == "add":
            name = f"doc-{counter:02d}"
            counter += 1
            tree = random_document(rng.randrange(1, 1 << 20),
                                   max_nodes=max_nodes)
            store.update_document(tree, name)
            state[name] = tree
        elif kind == "update":
            name = rng.choice(sorted(state))
            tree = random_document(rng.randrange(1, 1 << 20),
                                   max_nodes=max_nodes)
            store.update_document(tree, name)
            state[name] = tree
        elif kind == "delete":
            name = rng.choice(sorted(state))
            store.delete_document(name)
            del state[name]
        else:
            store.compact()
        label = f"step {index}: {kind}"
        labels.append(label)
        check(label)
    return labels


def crash_at(point: str, error: type = InjectedCrash):
    """A store fault hook raising ``error`` at one named fault point."""
    def hook(name):
        if name == point:
            raise error(f"killed at {name}")
    return hook
