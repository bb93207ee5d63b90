"""Differential corpus fuzz (fast, tier-1): corpus == union of per-doc.

Seeded random corpora (2–8 random trees) are searched through the corpus
engine across every corpus document backend (memory, sqlite) and the
segmented layout (every document of the store read from its delta
segment) × all four algorithms, and
each answer is cross-checked against the union of the per-document results
computed by plain single-document memory engines.  This is the corpus
layer's core correctness contract (see ROADMAP, "Corpus retrieval").

This module is the *bounded* version wired into tier-1 (a few seeds, tiny
trees); the deep sweep with more seeds and larger documents lives behind the
``bench`` marker in ``benchmarks/test_corpus_fuzz.py``.  Both share
``tests/fuzz_util.py``.
"""

from __future__ import annotations

import itertools
import shutil

import pytest

from fuzz_util import (
    assert_corpus_equals_union,
    assert_segmented_matches_fresh,
    build_corpus_engine,
    fresh_oracle,
    random_corpus,
    random_document,
    random_queries,
    reference_engines,
    run_mutation_sequence,
    segmented_engine,
    wire_lines,
)
from repro.core import ALGORITHM_NAMES
from repro.faults import InjectedCrash
from repro.service.protocol import encode_message, ranking_payload
from repro.storage import SQLiteStore, verify_database

SEEDS = (1, 2, 3)
#: Every per-document source kind a corpus is built over.
BACKENDS = ("memory", "sqlite")
#: The backends plus ``segmented``: every document of one store read from
#: its delta segment.
LAYOUTS = BACKENDS + ("segmented",)

#: Bounded mutation-sequence fuzz (the deep sweep lives in benchmarks/).
MUTATION_SEEDS = (7, 8)
MUTATION_STEPS = 5


@pytest.mark.parametrize("backend", LAYOUTS)
def test_corpus_equals_per_document_union(backend):
    for seed in SEEDS:
        trees = random_corpus(seed)
        corpus = build_corpus_engine(trees, backend)
        references = reference_engines(trees)
        for query in random_queries(seed):
            for algorithm in ALGORITHM_NAMES:
                assert_corpus_equals_union(
                    corpus.search(query, algorithm), references, query,
                    algorithm, context=(seed, backend))


@pytest.mark.parametrize("backend", LAYOUTS)
def test_corpus_batch_equals_per_document_union(backend):
    """search_many (per-document batch fast path) honours the same union."""
    seed = 4
    trees = random_corpus(seed)
    corpus = build_corpus_engine(trees, backend)
    references = reference_engines(trees)
    queries = random_queries(seed, count=5)
    batched = corpus.search_many(queries, "validrtf")
    for query, result in zip(queries, batched):
        assert_corpus_equals_union(result, references, query, "validrtf",
                                   context=(seed, backend, "batch"))


def test_corpus_doc_filter_is_a_sub_union():
    """A doc_filter answer equals the union restricted to the filter."""
    seed = 5
    trees = random_corpus(seed, min_docs=3, max_docs=5)
    corpus = build_corpus_engine(trees, "memory")
    references = reference_engines(trees)
    subset = sorted(trees)[::2]
    for query in random_queries(seed, count=3):
        result = corpus.search(query, "validrtf", doc_filter=subset)
        restricted = {doc_id: references[doc_id] for doc_id in subset}
        assert_corpus_equals_union(result, restricted, query, "validrtf",
                                   context=(seed, "doc_filter"))
        assert set(result.doc_ids) <= set(subset)


def test_mutated_corpus_equals_fresh_rebuild():
    """The update-oracle contract: any mutation sequence == fresh rebuild.

    Every intermediate state (after each add / update / delete / compact)
    must answer byte-identically — canonical search, compare and rank wire
    payloads across all four algorithms — to a corpus re-shredded from
    scratch out of the same live documents.
    """
    for seed in MUTATION_SEEDS:
        state = random_corpus(seed, min_docs=2, max_docs=3, max_nodes=25)
        store = SQLiteStore()
        for name in sorted(state):
            store.store_tree(state[name], name)
        queries = random_queries(seed, count=3)

        def check(label, state=state, store=store, queries=queries,
                  seed=seed):
            assert_segmented_matches_fresh(
                store, state, queries, context=(seed, label))

        check("initial")
        run_mutation_sequence(store, state, seed, MUTATION_STEPS, check)
        # An explicit final compaction must fold every segment away and
        # still answer identically.
        store.compact()
        check("final compact")
        assert store.segment_count() == 0
        store.close()


def test_mutated_corpus_equals_per_document_union():
    """The mutated store also honours the original union contract."""
    seed = 9
    state = random_corpus(seed, min_docs=2, max_docs=3, max_nodes=25)
    store = SQLiteStore()
    for name in sorted(state):
        store.store_tree(state[name], name)

    def check(label):
        corpus = segmented_engine(store)
        references = reference_engines(state)
        for query in random_queries(seed, count=2):
            assert_corpus_equals_union(
                corpus.search(query, "validrtf"), references, query,
                "validrtf", context=(seed, "mutated-union", label))

    run_mutation_sequence(store, state, seed, MUTATION_STEPS, check)
    store.close()


# ---------------------------------------------------------------------- #
# Crash-point differential fuzz: kill the process at both fault points of
# every mutation; the reopened database must answer exactly like the fresh
# pre-mutation oracle (killed before the commit) or the post-mutation one
# (killed after it), never anything else.
# ---------------------------------------------------------------------- #
#: ``<kind>.apply`` (last statement ran, no commit) then ``<kind>.applied``
#: (right after the commit), per mutation kind.
CRASH_POINTS = {
    kind: (f"{kind}.apply", f"{kind}.applied")
    for kind in ("update", "delete", "compact")
}


def _kill_hook(point: str):
    def hook(name):
        if name == point:
            raise InjectedCrash(f"killed at {name}")
    return hook


def _apply(store, state, kind, name, tree):
    if kind == "update":
        store.update_document(tree, name)
        state[name] = tree
    elif kind == "delete":
        store.delete_document(name)
        del state[name]
    else:
        store.compact()


def test_crash_at_every_kill_point_recovers(tmp_path):
    """The crash-point differential contract.

    For every mutation of a seeded sequence and both fault points of that
    mutation kind, crash a copy of the database mid-flight, reopen it, and
    assert the survivor answers byte-identically to the pre-mutation
    fresh-rebuild oracle after a crash before the commit, and to the
    post-mutation one after a crash past it — a mutation is all-or-nothing
    — and that ``verify_database`` finds a clean store.
    """
    seed = 11
    state = random_corpus(seed, min_docs=2, max_docs=3, max_nodes=20)
    db = str(tmp_path / "crash.db")
    store = SQLiteStore(db)
    for name in sorted(state):
        store.store_tree(state[name], name)
    queries = random_queries(seed, count=2)
    docs = sorted(state)
    steps = (
        ("update", "doc-new", random_document(seed * 131 + 1, max_nodes=20)),
        ("update", docs[0], random_document(seed * 131 + 2, max_nodes=20)),
        ("compact", "", None),
        ("delete", docs[-1], None),
    )
    trial_no = 0
    for kind, name, tree in steps:
        pre_state = dict(state)
        post_state = dict(state)
        if kind == "update":
            post_state[name] = tree
        elif kind == "delete":
            del post_state[name]
        pre_lines = wire_lines(fresh_oracle(pre_state), queries)
        post_lines = wire_lines(fresh_oracle(post_state), queries)
        store.close()
        for point in CRASH_POINTS[kind]:
            trial_no += 1
            trial = str(tmp_path / f"trial-{trial_no}.db")
            shutil.copy(db, trial)
            victim = SQLiteStore(trial)
            victim.fault_hook = _kill_hook(point)
            with pytest.raises(InjectedCrash):
                _apply(victim, dict(state), kind, name, tree)
            victim.close()
            committed = point.endswith(".applied")
            survivor = SQLiteStore(trial)
            outcome = post_state if committed else pre_state
            assert set(survivor.documents()) == set(outcome), (kind, point)
            got = wire_lines(segmented_engine(survivor), queries)
            assert got == (post_lines if committed else pre_lines), \
                (kind, point)
            survivor.close()
            report = verify_database(trial)
            assert report.clean, (kind, point, report.render())
        # The kill points survived; now apply the mutation for real.
        store = SQLiteStore(db)
        _apply(store, state, kind, name, tree)
    store.close()
    assert verify_database(db).clean


# ---------------------------------------------------------------------- #
# Ranked retrieval fuzz: determinism across the backend matrix and the
# threshold driver's byte-identity with the exhaustive path (the
# early-termination contract of ``CorpusSearchEngine.rank_search``).
# ---------------------------------------------------------------------- #
def test_ranked_answers_deterministic_across_backends():
    """Every backend serves the same ranked wire bytes.

    Ranking reads impact metadata (count, max node depth) from the posting
    store, so a backend that shreds or migrates that metadata differently
    would silently reorder results — the canonical wire encoding catches
    any drift, including float-formatting differences in the scores.  The
    engines hold no trees: ranking runs on what the search computed.
    """
    from repro.corpus import CorpusSearchEngine

    for seed in SEEDS:
        trees = random_corpus(seed)
        queries = random_queries(seed)
        rankings = {}
        for backend in BACKENDS:
            engine = CorpusSearchEngine(
                build_corpus_engine(trees, backend).source)
            rankings[backend] = [
                encode_message({"query": query,
                                "ranking": ranking_payload(
                                    engine.rank_search(query).ranked)})
                for query in queries]
        reference = rankings["memory"]
        for backend, lines in rankings.items():
            assert lines == reference, (seed, backend)


def test_early_termination_is_byte_identical_to_exhaustive():
    """The threshold driver never changes the answer, only the visit count.

    For seeded random corpora on every layout (the disk ones tree-free) and
    every interesting ``top_k`` (empty, tiny, corpus-sized, oversized),
    ``early_terminate=True`` must produce wire bytes identical to the
    exhaustive path, and its visit accounting must stay consistent
    (visited + skipped == selected, never more visits than the exhaustive
    pass).
    """
    for seed, layout in itertools.product(SEEDS, LAYOUTS):
        trees = random_corpus(seed)
        engine = build_corpus_engine(trees, layout)
        for query in random_queries(seed):
            for top_k in (0, 1, 2, len(trees), len(trees) + 3):
                exhaustive = engine.rank_search(query, top_k=top_k)
                early = engine.rank_search(query, top_k=top_k,
                                           early_terminate=True)
                context = (seed, layout, query, top_k)
                assert encode_message(
                    {"ranking": ranking_payload(early.ranked)}) == \
                    encode_message(
                        {"ranking": ranking_payload(exhaustive.ranked)}), \
                    context
                assert early.docs_visited <= exhaustive.docs_visited, context
                assert early.docs_visited + early.docs_skipped == \
                    early.docs_selected, context
                assert exhaustive.docs_visited == \
                    exhaustive.docs_selected, context
