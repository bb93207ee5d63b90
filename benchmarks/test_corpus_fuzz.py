"""Deep differential corpus fuzz (opt-in, ``bench`` marker).

The unbounded sibling of ``tests/test_corpus_fuzz.py``: more seeds and
larger random documents.  Seeded and deterministic — a failure reproduces
from its parametrized seed.  Runs with the benchmark suite
(``pytest benchmarks``) and with ``make fuzz-smoke``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from fuzz_util import (  # noqa: E402 - needs the tests dir on sys.path
    assert_corpus_equals_union,
    assert_segmented_matches_fresh,
    build_corpus_engine,
    random_corpus,
    random_queries,
    reference_engines,
    run_mutation_sequence,
)
from repro.core import ALGORITHM_NAMES  # noqa: E402
from repro.storage import SegmentedStore  # noqa: E402

DEEP_SEEDS = tuple(range(10, 18))
BACKENDS = ("memory", "sqlite")
MUTATION_DEEP_SEEDS = tuple(range(20, 26))


@pytest.mark.parametrize("backend", BACKENDS)
def test_deep_corpus_union_sweep(backend):
    for seed in DEEP_SEEDS:
        trees = random_corpus(seed, max_nodes=80)
        references = reference_engines(trees)
        corpus = build_corpus_engine(trees, backend)
        for query in random_queries(seed, count=4):
            for algorithm in ALGORITHM_NAMES:
                assert_corpus_equals_union(
                    corpus.search(query, algorithm), references, query,
                    algorithm, context=("deep", seed, backend))


def test_deep_mutation_sequence_sweep():
    """Long seeded mutation sequences on larger documents: every
    intermediate segmented state must equal the fresh-rebuild oracle
    byte-for-byte (canonical search / compare / rank payloads)."""
    for seed in MUTATION_DEEP_SEEDS:
        state = random_corpus(seed, min_docs=2, max_docs=5, max_nodes=60)
        store = SegmentedStore()
        for name in sorted(state):
            store.store_tree(state[name], name)
        queries = random_queries(seed, count=4)

        def check(label, state=state, store=store, queries=queries,
                  seed=seed):
            assert_segmented_matches_fresh(
                store, state, queries, context=("deep", seed, label))

        check("initial")
        run_mutation_sequence(store, state, seed, steps=12, check=check,
                              max_nodes=60)
        store.compact()
        check("final compact")
        store.close()
