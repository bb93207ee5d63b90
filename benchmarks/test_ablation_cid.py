"""Ablation 1 (DESIGN.md) — the (min, max) cID feature vs exact content sets.

The paper approximates tree-content equality with the ``(min, max)`` word pair
(Section 4.1); this ablation quantifies (a) the speed difference and (b) how
often the approximation changes the pruning outcome compared to exact content
comparison.  Exact content sets exist only in the reference record trees of
``build_record_tree``, so both sides here run the memory pipeline's raw RTFs
through it in their mode and prune with the valid-contributor filter.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CID_MODES,
    Query,
    SearchEngine,
    SearchResult,
    build_record_tree,
    fragments_equal,
    prune_with_valid_contributor,
)
from repro.text import ContentAnalyzer

from .conftest import representative_queries


@pytest.fixture(scope="module")
def xmark(dataset_specs):
    """The XMark document, its memory engine and its content analyzer."""
    tree = dataset_specs["xmark-data1"].tree_factory()
    return tree, SearchEngine(tree), ContentAnalyzer(tree)


def reference_search(xmark, text: str, cid_mode: str) -> SearchResult:
    """ValidRTF over the reference record trees in ``cid_mode``."""
    tree, engine, analyzer = xmark
    query = Query.parse(text)
    fragments = engine.algorithm("validrtf").raw_fragments(query)
    return SearchResult(query, "validrtf", tuple(
        prune_with_valid_contributor(
            build_record_tree(tree, analyzer, query, fragment, cid_mode))
        for fragment in fragments))


@pytest.mark.parametrize("mode", CID_MODES)
def test_benchmark_cid_mode(benchmark, xmark, dataset_specs, mode):
    query = representative_queries(dataset_specs["xmark-data1"], count=2)[1]
    benchmark.group = f"ablation-cid-{query.label}"
    benchmark.name = mode
    benchmark(lambda: reference_search(xmark, query.text, mode))


def test_cid_approximation_effect(xmark, dataset_specs):
    """Measure how often the approximation changes the meaningful RTFs."""
    engine = xmark[1]
    workload = dataset_specs["xmark-data1"].workload
    differing_queries = 0
    over_pruned_nodes = 0
    for query in workload:
        approx = engine.search(query.text, "validrtf")
        exact = reference_search(xmark, query.text, "exact")
        assert approx.roots() == exact.roots()
        if not fragments_equal(list(approx), list(exact)):
            differing_queries += 1
        # The (min, max) pair can only merge *more* contents into the same
        # feature, so it never keeps nodes the exact mode would prune.
        over_pruned_nodes += exact.total_kept_nodes() - approx.total_kept_nodes()
        assert approx.total_kept_nodes() <= exact.total_kept_nodes()
    print(f"\nablation-cid: {differing_queries}/{len(workload)} queries change "
          f"with exact content sets; {over_pruned_nodes} nodes over-pruned by "
          f"the (min,max) approximation in total")
    # The approximation is usually harmless but not always — which is exactly
    # why it is an ablation-worthy design choice.  The exact records are the
    # only ones left that compare full content sets: if they ever pruned like
    # the (min, max) ones, no query would differ and the ablation would
    # measure nothing.
    assert differing_queries > 0
