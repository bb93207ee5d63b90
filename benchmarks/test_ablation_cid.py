"""Ablation 1 (DESIGN.md) — the (min, max) cID feature vs exact content sets.

The paper approximates tree-content equality with the ``(min, max)`` word pair
(Section 4.1); this ablation quantifies (a) the speed difference and (b) how
often the approximation changes the pruning outcome compared to exact content
comparison.
"""

from __future__ import annotations

import pytest

from repro.core import SearchEngine, fragments_equal

from .conftest import representative_queries


@pytest.fixture(scope="module")
def cid_engines(dataset_specs):
    """minmax- and exact-mode engines over the same XMark document."""
    tree = dataset_specs["xmark-data1"].tree_factory()
    return {
        "minmax": SearchEngine(tree, cid_mode="minmax"),
        "exact": SearchEngine(tree, cid_mode="exact"),
    }


@pytest.mark.parametrize("mode", ["minmax", "exact"])
def test_benchmark_cid_mode(benchmark, cid_engines, dataset_specs, mode):
    query = representative_queries(dataset_specs["xmark-data1"], count=2)[1]
    engine = cid_engines[mode]
    benchmark.group = f"ablation-cid-{query.label}"
    benchmark.name = mode
    benchmark(lambda: engine.search(query.text, "validrtf"))


def test_cid_approximation_effect(cid_engines, dataset_specs):
    """Measure how often the approximation changes the meaningful RTFs."""
    workload = dataset_specs["xmark-data1"].workload
    differing_queries = 0
    over_pruned_nodes = 0
    for query in workload:
        approx = cid_engines["minmax"].search(query.text, "validrtf")
        exact = cid_engines["exact"].search(query.text, "validrtf")
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
    # why it is an ablation-worthy design choice.  The exact engine is the
    # only one left that compares full content sets: if it ever answered like
    # the (min, max) one, no query would differ and the ablation would
    # measure nothing.
    assert differing_queries > 0
