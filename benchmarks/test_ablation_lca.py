"""Ablation 2 (DESIGN.md) — the getLCA stage.

Compares the SLCA algorithms (Indexed Lookup Eager, Scan Eager, stack-based)
and the ELCA (Indexed Stack) computation on the benchmark posting lists, both
for speed and for result-set size (how many extra interesting roots the
all-LCA semantics adds over SLCA-only).
"""

from __future__ import annotations

import pytest

from repro.lca import (
    indexed_lookup_eager_slca,
    indexed_stack_elca,
    naive_slca,
    scan_eager_slca,
    stack_slca,
)

from .conftest import representative_queries

SLCA_FUNCTIONS = {
    "indexed-lookup-eager": indexed_lookup_eager_slca,
    "scan-eager": scan_eager_slca,
    "stack": stack_slca,
}


@pytest.fixture(scope="module")
def posting_lists(engines, dataset_specs):
    """Posting lists of a mixed-frequency query on the largest XMark scale."""
    query = representative_queries(dataset_specs["xmark-data2"], count=2)[1]
    engine = engines["xmark-data2"]
    return engine.keyword_nodes(query.text)


@pytest.mark.parametrize("name", sorted(SLCA_FUNCTIONS))
def test_benchmark_slca_algorithms(benchmark, posting_lists, name):
    benchmark.group = "ablation-lca-slca"
    benchmark.name = name
    benchmark(lambda: SLCA_FUNCTIONS[name](posting_lists))


def test_benchmark_elca_indexed_stack(benchmark, posting_lists):
    benchmark.group = "ablation-lca-elca"
    benchmark.name = "indexed-stack"
    benchmark(lambda: indexed_stack_elca(posting_lists))


def test_slca_algorithms_agree(posting_lists):
    reference = naive_slca(posting_lists)
    for name, algorithm in SLCA_FUNCTIONS.items():
        assert algorithm(posting_lists) == reference, name


def test_elca_extends_slca(engines, dataset_specs):
    """All-LCA roots are a superset of the SLCA roots on every workload query,
    and strictly larger on at least one (the paper's motivation for going
    beyond SLCA)."""
    engine = engines["dblp"]
    extra_roots = 0
    for query in dataset_specs["dblp"].workload:
        lists = engine.keyword_nodes(query.text)
        if any(not deweys for deweys in lists.values()):
            continue
        slcas = set(indexed_lookup_eager_slca(lists))
        elcas = set(indexed_stack_elca(lists))
        assert slcas <= elcas
        extra_roots += len(elcas - slcas)
    print(f"\nablation-lca: the all-LCA semantics adds {extra_roots} interesting "
          f"roots over SLCA-only across the DBLP workload")
    assert extra_roots > 0
