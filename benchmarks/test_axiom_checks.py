"""Axiomatic-property harness (Section 4.3-(2)).

Runs the four axiomatic checks for ValidRTF on the benchmark datasets (data
and query mutations drawn from the workloads) and times one full check cycle.
"""

from __future__ import annotations

import pytest

from repro.core import SearchEngine, check_all_axioms
from repro.xmltree import SubtreeSpec

INSERTIONS = {
    "dblp": SubtreeSpec("article", None, children=[
        SubtreeSpec("title", "xml keyword retrieval with ranked data"),
        SubtreeSpec("abstract", "efficient keyword retrieval over xml data"),
    ]),
    "xmark-standard": SubtreeSpec("item", None, children=[
        SubtreeSpec("name", "engraved chronicle"),
        SubtreeSpec("description", None, children=[
            SubtreeSpec("text", "chronicle method strings order"),
        ]),
    ]),
}

SCENARIOS = {
    "dblp": {"query": "xml keyword", "parent": "0", "extra": "retrieval"},
    "xmark-standard": {"query": "chronicle method", "parent": "0.0.0",
                       "extra": "strings"},
}


def validrtf_factory(tree):
    return SearchEngine(tree).algorithm("validrtf").search


@pytest.mark.parametrize("dataset", sorted(SCENARIOS))
def test_validrtf_satisfies_axioms_on_benchmark_data(engines, dataset):
    scenario = SCENARIOS[dataset]
    tree = engines[dataset].tree
    report = check_all_axioms(
        validrtf_factory, tree, scenario["query"], tree.node(scenario["parent"]).dewey,
        INSERTIONS[dataset], scenario["extra"],
    )
    assert report.all_satisfied, [check.detail for check in report.failed()]
    print()
    for check in report.checks:
        print(f"  [{dataset}] {check.property_name}: "
              f"{check.before_count} -> {check.after_count} results")


def test_benchmark_axiom_cycle(benchmark, engines):
    """Time one complete four-property check on the DBLP dataset."""
    scenario = SCENARIOS["dblp"]
    tree = engines["dblp"].tree
    benchmark.group = "axioms"
    benchmark.name = "four-checks-dblp"
    benchmark(lambda: check_all_axioms(
        validrtf_factory, tree, scenario["query"],
        tree.node(scenario["parent"]).dewey, INSERTIONS["dblp"],
        scenario["extra"]))
