"""Ablation 3 (DESIGN.md) — key-number bitmask cover test vs set-based test.

Section 4.1 encodes a node's tree keyword set as an integer "key number" so
the rule-2(a) cover check becomes a couple of integer operations.  This
ablation times the bitmask check against an equivalent frozenset-based check
over the same label groups and verifies they always agree.
"""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.core import Query
from repro.core.contributor import covering_siblings

from .conftest import representative_queries


def _set_based_is_covered(keywords: frozenset,
                          sibling_keyword_sets: Sequence[frozenset]) -> bool:
    """Reference implementation of rule 2(a) using frozensets."""
    return any(keywords != other and keywords <= other
               for other in sibling_keyword_sets)


@pytest.fixture(scope="module")
def label_groups(engines, dataset_specs):
    """The key numbers of every multi-child label group appearing in one
    workload's record trees."""
    engine = engines["xmark-data1"]
    pipeline = engine.algorithm("validrtf")
    groups = []
    for workload_query in representative_queries(dataset_specs["xmark-data1"], 4):
        query = Query.parse(workload_query.text)
        for fragment in pipeline.raw_fragments(query):
            records = pipeline.record_tree(query, fragment)
            for position in range(records.size()):
                for group in records.label_groups(position):
                    if len(group) > 1:
                        groups.append(
                            (query, [records.masks[child] for child in group]))
    assert groups, "expected at least one multi-child label group"
    return groups


def _bitmask_pass(groups) -> int:
    covered = 0
    for _query, key_numbers in groups:
        for coverer in covering_siblings(range(len(key_numbers)), key_numbers):
            if coverer >= 0:
                covered += 1
    return covered


def _set_pass(groups) -> int:
    covered = 0
    for query, key_numbers in groups:
        keyword_sets = [frozenset(query.keywords_of(key_number))
                        for key_number in key_numbers]
        for child_set in keyword_sets:
            if _set_based_is_covered(child_set, keyword_sets):
                covered += 1
    return covered


def test_benchmark_bitmask_cover(benchmark, label_groups):
    benchmark.group = "ablation-bitmask"
    benchmark.name = "key-number-bitmask"
    benchmark(lambda: _bitmask_pass(label_groups))


def test_benchmark_set_cover(benchmark, label_groups):
    benchmark.group = "ablation-bitmask"
    benchmark.name = "frozenset"
    benchmark(lambda: _set_pass(label_groups))


def test_bitmask_and_set_checks_agree(label_groups):
    assert _bitmask_pass(label_groups) == _set_pass(label_groups)
    print(f"\nablation-bitmask: {len(label_groups)} label groups checked, "
          f"{_bitmask_pass(label_groups)} covered children found by both "
          f"implementations")
