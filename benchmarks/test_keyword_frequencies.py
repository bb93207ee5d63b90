"""Section 5.1 keyword-frequency table.

Regenerates the per-dataset keyword frequency listing the paper uses to build
its query workloads, and checks that the synthetic datasets preserve the
paper's *relative* frequency structure (rare vs frequent keywords, growth
across the XMark scales).
"""

from __future__ import annotations

import pytest

from repro.bench import format_table
from repro.datasets import (
    DBLP_PAPER_FREQUENCIES,
    XMARK_PAPER_FREQUENCIES,
)
from repro.index import keyword_frequencies, keyword_frequency_table


@pytest.fixture(scope="module")
def dataset_indexes(engines):
    return {name: engine.source for name, engine in engines.items()}


def test_benchmark_frequency_lookup(benchmark, engines):
    """Time the keyword-frequency lookups that drive workload construction."""
    index = engines["dblp"].source
    keywords = list(DBLP_PAPER_FREQUENCIES)
    benchmark.group = "section5.1-frequencies"
    benchmark.name = "dblp-20-keywords"
    benchmark(lambda: keyword_frequencies(index, keywords))


def test_dblp_frequency_table(dataset_indexes):
    rows = keyword_frequency_table({"dblp": dataset_indexes["dblp"]},
                                   list(DBLP_PAPER_FREQUENCIES))
    print()
    print(format_table(rows, ("keyword", "dblp"),
                       title="Section 5.1 — DBLP keyword frequencies (scaled)"))
    by_keyword = {row["keyword"]: row["dblp"] for row in rows}
    # Every workload keyword occurs.
    assert all(count >= 1 for count in by_keyword.values())
    # Relative structure: "data" is the most frequent keyword, "keyword" is
    # among the rarest (matching the published absolute numbers).
    assert by_keyword["data"] == max(by_keyword.values())
    assert by_keyword["keyword"] <= min(
        count for keyword, count in by_keyword.items() if keyword != "keyword") * 2


def test_xmark_frequency_table(dataset_indexes):
    names = ("xmark-standard", "xmark-data1", "xmark-data2")
    rows = keyword_frequency_table(
        {name: dataset_indexes[name] for name in names},
        list(XMARK_PAPER_FREQUENCIES))
    print()
    print(format_table(rows, ("keyword",) + names,
                       title="Section 5.1 — XMark keyword frequencies (scaled)"))
    for row in rows:
        # Frequencies grow (weakly) with the scale, as in the paper's table.
        assert row["xmark-standard"] <= row["xmark-data1"] <= row["xmark-data2"]
        assert row["xmark-standard"] >= 1
    # The high-frequency keywords ("preventions", "description", "order")
    # dominate the table at every scale, as in the paper; "description" also
    # appears as an element label here (like in real XMark), so it can exceed
    # the planted "preventions" count.
    frequent = {"preventions", "description", "order"}
    for name in names:
        ranked = sorted(rows, key=lambda row: row[name], reverse=True)
        assert {row["keyword"] for row in ranked[:3]} == frequent
