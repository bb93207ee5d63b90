"""Tests for the inverted index and corpus statistics."""

from __future__ import annotations

import pytest

from repro.index import (
    InvertedIndex,
    build_index,
    document_profile,
    frequency_table,
    keyword_frequencies,
    merge_keyword_nodes,
    top_keywords,
)
from repro.xmltree import parse_string

DOCUMENT = """
<publications>
  <article><title>xml keyword search</title><year>2008</year></article>
  <article><title>skyline query</title><abstract>dynamic skyline</abstract></article>
</publications>
"""


@pytest.fixture(scope="module")
def index() -> InvertedIndex:
    return build_index(parse_string(DOCUMENT, name="mini"))


class TestInvertedIndex:
    def test_postings_sorted_document_order(self, index):
        postings = index.postings("skyline")
        assert [str(code) for code in postings] == ["0.1.0", "0.1.1"]
        assert postings.keyword == "skyline"
        assert len(postings) == 2 and bool(postings)

    def test_postings_case_insensitive(self, index):
        assert [str(code) for code in index.postings("SKYLINE")] == \
            [str(code) for code in index.postings("skyline")]

    def test_missing_keyword_empty(self, index):
        postings = index.postings("absent")
        assert len(postings) == 0 and not postings

    def test_keyword_nodes_for_query(self, index):
        lists = index.keyword_nodes(["xml", "skyline", "xml"])
        assert set(lists) == {"xml", "skyline"}
        assert [str(code) for code in lists["xml"]] == ["0.0.0"]

    def test_labels_are_indexed(self, index):
        assert index.frequency("article") == 2
        assert index.frequency("title") == 2

    def test_contains_and_vocabulary(self, index):
        assert "skyline" in index
        assert "absent" not in index
        assert "xml" in index.vocabulary()
        assert index.vocabulary_size() == len(index.vocabulary())
        assert index.total_postings() >= index.vocabulary_size()

    def test_merge_keyword_nodes(self, index):
        lists = index.keyword_nodes(["skyline", "dynamic"])
        merged = merge_keyword_nodes(lists)
        assert [str(code) for code in merged] == ["0.1.0", "0.1.1"]

    def test_matches_analyzer_content(self, index):
        # Every posting really contains its keyword according to the analyzer.
        for word in ("xml", "skyline", "article"):
            for dewey in index.postings(word):
                node = index.tree.node(dewey)
                assert word in index.analyzer.node_content(node)


class TestStatistics:
    def test_keyword_frequencies(self, index):
        rows = keyword_frequencies(index, ["skyline", "absent"])
        assert rows[0].keyword == "skyline" and rows[0].frequency == 2
        assert rows[1].frequency == 0

    def test_frequency_table(self, index):
        table = frequency_table({"mini": index}, ["xml", "skyline"])
        assert table[0] == {"keyword": "xml", "mini": 1}
        assert table[1]["mini"] == 2

    def test_document_profile(self, index):
        profile = document_profile(index.tree, index)
        assert profile.name == "mini"
        assert profile.node_count == index.tree.size()
        assert profile.max_depth == 2
        assert profile.distinct_labels == len(index.tree.labels())
        assert profile.label_histogram["article"] == 2
        assert len(profile.as_row()) == 6

    def test_top_keywords(self, index):
        top = top_keywords(index, limit=3)
        assert len(top) == 3
        assert top[0].frequency >= top[-1].frequency
