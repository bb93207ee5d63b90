"""Tests for the inverted index and corpus statistics."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import ALGORITHM_NAMES, Query, SearchEngine
from repro.datasets import (
    DBLPConfig,
    XMarkConfig,
    generate_dblp,
    generate_xmark,
    publications_tree,
)
from repro.index import (
    InvertedIndex,
    document_profile,
    keyword_frequency_table,
    keyword_frequencies,
    top_keywords,
)
from repro.storage import shred_tree
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode, parse_string

DOCUMENT = """
<publications>
  <article><title>xml keyword search</title><year>2008</year></article>
  <article><title>skyline query</title><abstract>dynamic skyline</abstract></article>
</publications>
"""


@pytest.fixture(scope="module")
def index() -> InvertedIndex:
    return InvertedIndex(parse_string(DOCUMENT, name="mini"))


def postings(index, word):
    """One normalized word's posting list."""
    return index.keyword_nodes([word])[word]


class TestInvertedIndex:
    def test_postings_sorted_document_order(self, index):
        lists = index.keyword_nodes(["skyline"])
        assert list(lists) == ["skyline"]
        assert [str(code) for code in lists["skyline"]] == ["0.1.0", "0.1.1"]
        assert len(lists["skyline"]) == 2 and bool(lists["skyline"])

    def test_postings_case_insensitive(self, index):
        # Query.parse normalizes; the index takes the keywords as given.
        lists = index.keyword_nodes(Query.parse("SKYLINE").keywords)
        assert [str(code) for code in lists["skyline"]] == \
            [str(code) for code in postings(index, "skyline")]

    def test_missing_keyword_empty(self, index):
        absent = postings(index, "absent")
        assert len(absent) == 0 and not absent

    def test_keyword_nodes_for_query(self, index):
        lists = index.keyword_nodes(
            Query.parse(["xml", "skyline", "xml"]).keywords)
        assert list(lists) == ["xml", "skyline"]
        assert [str(code) for code in lists["xml"]] == ["0.0.0"]

    def test_labels_are_indexed(self, index):
        assert index.impact("article").count == 2
        assert index.impact("title").count == 2

    def test_contains_and_vocabulary(self, index):
        assert "skyline" in index.vocabulary()
        assert "absent" not in index.vocabulary()
        assert index.vocabulary_size() == len(index.vocabulary())
        assert index.total_postings() >= index.vocabulary_size()

    def test_matches_analyzer_content(self, index):
        # Every posting really contains its keyword according to the analyzer.
        analyzer = ContentAnalyzer(index.tree)
        for word in ("xml", "skyline", "article"):
            for dewey in postings(index, word):
                node = index.tree.node(dewey)
                assert word in analyzer.node_content(node)


class TestIndexFootprint:
    """The index keeps each node's cID, not its word set."""

    @pytest.mark.parametrize("dataset", ["dblp", "xmark"])
    def test_retains_at_most_225_bytes_per_node(self, dataset):
        tree = (generate_dblp(DBLPConfig(publications=400, keyword_scale=0.01,
                                         seed=2009))
                if dataset == "dblp"
                else generate_xmark(XMarkConfig(scale="data1", base_items=40)))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = InvertedIndex(tree)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.vocabulary_size() > 0
        assert retained / len(tree) <= 225, \
            f"{retained / len(tree):.0f} bytes retained per node"

    def test_equal_values_are_one_object(self):
        # Two <year>2008</year> nodes have equal cIDs, and every list
        # holding one three-component code has the offsets column [0, 3].
        tree = parse_string(DOCUMENT.replace("<year>2008</year>",
                                             "<year>2008</year>" * 2))
        index = InvertedIndex(tree)
        assert index.node_cid(DeweyCode((0, 0, 1))) \
            is index.node_cid(DeweyCode((0, 0, 2)))
        title = index.keyword_nodes(["keyword"])["keyword"]
        abstract = index.keyword_nodes(["dynamic"])["dynamic"]
        assert list(title.offsets) == list(abstract.offsets) == [0, 3]
        assert title.offsets is abstract.offsets
        assert title.data is not abstract.data

    def test_build_shred_and_search_never_read_node_contents(self,
                                                             monkeypatch):
        # Contents by definition are for the reference record builder
        # only; the index answers from its posting lists and cID table.
        reads = []
        node_content = ContentAnalyzer.node_content

        def counted(analyzer, node):
            reads.append(node.dewey)
            return node_content(analyzer, node)

        monkeypatch.setattr(ContentAnalyzer, "node_content", counted)
        tree = publications_tree()
        index = InvertedIndex(tree)
        shred_tree(tree)
        engine = SearchEngine(source=index)
        answered = 0
        for name in ALGORITHM_NAMES:
            for query in ("xml keyword search", "skyline query", "liu chen"):
                answered += engine.search(query, name).count
        assert answered > 0
        assert reads == []


class TestStatistics:
    def test_keyword_frequencies(self, index):
        rows = keyword_frequencies(index, ["skyline", "absent", "SKYLINE"])
        assert rows[0].keyword == "skyline" and rows[0].frequency == 2
        assert rows[1].frequency == 0
        # A raw workload keyword is normalized before the lookup.
        assert rows[2].keyword == "SKYLINE" and rows[2].frequency == 2

    def test_frequency_table(self, index):
        table = keyword_frequency_table({"mini": index}, ["xml", "skyline"])
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
