"""Edge-case and failure-injection tests across the stack."""

from __future__ import annotations

import pytest

from repro.core import (
    EmptyQueryError,
    SearchEngine,
    build_fragment,
    effectiveness,
)
from repro.index import InvertedIndex
from repro.lca import EmptyKeywordList, normalize_lists
from repro.xmltree import DeweyCode, parse_string, spec, tree_from_spec

D = DeweyCode.parse


class TestDegenerateDocuments:
    def test_single_node_document(self):
        tree = tree_from_spec(spec("note", "xml keyword search"))
        engine = SearchEngine(tree)
        result = engine.search("xml keyword")
        assert result.count == 1
        fragment = result.fragments[0]
        assert fragment.root == D("0")
        assert fragment.kept_nodes == (D("0"),)

    def test_document_where_root_is_the_only_keyword_node(self):
        tree = tree_from_spec(
            spec("report", "xml keyword",
                 spec("section", "introduction"),
                 spec("section", "conclusion")))
        result = SearchEngine(tree).search("xml keyword", "validrtf")
        assert [str(code) for code in result.roots()] == ["0"]
        # Children carry no keyword, so the meaningful RTF is just the root.
        assert result.fragments[0].kept_nodes == (D("0"),)

    def test_deeply_nested_chain(self):
        document = spec("a", None,
                        spec("b", None,
                             spec("c", None,
                                  spec("d", "xml keyword search"))))
        tree = tree_from_spec(document)
        result = SearchEngine(tree).search("xml search", "validrtf")
        assert [str(code) for code in result.roots()] == ["0.0.0.0"]

    def test_keyword_node_is_an_interesting_lca_itself(self, publications):
        # The ref node contains every keyword of this query on its own.
        result = SearchEngine(publications).search("liu xml", "validrtf")
        by_root = result.by_root()
        assert D("0.2.0.3.0") in by_root
        assert by_root[D("0.2.0.3.0")].kept_nodes == (D("0.2.0.3.0"),)

    def test_document_with_repeated_identical_records(self):
        children = [spec("entry", "xml keyword") for _ in range(5)]
        tree = tree_from_spec(spec("list", None, *children))
        engine = SearchEngine(tree)
        validrtf = engine.search("xml keyword", "validrtf")
        maxmatch = engine.search("xml keyword", "maxmatch")
        # Every entry is an interesting LCA on its own, so both algorithms
        # return five single-node fragments and nothing is deduplicated
        # across fragments.
        assert validrtf.count == maxmatch.count == 5

    def test_redundant_entries_within_one_fragment(self):
        tree = tree_from_spec(
            spec("list", None,
                 spec("marker", "alpha"),
                 spec("entry", "beta common"),
                 spec("entry", "beta common"),
                 spec("entry", "beta common")))
        engine = SearchEngine(tree)
        validrtf = engine.search("alpha beta", "validrtf")
        maxmatch = engine.search("alpha beta", "maxmatch")
        v_kept = validrtf.fragments[0].kept_set()
        m_kept = maxmatch.fragments[0].kept_set()
        # ValidRTF keeps a single representative entry; MaxMatch keeps all.
        assert len([c for c in v_kept if str(c).startswith("0.") and
                    tree.node(c).label == "entry"]) == 1
        assert len([c for c in m_kept if tree.node(c).label == "entry"]) == 3


class TestQueryEdgeCases:
    def test_engine_rejects_empty_query(self, publications_engine):
        with pytest.raises(EmptyQueryError):
            publications_engine.search("   ")

    def test_single_keyword_query(self, publications_engine):
        result = publications_engine.search("skyline")
        assert result.count >= 1
        for fragment in result:
            # With one keyword, every fragment is a single keyword node.
            assert fragment.fragment.root in fragment.fragment.keyword_nodes

    def test_query_with_only_unmatched_keywords(self, publications_engine):
        result = publications_engine.search("qqqq zzzz")
        assert result.count == 0

    def test_query_repeating_a_keyword_many_times(self, publications_engine):
        repeated = publications_engine.search("xml xml xml keyword")
        plain = publications_engine.search("xml keyword")
        assert repeated.roots() == plain.roots()

    def test_numeric_keyword(self, publications_engine):
        result = publications_engine.search("2008 vldb")
        assert result.count >= 1

    def test_case_and_punctuation_insensitive(self, publications_engine):
        lower = publications_engine.search("xml keyword search")
        shouty = publications_engine.search("XML, Keyword; SEARCH!")
        assert lower.roots() == shouty.roots()


class TestMetricsEdgeCases:
    def test_effectiveness_of_two_empty_results(self, publications_engine):
        empty_v = publications_engine.search("zzzz qqqq", "validrtf")
        empty_m = publications_engine.search("zzzz qqqq", "maxmatch")
        report = effectiveness(empty_m, empty_v)
        assert report.lca_count == 0
        assert report.cfr == 1.0
        assert report.max_apr == 0.0

    def test_build_fragment_with_root_as_only_keyword_node(self, publications):
        fragment = build_fragment(publications, D("0.2.0.3.0"), ["0.2.0.3.0"])
        assert fragment.nodes == (D("0.2.0.3.0"),)
        assert fragment.size == 1


class TestLcaInputValidation:
    def test_normalize_rejects_empty_query(self):
        with pytest.raises(EmptyKeywordList):
            normalize_lists({})

    def test_normalize_deduplicates_and_sorts(self):
        lists = {"w": [D("0.2"), D("0.1"), D("0.2")]}
        normalized = normalize_lists(lists)
        assert normalized == [[D("0.1"), D("0.2")]]


class TestMixedContentAndAttributes:
    def test_attribute_words_are_searchable(self):
        tree = parse_string('<catalog><item sku="XKS-2009" topic="xml keyword"/>'
                            "<item sku=\"OTHER\"/></catalog>")
        engine = SearchEngine(tree)
        result = engine.search("xml keyword")
        assert result.count == 1
        assert str(result.fragments[0].root) == "0.0"

    def test_mixed_content_text_is_searchable(self):
        tree = parse_string("<doc>xml<b>keyword</b>search</doc>")
        index = InvertedIndex(tree)
        assert index.impact("xml").count == 1
        assert index.impact("search").count == 1
        result = SearchEngine(tree).search("xml search")
        assert result.count == 1
