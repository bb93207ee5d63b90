"""Tests for the SearchEngine facade."""

from __future__ import annotations

import pytest

from repro.core import ALGORITHM_NAMES, SearchEngine, UnknownAlgorithmError
from repro.datasets import PAPER_QUERIES
from repro.xmltree import DeweyCode

D = DeweyCode.parse


class TestConstruction:
    def test_all_algorithms_registered(self, publications_engine):
        for name in ALGORITHM_NAMES:
            assert publications_engine.algorithm(name) is not None

    def test_unknown_algorithm_rejected(self, publications_engine):
        with pytest.raises(UnknownAlgorithmError):
            publications_engine.search("xml", algorithm="bogus")


class TestSearchAndCompare:
    def test_search_default_is_validrtf(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q2"])
        assert result.algorithm == "validrtf"
        assert result.count == 2

    def test_compare_outcome(self, team_engine):
        outcome = team_engine.compare(PAPER_QUERIES["Q4"])
        assert outcome.validrtf.algorithm == "validrtf"
        assert outcome.maxmatch.algorithm == "maxmatch"
        assert outcome.report.lca_count == 1
        assert outcome.report.cfr < 1.0

    def test_keyword_nodes_and_lca_nodes(self, publications_engine):
        lists = publications_engine.keyword_nodes("liu keyword")
        assert set(lists) == {"liu", "keyword"}
        elca = publications_engine.lca_nodes("liu keyword")
        slca = publications_engine.lca_nodes("liu keyword", "maxmatch-slca")
        assert set(slca) <= set(elca)


class TestRendering:
    def test_render_fragment_marks_keyword_nodes(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q1"])
        text = publications_engine.render_fragment(result.fragments[0])
        assert "0.2.1 article" in text
        assert "*" in text

    def test_render_result_lists_fragments(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q2"])
        text = publications_engine.render_result(result)
        assert "[1]" in text and "[2]" in text
        assert "SLCA" in text and "LCA" in text

    def test_render_empty_result(self, publications_engine):
        result = publications_engine.search("nonexistentterm anotherabsentterm")
        assert publications_engine.render_result(result) == "(no results)"

    def test_render_without_text(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q1"])
        text = publications_engine.render_fragment(result.fragments[0],
                                                   show_text=False)
        assert '"' not in text
