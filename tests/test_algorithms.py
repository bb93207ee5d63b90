"""Algorithm-level tests for MaxMatch / ValidRTF and the shared pipeline."""

from __future__ import annotations

import pytest

from repro.core import ALGORITHM_NAMES, Query, SearchEngine
from repro.datasets import PAPER_QUERIES
from repro.index import InvertedIndex
from repro.lca import indexed_lookup_eager_slca, indexed_stack_elca
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode

D = DeweyCode.parse


class TestPipelineInvariants:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_roots_match_lca_semantics(self, publications, name):
        result = SearchEngine(publications).search(PAPER_QUERIES["Q2"], name)
        lists = InvertedIndex(publications).keyword_nodes(
            Query.parse(PAPER_QUERIES["Q2"]).keywords)
        if name.endswith("-slca"):
            expected = indexed_lookup_eager_slca(lists)
        else:
            expected = indexed_stack_elca(lists)
        assert list(result.roots()) == expected

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_kept_nodes_are_subset_of_raw_fragment(self, publications, name):
        result = SearchEngine(publications).search(PAPER_QUERIES["Q3"], name)
        for pruned in result:
            assert pruned.kept_set() <= pruned.fragment.node_set()
            assert pruned.root in pruned.kept_set()

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_kept_nodes_form_connected_subtree(self, publications, name):
        engine = SearchEngine(publications)
        for query in (PAPER_QUERIES["Q1"], PAPER_QUERIES["Q2"], PAPER_QUERIES["Q3"]):
            for pruned in engine.search(query, name):
                kept = pruned.kept_set()
                for code in kept:
                    if code == pruned.root:
                        continue
                    parent = code.parent()
                    while parent is not None and parent not in pruned.fragment.node_set():
                        parent = parent.parent()
                    assert parent in kept

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_pruned_result_still_covers_query(self, publications, name):
        """Pruning never removes the last occurrence of a keyword."""
        engine = SearchEngine(publications)
        analyzer = ContentAnalyzer(publications)
        for query_name in ("Q1", "Q2", "Q3"):
            query = Query.parse(PAPER_QUERIES[query_name])
            for pruned in engine.search(query, name):
                covered = set()
                for dewey in pruned.kept_keyword_nodes():
                    content = analyzer.node_content(publications.node(dewey))
                    covered |= {keyword for keyword in query.keywords
                                if keyword in content}
                assert covered == set(query.keywords)

    def test_unmatched_keyword_gives_empty_result(self, publications):
        result = SearchEngine(publications).search("xml nonexistentword")
        assert result.count == 0
        assert result.lca_nodes == ()

    def test_elapsed_time_recorded(self, publications):
        result = SearchEngine(publications).search(PAPER_QUERIES["Q2"])
        assert result.elapsed_seconds > 0.0

    def test_shared_index_reused(self, publications):
        index = InvertedIndex(publications)
        engine = SearchEngine(publications, source=index)
        assert all(engine.algorithm(name).source is index
                   for name in ALGORITHM_NAMES)


class TestValidRTFKeepsMoreOrEqualKeywordNodes:
    """ValidRTF never discards a keyword node that is the only one with its
    label among its siblings (the false-positive fix), so on the figure
    instances its fragments are supersets of MaxMatch's within articles."""

    def test_q1_validrtf_superset(self, publications):
        engine = SearchEngine(publications)
        validrtf = engine.search(PAPER_QUERIES["Q1"], "validrtf")
        maxmatch = engine.search(PAPER_QUERIES["Q1"], "maxmatch")
        v_nodes = validrtf.by_root()[D("0.2.1")].kept_set()
        m_nodes = maxmatch.by_root()[D("0.2.1")].kept_set()
        assert m_nodes < v_nodes


class TestSearchByName:
    def test_validrtf(self, publications):
        result = SearchEngine(publications).search(PAPER_QUERIES["Q2"],
                                                   "validrtf")
        assert result.algorithm == "validrtf"
        assert result.count == 2

    def test_validrtf_slca(self, publications):
        result = SearchEngine(publications).search(PAPER_QUERIES["Q2"],
                                                   "validrtf-slca")
        assert result.algorithm == "validrtf-slca"
        assert result.count == 1

    def test_maxmatch(self, team):
        result = SearchEngine(team).search(PAPER_QUERIES["Q4"], "maxmatch")
        assert result.algorithm == "maxmatch"
        assert result.count == 1

    def test_maxmatch_slca(self, team):
        result = SearchEngine(team).search(PAPER_QUERIES["Q4"],
                                           "maxmatch-slca")
        assert result.algorithm == "maxmatch-slca"


class TestOnSyntheticData:
    @pytest.mark.parametrize("query", ["xml keyword", "data retrieval",
                                       "algorithm efficient tree"])
    def test_dblp_results_consistent(self, small_dblp, query):
        engine = SearchEngine(small_dblp)
        validrtf = engine.search(query, "validrtf")
        maxmatch = engine.search(query, "maxmatch")
        # Same roots, and per-root ValidRTF results are well-formed.
        assert validrtf.roots() == maxmatch.roots()
        for pruned in validrtf:
            assert pruned.root in pruned.kept_set()

    def test_xmark_results_consistent(self, small_xmark):
        engine = SearchEngine(small_xmark)
        validrtf = engine.search("preventions order", "validrtf")
        maxmatch = engine.search("preventions order", "maxmatch")
        assert validrtf.roots() == maxmatch.roots()
