"""Algorithm-level tests for MaxMatch / ValidRTF and the shared pipeline."""

from __future__ import annotations

import pytest

from repro.core import (
    MaxMatch,
    MaxMatchSLCA,
    Query,
    ValidRTF,
    ValidRTFSLCA,
    run_maxmatch,
    run_validrtf,
)
from repro.datasets import PAPER_QUERIES
from repro.index import InvertedIndex
from repro.lca import indexed_lookup_eager_slca, indexed_stack_elca
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode

D = DeweyCode.parse


class TestPipelineInvariants:
    ALGORITHMS = (ValidRTF, MaxMatch, ValidRTFSLCA, MaxMatchSLCA)

    @pytest.mark.parametrize("algorithm_class", ALGORITHMS)
    def test_roots_match_lca_semantics(self, publications, algorithm_class):
        algorithm = algorithm_class(publications)
        result = algorithm.search(PAPER_QUERIES["Q2"])
        lists = InvertedIndex(publications).keyword_nodes(
            Query.parse(PAPER_QUERIES["Q2"]).keywords)
        if algorithm_class in (ValidRTFSLCA, MaxMatchSLCA):
            expected = indexed_lookup_eager_slca(lists)
        else:
            expected = indexed_stack_elca(lists)
        assert list(result.roots()) == expected

    @pytest.mark.parametrize("algorithm_class", ALGORITHMS)
    def test_kept_nodes_are_subset_of_raw_fragment(self, publications,
                                                   algorithm_class):
        algorithm = algorithm_class(publications)
        result = algorithm.search(PAPER_QUERIES["Q3"])
        for pruned in result:
            assert pruned.kept_set() <= pruned.fragment.node_set()
            assert pruned.root in pruned.kept_set()

    @pytest.mark.parametrize("algorithm_class", ALGORITHMS)
    def test_kept_nodes_form_connected_subtree(self, publications, algorithm_class):
        algorithm = algorithm_class(publications)
        for query in (PAPER_QUERIES["Q1"], PAPER_QUERIES["Q2"], PAPER_QUERIES["Q3"]):
            for pruned in algorithm.search(query):
                kept = pruned.kept_set()
                for code in kept:
                    if code == pruned.root:
                        continue
                    parent = code.parent()
                    while parent is not None and parent not in pruned.fragment.node_set():
                        parent = parent.parent()
                    assert parent in kept

    @pytest.mark.parametrize("algorithm_class", ALGORITHMS)
    def test_pruned_result_still_covers_query(self, publications, algorithm_class):
        """Pruning never removes the last occurrence of a keyword."""
        algorithm = algorithm_class(publications)
        analyzer = ContentAnalyzer(publications)
        for query_name in ("Q1", "Q2", "Q3"):
            query = Query.parse(PAPER_QUERIES[query_name])
            for pruned in algorithm.search(query):
                covered = set()
                for dewey in pruned.kept_keyword_nodes():
                    content = analyzer.node_content(publications.node(dewey))
                    covered |= {keyword for keyword in query.keywords
                                if keyword in content}
                assert covered == set(query.keywords)

    def test_unmatched_keyword_gives_empty_result(self, publications):
        result = ValidRTF(publications).search("xml nonexistentword")
        assert result.count == 0
        assert result.lca_nodes == ()

    def test_elapsed_time_recorded(self, publications):
        result = ValidRTF(publications).search(PAPER_QUERIES["Q2"])
        assert result.elapsed_seconds > 0.0

    def test_shared_index_reused(self, publications):
        index = InvertedIndex(publications)
        validrtf = ValidRTF(publications, index)
        maxmatch = MaxMatch(publications, index)
        assert validrtf.index is maxmatch.index is index


class TestValidRTFKeepsMoreOrEqualKeywordNodes:
    """ValidRTF never discards a keyword node that is the only one with its
    label among its siblings (the false-positive fix), so on the figure
    instances its fragments are supersets of MaxMatch's within articles."""

    def test_q1_validrtf_superset(self, publications):
        validrtf = ValidRTF(publications).search(PAPER_QUERIES["Q1"])
        maxmatch = MaxMatch(publications).search(PAPER_QUERIES["Q1"])
        v_nodes = validrtf.by_root()[D("0.2.1")].kept_set()
        m_nodes = maxmatch.by_root()[D("0.2.1")].kept_set()
        assert m_nodes < v_nodes


class TestConvenienceWrappers:
    def test_run_validrtf(self, publications):
        result = run_validrtf(publications, PAPER_QUERIES["Q2"])
        assert result.algorithm == "validrtf"
        assert result.count == 2

    def test_run_validrtf_slca_only(self, publications):
        result = run_validrtf(publications, PAPER_QUERIES["Q2"], slca_only=True)
        assert result.algorithm == "validrtf-slca"
        assert result.count == 1

    def test_run_maxmatch(self, team):
        result = run_maxmatch(team, PAPER_QUERIES["Q4"])
        assert result.algorithm == "maxmatch"
        assert result.count == 1

    def test_run_maxmatch_slca_only(self, team):
        result = run_maxmatch(team, PAPER_QUERIES["Q4"], slca_only=True)
        assert result.algorithm == "maxmatch-slca"


class TestOnSyntheticData:
    @pytest.mark.parametrize("query", ["xml keyword", "data retrieval",
                                       "algorithm efficient tree"])
    def test_dblp_results_consistent(self, small_dblp, query):
        validrtf = ValidRTF(small_dblp).search(query)
        maxmatch = MaxMatch(small_dblp).search(query)
        # Same roots, and per-root ValidRTF results are well-formed.
        assert validrtf.roots() == maxmatch.roots()
        for pruned in validrtf:
            assert pruned.root in pruned.kept_set()

    def test_xmark_results_consistent(self, small_xmark):
        validrtf = ValidRTF(small_xmark).search("preventions order")
        maxmatch = MaxMatch(small_xmark).search("preventions order")
        assert validrtf.roots() == maxmatch.roots()
