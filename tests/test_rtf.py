"""Tests for the getRTF stage: keyword-node dispatch and RTF construction."""

from __future__ import annotations

import pytest

from repro.core import Query, assign_keyword_nodes, build_fragment, build_rtfs
from repro.index import InvertedIndex
from repro.lca import elca_is_slca, indexed_stack_elca
from repro.text import ContentAnalyzer
from repro.xmltree import DeweyCode
from test_lca_algorithms import INPUT_FORMS

D = DeweyCode.parse


class TestAssignKeywordNodes:
    def test_nearest_enclosing_lca_wins(self):
        lca_nodes = [D("0"), D("0.2"), D("0.2.1")]
        lists = {"w1": [D("0.2.1.5"), D("0.2.0"), D("0.1")],
                 "w2": [D("0.2.1.5")]}
        assignment = assign_keyword_nodes(lca_nodes, lists)
        assert [str(code) for code in assignment[D("0.2.1")]] == ["0.2.1.5"]
        assert [str(code) for code in assignment[D("0.2")]] == ["0.2.0"]
        assert [str(code) for code in assignment[D("0")]] == ["0.1"]

    def test_keyword_node_equal_to_lca(self):
        assignment = assign_keyword_nodes([D("0.1")], {"w1": [D("0.1")]})
        assert assignment[D("0.1")] == [D("0.1")]

    def test_unassigned_keyword_nodes_dropped(self):
        assignment = assign_keyword_nodes([D("0.1")], {"w1": [D("0.2")]})
        assert assignment[D("0.1")] == []

    def test_duplicate_keyword_nodes_counted_once(self):
        assignment = assign_keyword_nodes(
            [D("0")], {"w1": [D("0.1")], "w2": [D("0.1")]})
        assert assignment[D("0")] == [D("0.1")]

    def test_every_requested_root_present(self):
        assignment = assign_keyword_nodes([D("0.1"), D("0.2")],
                                          {"w1": [D("0.1.0")]})
        assert set(assignment) == {D("0.1"), D("0.2")}


class TestBuildRtfs:
    @pytest.fixture
    def q2_pieces(self, publications):
        query = Query.parse("Liu keyword")
        lists = InvertedIndex(publications).keyword_nodes(query.keywords)
        roots = indexed_stack_elca(lists)
        return publications, query, lists, roots

    def test_one_fragment_per_interesting_lca(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(roots, lists, elca_is_slca(roots))
        assert [str(fragment.root) for fragment in fragments] == \
            ["0.2.0", "0.2.0.3.0"]

    def test_slca_flags(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(roots, lists, elca_is_slca(roots))
        flags = {str(f.root): f.is_slca for f in fragments}
        assert flags == {"0.2.0": False, "0.2.0.3.0": True}

    def test_slca_flags_derived_when_missing(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(roots, lists)
        flags = {str(f.root): f.is_slca for f in fragments}
        assert flags == {"0.2.0": False, "0.2.0.3.0": True}

    def test_fragment_nodes_are_paths(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(roots, lists)
        article_fragment = fragments[0]
        assert [str(code) for code in article_fragment.nodes] == \
            ["0.2.0", "0.2.0.0", "0.2.0.0.0", "0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"]

    def test_every_fragment_covers_the_query(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        index = InvertedIndex(tree)
        for fragment in build_rtfs(roots, lists):
            covered = set()
            for dewey in fragment.keyword_nodes:
                covered |= {keyword for keyword in query.keywords
                            if keyword in index.node_words(dewey)}
            assert covered == set(query.keywords)

    def test_fragments_partition_assigned_keyword_nodes(self, q2_pieces):
        tree, query, lists, roots = q2_pieces
        fragments = build_rtfs(roots, lists)
        seen = set()
        for fragment in fragments:
            overlap = seen & set(fragment.keyword_nodes)
            assert not overlap
            seen |= set(fragment.keyword_nodes)

    def test_no_roots_yields_no_fragments(self):
        assert build_rtfs([], {"xml": []}) == []

    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    def test_every_list_form_builds_the_reference_fragments(self, q2_pieces,
                                                            form):
        """Packed or not, in order or not: the reference dispatch's RTFs."""
        tree, query, lists, roots = q2_pieces
        flags = elca_is_slca(roots)
        assignment = assign_keyword_nodes(roots, lists)
        expected = [build_fragment(None, root, assignment[root], is_slca=flag)
                    for root, flag in zip(roots, flags)]
        given = {keyword: INPUT_FORMS[form](list(deweys))
                 for keyword, deweys in lists.items()}
        fragments = build_rtfs(roots, given, flags)
        assert fragments == expected
        # Each keyword node's mask is the query mask of its content.
        analyzer = ContentAnalyzer(tree)
        for fragment in fragments:
            assert fragment.keyword_masks == tuple(
                query.mask_of(analyzer.node_content(tree.node(node)))
                for node in fragment.keyword_nodes)
