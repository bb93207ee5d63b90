"""Tests for the fragment data model (Fragment, PrunedFragment, SearchResult)."""

from __future__ import annotations

import pytest

from repro.core import (
    Fragment,
    FragmentError,
    PrunedFragment,
    Query,
    SearchResult,
    build_fragment,
    fragments_equal,
    unpruned,
)
from repro.xmltree import DeweyCode

D = DeweyCode.parse


@pytest.fixture
def q3_fragment(publications):
    """The raw RTF of Q3 rooted at the Publications root."""
    keyword_nodes = ["0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0", "0.2.1.1"]
    return build_fragment(publications, D("0"), keyword_nodes, is_slca=True)


class TestFragment:
    def test_build_fragment_contains_paths(self, q3_fragment):
        nodes = [str(code) for code in q3_fragment.nodes]
        assert nodes == ["0", "0.0", "0.2", "0.2.0", "0.2.0.1", "0.2.0.2",
                         "0.2.0.3", "0.2.0.3.0", "0.2.1", "0.2.1.1"]
        assert q3_fragment.size == 10
        assert q3_fragment.contains(D("0.2.0.3"))
        assert not q3_fragment.contains(D("0.1"))

    def test_keyword_nodes_sorted_unique(self, publications):
        fragment = build_fragment(publications, D("0.2.0"),
                                  ["0.2.0.2", "0.2.0.1", "0.2.0.1"])
        assert [str(code) for code in fragment.keyword_nodes] == \
            ["0.2.0.1", "0.2.0.2"]

    def test_keyword_node_outside_root_rejected(self):
        with pytest.raises(FragmentError):
            Fragment(root=D("0.1"), keyword_nodes=(D("0.2"),),
                     nodes=(D("0.1"), D("0.2")))

    def test_root_must_be_in_nodes(self):
        with pytest.raises(FragmentError):
            Fragment(root=D("0"), keyword_nodes=(), nodes=(D("0.1"),))

    def test_keyword_nodes_must_be_in_nodes(self):
        with pytest.raises(FragmentError):
            Fragment(root=D("0"), keyword_nodes=(D("0.1"),), nodes=(D("0"),))

    def test_node_sets(self, q3_fragment):
        assert D("0.2") in q3_fragment.node_set()


class TestPrunedFragment:
    def test_unpruned_keeps_everything(self, q3_fragment):
        pruned = unpruned(q3_fragment)
        assert pruned.size == q3_fragment.size
        assert pruned.pruned_nodes() == ()
        assert pruned.is_slca

    def test_partial_pruning(self, q3_fragment):
        kept = tuple(code for code in q3_fragment.nodes
                     if not str(code).startswith("0.2.1"))
        pruned = PrunedFragment(fragment=q3_fragment, kept_nodes=kept,
                                algorithm="test")
        assert pruned.size == 8
        assert [str(code) for code in pruned.pruned_nodes()] == ["0.2.1", "0.2.1.1"]
        assert [str(code) for code in pruned.kept_keyword_nodes()] == \
            ["0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0"]

    def test_kept_nodes_must_exist_in_fragment(self, q3_fragment):
        with pytest.raises(FragmentError):
            PrunedFragment(fragment=q3_fragment,
                           kept_nodes=(q3_fragment.root, D("0.9")))

    def test_root_cannot_be_pruned(self, q3_fragment):
        with pytest.raises(FragmentError):
            PrunedFragment(fragment=q3_fragment, kept_nodes=(D("0.0"),))


class TestSearchResult:
    def _result(self, publications) -> SearchResult:
        fragment_a = unpruned(build_fragment(publications, D("0.2.0"),
                                             ["0.2.0.1"]), "x")
        fragment_b = unpruned(build_fragment(publications, D("0.2.1"),
                                             ["0.2.1.1"], is_slca=False), "x")
        return SearchResult(query=Query.parse("xml"), algorithm="x",
                            fragments=(fragment_a, fragment_b))

    def test_counts_and_roots(self, publications):
        result = self._result(publications)
        assert result.count == len(result) == 2
        assert [str(code) for code in result.roots()] == ["0.2.0", "0.2.1"]
        assert set(result.by_root()) == {D("0.2.0"), D("0.2.1")}

    def test_total_kept_nodes(self, publications):
        result = self._result(publications)
        assert result.total_kept_nodes() == 4

    def test_with_timing(self, publications):
        result = self._result(publications).with_timing(1.5)
        assert result.elapsed_seconds == 1.5
        assert result.count == 2


class TestFragmentsEqual:
    def test_equal_and_not(self, publications):
        fragment = build_fragment(publications, D("0.2.0"), ["0.2.0.1", "0.2.0.2"])
        full = unpruned(fragment, "a")
        partial = PrunedFragment(fragment=fragment,
                                 kept_nodes=(D("0.2.0"), D("0.2.0.1")),
                                 algorithm="b")
        assert fragments_equal([full], [unpruned(fragment, "c")])
        assert not fragments_equal([full], [partial])
        assert not fragments_equal([full], [])
