"""Tests for the contributor (MaxMatch) and valid-contributor (ValidRTF) filters."""

from __future__ import annotations

import pytest

from repro.core import (
    Query,
    build_fragment,
    build_record_tree,
    is_contributor,
    is_valid_contributor,
    prune_with_contributor,
    prune_with_valid_contributor,
)
from repro.core.node_record import NodeRecord
from repro.text import ContentAnalyzer, content_id
from repro.xmltree import DeweyCode, spec, tree_from_spec

D = DeweyCode.parse


def record(dewey: str, label: str, mask: int, words=()) -> NodeRecord:
    return NodeRecord(dewey=D(dewey), label=label, keyword_mask=mask,
                      content_feature=content_id(frozenset(words)))


class TestContributorPredicate:
    def test_strict_superset_sibling_discards(self):
        node = record("0.1", "title", 0b011)
        sibling = record("0.2", "abstract", 0b111)
        assert not is_contributor(node, [node, sibling])

    def test_equal_masks_keep_both(self):
        first = record("0.1", "player", 0b01)
        second = record("0.2", "player", 0b01)
        assert is_contributor(first, [first, second])
        assert is_contributor(second, [first, second])

    def test_incomparable_masks_keep_both(self):
        first = record("0.1", "a", 0b01)
        second = record("0.2", "b", 0b10)
        assert is_contributor(first, [first, second])

    def test_label_is_ignored_by_contributor(self):
        # MaxMatch compares against every sibling regardless of label — the
        # source of the false-positive problem.
        node = record("0.1", "title", 0b011)
        sibling = record("0.2", "abstract", 0b111)
        assert not is_contributor(node, [node, sibling])

    def test_single_child_is_contributor(self):
        node = record("0.1", "title", 0b001)
        assert is_contributor(node, [node])


class TestValidContributorPredicate:
    def test_unique_label_always_kept(self):
        node = record("0.1", "title", 0b011)
        assert is_valid_contributor(node, [node])

    def test_rule_2a_strict_cover_discards(self):
        weak = record("0.1", "player", 0b01)
        strong = record("0.2", "player", 0b11)
        assert not is_valid_contributor(weak, [weak, strong])
        assert is_valid_contributor(strong, [weak, strong])

    def test_rule_2b_duplicate_content_keeps_first(self):
        first = record("0.1", "player", 0b01, {"position", "forward"})
        second = record("0.2", "player", 0b01, {"position", "guard"})
        third = record("0.3", "player", 0b01, {"position", "forward"})
        group = [first, second, third]
        assert is_valid_contributor(first, group)
        assert is_valid_contributor(second, group)
        assert not is_valid_contributor(third, group)

    def test_rule_2b_distinct_content_keeps_all(self):
        first = record("0.1", "player", 0b01, {"position", "forward"})
        second = record("0.2", "player", 0b01, {"position", "guard"})
        assert is_valid_contributor(first, [first, second])
        assert is_valid_contributor(second, [first, second])


@pytest.fixture
def redundancy_tree():
    """A parent with same-label children, two of which match identically."""
    document = spec(
        "team", None,
        spec("name", "grizzlies"),
        spec("players", None,
             spec("player", None, spec("position", "forward")),
             spec("player", None, spec("position", "guard")),
             spec("player", None, spec("position", "forward"))),
    )
    return tree_from_spec(document)


class TestPruning:
    def _records(self, tree, query_text, root, keyword_nodes):
        query = Query.parse(query_text)
        fragment = build_fragment(tree, D(root), keyword_nodes)
        analyzer = ContentAnalyzer(tree)
        return build_record_tree(tree, analyzer, query, fragment)

    def test_contributor_keeps_duplicates(self, redundancy_tree):
        records = self._records(redundancy_tree, "grizzlies position", "0",
                                ["0.0", "0.1.0.0", "0.1.1.0", "0.1.2.0"])
        pruned = prune_with_contributor(records)
        assert D("0.1.2") in pruned.kept_set()
        assert pruned.algorithm == "maxmatch"

    def test_valid_contributor_removes_duplicates(self, redundancy_tree):
        records = self._records(redundancy_tree, "grizzlies position", "0",
                                ["0.0", "0.1.0.0", "0.1.1.0", "0.1.2.0"])
        pruned = prune_with_valid_contributor(records)
        kept = {str(code) for code in pruned.kept_nodes}
        # The duplicate "forward" player (document-order later) is dropped,
        # together with its subtree.
        assert "0.1.2" not in kept and "0.1.2.0" not in kept
        assert "0.1.0" in kept and "0.1.1" in kept
        assert pruned.algorithm == "validrtf"

    def test_discarded_subtrees_removed_entirely(self, redundancy_tree):
        records = self._records(redundancy_tree, "grizzlies gassol position", "0",
                                ["0.0", "0.1.0.0", "0.1.1.0", "0.1.2.0"])
        # Without a "gassol" match nothing changes here, but pruning must never
        # keep a node whose ancestor was discarded.
        for pruner in (prune_with_contributor, prune_with_valid_contributor):
            pruned = pruner(records)
            kept = pruned.kept_set()
            for code in kept:
                ancestor = code.parent()
                while ancestor is not None and ancestor in records.by_dewey:
                    assert ancestor in kept
                    ancestor = ancestor.parent()

    def test_root_always_kept(self, redundancy_tree):
        records = self._records(redundancy_tree, "grizzlies position", "0",
                                ["0.0", "0.1.0.0"])
        for pruner in (prune_with_contributor, prune_with_valid_contributor):
            assert D("0") in pruner(records).kept_set()

    def test_valid_contributor_never_prunes_unique_labels(self, publications):
        records = self._records(
            publications, "wong fu dynamic skyline query", "0.2.1",
            ["0.2.1.0.0.0", "0.2.1.0.1.0", "0.2.1.1", "0.2.1.2"])
        pruned = prune_with_valid_contributor(records)
        assert pruned.kept_set() == set(records.fragment.nodes)
