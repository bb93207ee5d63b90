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
from repro.text import ContentAnalyzer, content_id
from repro.xmltree import DeweyCode, spec, tree_from_spec

D = DeweyCode.parse


def columns(*siblings):
    """The mask and feature columns of sibling positions 0, 1, ... built
    from ``(mask, words)`` pairs, in document order."""
    masks = [mask for mask, _ in siblings]
    features = [content_id(frozenset(words)) for _, words in siblings]
    return masks, features


class TestContributorPredicate:
    def test_strict_superset_sibling_discards(self):
        masks, _ = columns((0b011, ()), (0b111, ()))  # title, abstract
        assert not is_contributor(0, [0, 1], masks)

    def test_equal_masks_keep_both(self):
        masks, _ = columns((0b01, ()), (0b01, ()))
        assert is_contributor(0, [0, 1], masks)
        assert is_contributor(1, [0, 1], masks)

    def test_incomparable_masks_keep_both(self):
        masks, _ = columns((0b01, ()), (0b10, ()))
        assert is_contributor(0, [0, 1], masks)

    def test_label_is_ignored_by_contributor(self):
        # MaxMatch compares against every sibling regardless of label — the
        # source of the false-positive problem: the test reads no label.
        masks, _ = columns((0b011, ()), (0b111, ()))  # title, abstract
        assert not is_contributor(0, [0, 1], masks)
        assert is_contributor(1, [0, 1], masks)

    def test_single_child_is_contributor(self):
        masks, _ = columns((0b001, ()))
        assert is_contributor(0, [0], masks)


class TestValidContributorPredicate:
    def test_unique_label_always_kept(self):
        masks, features = columns((0b011, ()))
        assert is_valid_contributor(0, [0], masks, features)

    def test_rule_2a_strict_cover_discards(self):
        masks, features = columns((0b01, ()), (0b11, ()))
        assert not is_valid_contributor(0, [0, 1], masks, features)
        assert is_valid_contributor(1, [0, 1], masks, features)

    def test_rule_2b_duplicate_content_keeps_first(self):
        masks, features = columns((0b01, {"position", "forward"}),
                                  (0b01, {"position", "guard"}),
                                  (0b01, {"position", "forward"}))
        group = [0, 1, 2]
        assert is_valid_contributor(0, group, masks, features)
        assert is_valid_contributor(1, group, masks, features)
        assert not is_valid_contributor(2, group, masks, features)

    def test_rule_2b_distinct_content_keeps_all(self):
        masks, features = columns((0b01, {"position", "forward"}),
                                  (0b01, {"position", "guard"}))
        assert is_valid_contributor(0, [0, 1], masks, features)
        assert is_valid_contributor(1, [0, 1], masks, features)


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
                while ancestor is not None and \
                        ancestor in records.fragment.nodes:
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
