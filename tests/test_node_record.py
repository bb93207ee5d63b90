"""Tests for the Section 4.1 node data structure and the constructing step."""

from __future__ import annotations

import pytest

from repro.core import Query, SearchEngine, build_fragment, build_record_tree
from repro.core.node_record import fold_records
from repro.text import EMPTY_CID, ContentAnalyzer
from repro.xmltree import DeweyCode

D = DeweyCode.parse


@pytest.fixture
def q3_records(publications):
    """The record tree of the Q3 RTF (Example 7 / Figure 4(b))."""
    query = Query.parse("VLDB title XML keyword search")
    fragment = build_fragment(
        publications, D("0"),
        ["0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0", "0.2.1.1"],
    )
    analyzer = ContentAnalyzer(publications)
    records = build_record_tree(publications, analyzer, query, fragment)
    return query, records


def at(records, code: str) -> int:
    """The position of one fragment node."""
    return records.fragment.nodes.index(D(code))


def mask_at(records, code: str) -> int:
    return records.masks[at(records, code)]


class TestConstructingStep:
    def test_one_record_per_fragment_node(self, q3_records):
        query, records = q3_records
        assert records.size() == records.fragment.size
        assert records.fragment.nodes[0] == D("0")
        for column in (records.labels, records.masks, records.features,
                       records.parents, records.children):
            assert len(column) == records.fragment.size

    def test_keyword_masks_aggregate_upwards(self, q3_records):
        query, records = q3_records
        # 0.2 sees title/xml/keyword/search through its descendants but not vldb.
        assert query.keywords_of(mask_at(records, "0.2")) == \
            {"title", "xml", "keyword", "search"}
        # 0.2.1 only contributes "title".
        assert query.keywords_of(mask_at(records, "0.2.1")) == {"title"}
        # The root sees every keyword (Example 7: key number covers the query).
        assert query.covers(mask_at(records, "0"))

    def test_leaf_keyword_node_mask_is_its_own_content(self, q3_records):
        query, records = q3_records
        assert D("0.2.0.1") in records.fragment.keyword_nodes
        assert query.keywords_of(mask_at(records, "0.2.0.1")) == \
            {"title", "xml", "keyword", "search"}

    def test_internal_path_nodes_are_not_keyword_nodes(self, q3_records):
        query, records = q3_records
        assert D("0.2") not in records.fragment.keyword_nodes
        assert D("0.2.0.3") not in records.fragment.keyword_nodes

    def test_cid_spans_union_of_keyword_node_contents(self, q3_records,
                                                       publications):
        query, records = q3_records
        analyzer = ContentAnalyzer(publications)
        article = D("0.2.0")
        # The article's RTF keyword nodes are title, abstract and ref; their
        # word sets all flow into the ancestor record's cID.
        union = frozenset().union(*(
            analyzer.node_content(publications.node(keyword_node))
            for keyword_node in records.fragment.keyword_nodes
            if article.is_ancestor_or_self(keyword_node)))
        assert {"reasoning", "keyword", "xml", "sigmod"} <= union
        assert records.features[records.fragment.nodes.index(article)] == \
            (min(union), max(union))

    def test_content_feature_is_min_max_pair(self, q3_records, publications):
        query, records = q3_records
        feature = records.features[at(records, "0.2.0.1")]
        assert isinstance(feature, tuple) and len(feature) == 2
        ordered = sorted(ContentAnalyzer(publications).node_content(
            publications.node(D("0.2.0.1"))))
        assert feature == (ordered[0], ordered[-1])

    def test_fold_needs_the_shape_of_getrtf(self, q3_records, publications):
        # build_fragment carries no masks and no parent positions: only
        # build_rtfs's fragments can seed the fold.
        query, records = q3_records
        pipeline = SearchEngine(publications).algorithm("validrtf")
        with pytest.raises(ValueError, match="build_rtfs"):
            pipeline.record_tree(query, records.fragment)

    def test_tree_keyword_set_decodes_mask(self, q3_records):
        query, records = q3_records
        assert frozenset(query.keywords_of(mask_at(records, "0.2.1"))) == \
            {"title"}

    def test_empty_content_feature(self, publications):
        # Positions whose subtree seeds no content keep the empty pair: fold
        # a getRTF fragment with every keyword node's feature empty.
        query = Query.parse("VLDB title XML keyword search")
        fragment = SearchEngine(publications).algorithm(
            "validrtf").raw_fragments(query)[0]
        records = fold_records(fragment, [""] * fragment.size,
                               [EMPTY_CID] * len(fragment.keyword_nodes))
        assert set(records.features) == {("", "")}
        assert query.covers(records.masks[0])


class TestChildrenInfo:
    def test_label_groups(self, q3_records):
        query, records = q3_records
        groups = records.label_groups(at(records, "0.2"))
        assert [records.labels[group[0]] for group in groups] == ["article"]
        assert [len(group) for group in groups] == [2]
        assert [records.fragment.nodes[child] for child in groups[0]] == \
            [D("0.2.0"), D("0.2.1")]

    def test_group_for(self, q3_records):
        query, records = q3_records
        counters = {records.labels[group[0]]: len(group)
                    for group in records.label_groups(0)}
        assert counters["title"] == 1
        assert counters["Articles"] == 1
        assert "missing" not in counters

    def test_children_sorted_in_document_order(self, q3_records):
        query, records = q3_records
        for position, children in enumerate(records.children):
            assert children == sorted(children)
            assert all(records.parents[child] == position
                       for child in children)
            assert all(records.fragment.nodes[child].parent()
                       == records.fragment.nodes[position]
                       for child in children)

    def test_children_reach_the_whole_fragment(self, q3_records):
        query, records = q3_records
        reached = [0]
        for position in reached:
            reached.extend(records.children[position])
        assert sorted(reached) == list(range(records.fragment.size))
        assert records.parents[0] == -1


class TestCidModes:
    def test_exact_mode_uses_full_sets(self, publications):
        query = Query.parse("Liu keyword")
        fragment = build_fragment(publications, D("0.2.0"),
                                  ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"])
        analyzer = ContentAnalyzer(publications)
        records = build_record_tree(publications, analyzer, query, fragment,
                                    cid_mode="exact")
        feature = records.features[at(records, "0.2.0.1")]
        assert isinstance(feature, frozenset)

    def test_unknown_mode_rejected(self, publications):
        query = Query.parse("Liu keyword")
        fragment = build_fragment(publications, D("0.2.0"), ["0.2.0.1"])
        analyzer = ContentAnalyzer(publications)
        with pytest.raises(ValueError):
            build_record_tree(publications, analyzer, query, fragment,
                              cid_mode="bogus")
