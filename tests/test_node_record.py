"""Tests for the Section 4.1 node data structure and the constructing step."""

from __future__ import annotations

import pytest

from repro.core import (
    Query,
    build_fragment,
    build_record_tree,
    build_record_tree_from_lookups,
)
from repro.text import ContentAnalyzer
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


class TestConstructingStep:
    def test_one_record_per_fragment_node(self, q3_records):
        query, records = q3_records
        assert records.size() == records.fragment.size
        assert records.root.dewey == D("0")

    def test_keyword_masks_aggregate_upwards(self, q3_records):
        query, records = q3_records
        # 0.2 sees title/xml/keyword/search through its descendants but not vldb.
        articles = records.record(D("0.2"))
        assert query.keywords_of(articles.keyword_mask) == \
            {"title", "xml", "keyword", "search"}
        # 0.2.1 only contributes "title".
        assert query.keywords_of(records.record(D("0.2.1")).keyword_mask) == {"title"}
        # The root sees every keyword (Example 7: key number covers the query).
        assert query.covers(records.record(D("0")).keyword_mask)

    def test_leaf_keyword_node_mask_is_its_own_content(self, q3_records):
        query, records = q3_records
        title_record = records.record(D("0.2.0.1"))
        assert title_record.is_keyword_node
        assert query.keywords_of(title_record.keyword_mask) == \
            {"title", "xml", "keyword", "search"}

    def test_internal_path_nodes_are_not_keyword_nodes(self, q3_records):
        query, records = q3_records
        assert not records.record(D("0.2")).is_keyword_node
        assert not records.record(D("0.2.0.3")).is_keyword_node

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
        assert records.record(article).content_feature == \
            (min(union), max(union))

    def test_content_feature_is_min_max_pair(self, q3_records, publications):
        query, records = q3_records
        record = records.record(D("0.2.0.1"))
        feature = record.content_feature
        assert isinstance(feature, tuple) and len(feature) == 2
        ordered = sorted(ContentAnalyzer(publications).node_content(
            publications.node(record.dewey)))
        assert feature == (ordered[0], ordered[-1])

    def test_fold_needs_the_masks_of_getrtf(self, q3_records):
        # build_fragment carries no masks: only build_rtfs's fragments can
        # seed the fold.
        query, records = q3_records
        with pytest.raises(ValueError, match="build_rtfs"):
            build_record_tree_from_lookups(lambda dewey: "x",
                                           lambda dewey: ("", ""),
                                           records.fragment)

    def test_tree_keyword_set_decodes_mask(self, q3_records):
        query, records = q3_records
        assert records.record(D("0.2.1")).tree_keyword_set(query) == {"title"}

    def test_empty_content_feature(self, q3_records):
        query, records = q3_records
        # A pure path node with no keyword node in its subtree would have an
        # empty feature; simulate by checking the default of a fresh record.
        from repro.core import NodeRecord
        empty = NodeRecord(dewey=D("0.9"), label="x")
        assert empty.content_feature == ("", "")


class TestChildrenInfo:
    def test_label_groups(self, q3_records):
        query, records = q3_records
        articles = records.record(D("0.2"))
        groups = articles.label_groups()
        assert [group.label for group in groups] == ["article"]
        assert groups[0].counter == 2
        assert groups[0].key_numbers() == sorted(
            child.key_number for child in groups[0].children)

    def test_group_for(self, q3_records):
        query, records = q3_records
        root_record = records.record(D("0"))
        assert root_record.group_for("title").counter == 1
        assert root_record.group_for("Articles").counter == 1
        assert root_record.group_for("missing") is None

    def test_children_sorted_in_document_order(self, q3_records):
        query, records = q3_records
        for record in records.root.iter_records():
            deweys = [child.dewey for child in record.children]
            assert deweys == sorted(deweys)

    def test_iter_records_covers_fragment(self, q3_records):
        query, records = q3_records
        visited = {record.dewey for record in records.root.iter_records()}
        assert visited == set(records.fragment.nodes)


class TestCidModes:
    def test_exact_mode_uses_full_sets(self, publications):
        query = Query.parse("Liu keyword")
        fragment = build_fragment(publications, D("0.2.0"),
                                  ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"])
        analyzer = ContentAnalyzer(publications)
        records = build_record_tree(publications, analyzer, query, fragment,
                                    cid_mode="exact")
        feature = records.record(D("0.2.0.1")).content_feature
        assert isinstance(feature, frozenset)

    def test_unknown_mode_rejected(self, publications):
        query = Query.parse("Liu keyword")
        fragment = build_fragment(publications, D("0.2.0"), ["0.2.0.1"])
        analyzer = ContentAnalyzer(publications)
        with pytest.raises(ValueError):
            build_record_tree(publications, analyzer, query, fragment,
                              cid_mode="bogus")
