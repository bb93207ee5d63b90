"""Tests for the dataset generators, figure instances and workloads."""

from __future__ import annotations

import pytest

from repro.datasets import (
    DBLPConfig,
    DBLP_PAPER_FREQUENCIES,
    PAPER_QUERIES,
    WorkloadQuery,
    XMARK_PAPER_FREQUENCIES,
    XMARK_SCALES,
    XMarkConfig,
    dblp_target_frequencies,
    dblp_workload,
    generate_dblp,
    generate_xmark,
    paper_query,
    publications_tree,
    team_tree,
    validate_workloads,
    workload_for,
    workload_summary,
    xmark_suite,
    xmark_target_frequencies,
    xmark_workload,
)
from repro.index import InvertedIndex


class TestFigureInstances:
    def test_publications_structure(self):
        tree = publications_tree()
        assert tree.node("0").label == "Publications"
        assert tree.node("0.2.0").label == "article"
        assert tree.node("0.2.0.3.0").label == "ref"
        assert tree.node("0.2.1.1").label == "title"

    def test_team_structure(self):
        tree = team_tree()
        assert tree.node("0").label == "team"
        assert tree.node("0.0").text == "Grizzlies"
        positions = [tree.node(f"0.1.{i}.1").text for i in range(3)]
        assert positions == ["forward", "guard", "forward"]

    def test_paper_query_lookup(self):
        assert paper_query("Q3") == PAPER_QUERIES["Q3"]
        with pytest.raises(KeyError):
            paper_query("Q9")

    def test_instances_are_fresh_objects(self):
        assert publications_tree() is not publications_tree()


class TestVocabulary:
    def test_dblp_target_scaling(self):
        targets = dblp_target_frequencies(0.01)
        assert targets["data"] == round(25840 * 0.01)
        assert targets["keyword"] >= 1

    def test_xmark_target_scaling_by_column(self):
        standard = xmark_target_frequencies(0, 0.01)
        data2 = xmark_target_frequencies(2, 0.01)
        assert data2["particle"] >= standard["particle"]
        with pytest.raises(ValueError):
            xmark_target_frequencies(5, 0.01)


class TestDBLPGenerator:
    def test_deterministic(self):
        first = generate_dblp(DBLPConfig(publications=50, seed=3))
        second = generate_dblp(DBLPConfig(publications=50, seed=3))
        assert first.size() == second.size()
        assert [n.label for n in first.iter_preorder()] == \
            [n.label for n in second.iter_preorder()]

    def test_different_seeds_differ(self):
        first = generate_dblp(DBLPConfig(publications=50, seed=3))
        second = generate_dblp(DBLPConfig(publications=50, seed=4))
        first_titles = [n.text for n in first.iter_preorder() if n.label == "title"]
        second_titles = [n.text for n in second.iter_preorder() if n.label == "title"]
        assert first_titles != second_titles

    def test_structure(self):
        tree = generate_dblp(DBLPConfig(publications=30, seed=1))
        assert tree.root.label == "dblp"
        assert tree.root.child_count() == 30
        histogram = tree.label_histogram()
        assert histogram["title"] == 30
        assert histogram["author"] >= 30

    def test_keywords_planted(self):
        tree = generate_dblp(DBLPConfig(publications=200, seed=1,
                                        keyword_scale=0.01))
        index = InvertedIndex(tree)
        # Frequent paper keywords are present and respect the relative order
        # (data is the most frequent keyword in the paper's table).
        assert index.impact("data").count > index.impact("xml").count > 0
        assert index.impact("keyword").count >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DBLPConfig(publications=0)
        with pytest.raises(ValueError):
            DBLPConfig(keyword_scale=0.0)


class TestXMarkGenerator:
    def test_deterministic(self):
        first = generate_xmark(XMarkConfig(scale="standard", base_items=15, seed=5))
        second = generate_xmark(XMarkConfig(scale="standard", base_items=15, seed=5))
        assert first.size() == second.size()
        assert [n.label for n in first.iter_preorder()] == \
            [n.label for n in second.iter_preorder()]

    def test_structure_sections(self):
        tree = generate_xmark(XMarkConfig(scale="standard", base_items=10, seed=5))
        assert tree.root.label == "site"
        sections = [child.label for child in tree.root.children]
        assert sections == ["regions", "people", "open_auctions",
                            "closed_auctions", "categories"]

    def test_scales_grow(self):
        suite = xmark_suite(base_items=10, seed=5)
        assert set(suite) == set(XMARK_SCALES)
        sizes = [suite[scale].size() for scale in XMARK_SCALES]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_keyword_frequencies_grow_with_scale(self):
        suite = xmark_suite(base_items=10, seed=5)
        frequencies = {
            scale: InvertedIndex(suite[scale]).impact("preventions").count
            for scale in XMARK_SCALES
        }
        assert frequencies["standard"] < frequencies["data1"] < frequencies["data2"]

    def test_rare_keywords_have_minimum_occurrences(self):
        tree = generate_xmark(XMarkConfig(scale="standard", base_items=10, seed=5))
        index = InvertedIndex(tree)
        for keyword in ("particle", "dominator", "threshold"):
            assert index.impact(keyword).count >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            XMarkConfig(scale="huge")
        with pytest.raises(ValueError):
            XMarkConfig(base_items=0)
        with pytest.raises(ValueError):
            XMarkConfig(min_occurrences=0)


class TestWorkloads:
    def test_sizes_match_paper_panels(self):
        assert len(dblp_workload()) == 20
        assert len(xmark_workload()) == 18

    def test_workload_keywords_come_from_published_tables(self):
        validate_workloads()
        for query in dblp_workload():
            assert all(keyword in DBLP_PAPER_FREQUENCIES
                       for keyword in query.keywords)
        for query in xmark_workload():
            assert all(keyword in XMARK_PAPER_FREQUENCIES
                       for keyword in query.keywords)

    def test_query_sizes_cover_two_to_six_keywords(self):
        sizes = {query.size for query in dblp_workload()}
        assert min(sizes) == 2 and max(sizes) >= 6

    def test_labels_unique(self):
        labels = [query.label for query in dblp_workload()]
        assert len(labels) == len(set(labels))

    def test_workload_for(self):
        assert workload_for("dblp")[0].size == 2
        assert workload_for("xmark-data1") == xmark_workload()
        with pytest.raises(ValueError):
            workload_for("unknown")

    def test_workload_query_text(self):
        query = WorkloadQuery(label="xy", keywords=("xml", "keyword"))
        assert query.text == "xml keyword"
        assert query.size == 2

    def test_workload_summary(self):
        rows = workload_summary(dblp_workload()[:3], DBLP_PAPER_FREQUENCIES)
        assert len(rows) == 3
        assert rows[0]["paper_frequencies"][0] == DBLP_PAPER_FREQUENCIES[
            dblp_workload()[0].keywords[0]]
