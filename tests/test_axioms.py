"""Tests for the axiomatic XKS property checkers, and the paper's claim that
ValidRTF satisfies all four properties (Section 4.3-(2))."""

from __future__ import annotations

import pytest

from repro.core import (
    MaxMatch,
    SearchEngine,
    ValidRTF,
    check_all_axioms,
    check_data_consistency,
    check_data_monotonicity,
    check_query_consistency,
    check_query_monotonicity,
)
from repro.datasets import PAPER_QUERIES, publications_tree, team_tree
from repro.xmltree import DeweyCode, SubtreeSpec, parse_string

D = DeweyCode.parse


def validrtf_factory(tree):
    algorithm = ValidRTF(tree)
    return algorithm.search


def maxmatch_factory(tree):
    algorithm = MaxMatch(tree)
    return algorithm.search


NEW_ARTICLE = SubtreeSpec("article", None, children=[
    SubtreeSpec("title", "adaptive xml keyword search ranking"),
    SubtreeSpec("abstract", "ranking keyword search answers over xml data"),
])

NEW_PLAYER = SubtreeSpec("player", None, children=[
    SubtreeSpec("name", "Marc Gassol"),
    SubtreeSpec("position", "center"),
])


class TestDataMonotonicity:
    def test_insertion_adds_results(self):
        tree = publications_tree()
        check = check_data_monotonicity(validrtf_factory, tree, "xml keyword",
                                        D("0.2"), NEW_ARTICLE)
        assert check.satisfied
        assert check.after_count >= check.before_count
        # The inserted article actually contains both keywords, so it creates
        # a new result.
        assert check.after_count > check.before_count

    def test_neutral_insertion(self):
        tree = publications_tree()
        neutral = SubtreeSpec("note", "editorial comment")
        check = check_data_monotonicity(validrtf_factory, tree, "xml keyword",
                                        D("0"), neutral)
        assert check.satisfied
        assert check.after_count == check.before_count


class TestQueryMonotonicity:
    def test_adding_keyword_never_adds_results(self):
        tree = publications_tree()
        check = check_query_monotonicity(validrtf_factory, tree, "xml keyword",
                                         "skyline")
        assert check.satisfied
        assert check.after_count <= check.before_count

    def test_adding_unmatched_keyword_empties_result(self):
        tree = publications_tree()
        check = check_query_monotonicity(validrtf_factory, tree, "xml keyword",
                                         "nonexistentterm")
        assert check.satisfied
        assert check.after_count == 0


class TestDataConsistency:
    def test_new_fragments_contain_inserted_subtree(self):
        tree = publications_tree()
        check = check_data_consistency(validrtf_factory, tree, "xml keyword",
                                       D("0.2"), NEW_ARTICLE)
        assert check.satisfied

    def test_team_insertion(self):
        tree = team_tree()
        check = check_data_consistency(validrtf_factory, tree,
                                       PAPER_QUERIES["Q4"], D("0.1"), NEW_PLAYER)
        assert check.satisfied


class TestQueryConsistency:
    def test_new_fragments_match_new_keyword(self):
        tree = publications_tree()
        check = check_query_consistency(validrtf_factory, tree, "skyline",
                                        "dynamic")
        assert check.satisfied

    def test_with_maxmatch_baseline(self):
        tree = publications_tree()
        check = check_query_consistency(maxmatch_factory, tree, "xml", "keyword")
        assert check.satisfied


class TestCombinedScenarios:
    SCENARIOS = [
        ("publications", "xml keyword", "0.2", NEW_ARTICLE, "search"),
        ("publications", "liu keyword", "0.2", NEW_ARTICLE, "xml"),
        ("team", "grizzlies position", "0.1", NEW_PLAYER, "gassol"),
        ("team", "grizzlies gassol", "0.1", NEW_PLAYER, "position"),
    ]

    @pytest.mark.parametrize("tree_name,query,parent,insertion,keyword", SCENARIOS)
    def test_validrtf_satisfies_all_axioms(self, tree_name, query, parent,
                                           insertion, keyword):
        tree = publications_tree() if tree_name == "publications" else team_tree()
        report = check_all_axioms(validrtf_factory, tree, query, D(parent),
                                  insertion, keyword)
        assert report.all_satisfied, [check.detail for check in report.failed()]
        assert len(report.checks) == 4

    @pytest.mark.parametrize("tree_name,query,parent,insertion,keyword", SCENARIOS)
    def test_maxmatch_satisfies_all_axioms(self, tree_name, query, parent,
                                           insertion, keyword):
        tree = publications_tree() if tree_name == "publications" else team_tree()
        report = check_all_axioms(maxmatch_factory, tree, query, D(parent),
                                  insertion, keyword)
        assert report.all_satisfied, [check.detail for check in report.failed()]

    def test_report_failed_listing(self):
        tree = publications_tree()
        report = check_all_axioms(validrtf_factory, tree, "xml keyword",
                                  D("0.2"), NEW_ARTICLE, "search")
        assert report.failed() == []


class TestAxiomsOnRandomTrees:
    """Randomized scenarios: insert a random keyword-bearing subtree and add a
    random existing keyword; ValidRTF must satisfy all four properties."""

    @pytest.mark.parametrize("seed", range(6))
    def test_validrtf_axioms_random(self, seed, make_random_tree):
        tree = make_random_tree(seed, max_nodes=25)
        engine = SearchEngine(tree)
        vocabulary = engine.source.vocabulary()
        if len(vocabulary) < 3:
            pytest.skip("degenerate random tree without enough vocabulary")
        query = " ".join(vocabulary[:2])
        extra_keyword = vocabulary[2]
        insertion = SubtreeSpec("extra", " ".join(vocabulary[:2]))
        report = check_all_axioms(validrtf_factory, tree, query,
                                  tree.root.dewey, insertion, extra_keyword)
        assert report.all_satisfied, [check.detail for check in report.failed()]


class TestMaxMatchDataConsistencyCounterexample:
    """``maxmatch`` on ELCA roots can fail data consistency; ValidRTF holds.

    The tree is ``tests/fuzz_util.py``'s ``random_document(934,
    max_nodes=25)`` (22 nodes), written out.  Inserting ``<e><b>eta</b></e>``
    under 0.1.0.1 makes the root an ELCA of ``alpha eta``.  MaxMatch's
    contributor rule then prunes 0.1, because its sibling 0.0 covers a
    strict superset of 0.1's keywords, so the new fragment leaves out the
    inserted node that created it.  The paper claims the four properties for
    ValidRTF only (DESIGN.md section 10).
    """

    XML = ("<d>alpha<b>zeta gamma beta<c><d><e/><e>beta gamma zeta</e>"
           "<e>beta beta alpha</e></d><a><e>delta beta</e><a>eta alpha</a>"
           "<d>eta gamma</d></a></c></b><d><a><d/><e><b/><e>zeta</e>"
           "<b>delta</b></e><d>delta beta<b>gamma delta</b>"
           "<c>zeta delta</c></d></a><a/></d></d>")
    INSERTION = SubtreeSpec("e", None, children=[SubtreeSpec("b", "eta")])
    PARENT = D("0.1.0.1")

    @pytest.mark.parametrize("keyword", ["beta", "gamma", "zeta", "delta"])
    def test_maxmatch_fails_data_consistency_only(self, keyword):
        tree = parse_string(self.XML)
        assert tree.size() == 22
        maxmatch = check_all_axioms(maxmatch_factory, tree, "alpha eta",
                                    self.PARENT, self.INSERTION, keyword)
        assert [check.property_name for check in maxmatch.failed()] == \
            ["data consistency"]
        validrtf = check_all_axioms(validrtf_factory, tree, "alpha eta",
                                    self.PARENT, self.INSERTION, keyword)
        assert validrtf.all_satisfied, \
            [check.detail for check in validrtf.failed()]

    def test_the_contributor_rule_prunes_the_inserted_branch(self):
        tree = parse_string(self.XML)
        mutated = tree.with_inserted_subtree(self.PARENT, self.INSERTION)
        inserted = D("0.1.0.1.3")
        assert MaxMatch(tree).search("alpha eta").roots() == (D("0.0.0.1.1"),)
        maxmatch = MaxMatch(mutated).search("alpha eta").by_root()[D("0")]
        validrtf = ValidRTF(mutated).search("alpha eta").by_root()[D("0")]
        # The inserted eta node is the root fragment's keyword node on both
        # sides, but only ValidRTF keeps the branch that leads to it.
        assert inserted.child(0) in maxmatch.fragment.keyword_nodes
        assert D("0.1") not in maxmatch.kept_nodes
        assert inserted not in maxmatch.kept_nodes
        assert {D("0.1"), inserted} <= set(validrtf.kept_nodes)
