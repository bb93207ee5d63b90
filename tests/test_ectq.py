"""Tests for the ECTQ / RTF executable specification (Definitions 1 and 2).

These replay the paper's Examples 3 and 4 and check that the exponential
specification agrees with the efficient pipeline (ELCA roots + getRTF) on the
figure instances and on small random inputs.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Query,
    assign_keyword_nodes,
    build_rtfs,
    enumerate_ectq,
    enumerate_rtfs,
    is_rtf_combination,
    rtf_roots,
)
from repro.index import InvertedIndex
from repro.lca import indexed_stack_elca
from repro.xmltree import DeweyCode, lca_of_codes

D = DeweyCode.parse


@pytest.fixture(scope="module")
def liu_keyword_lists(publications):
    """The D_i lists of Example 3: Q = "Liu keyword" on Figure 1(a)."""
    index = InvertedIndex(publications)
    return index.keyword_nodes(Query.parse("Liu keyword").keywords)


class TestExample3:
    def test_posting_lists_match_paper(self, liu_keyword_lists):
        assert [str(code) for code in liu_keyword_lists["liu"]] == \
            ["0.2.0.0.0.0", "0.2.0.3.0"]
        assert [str(code) for code in liu_keyword_lists["keyword"]] == \
            ["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]

    def test_ectq_has_eleven_distinct_combinations(self, liu_keyword_lists):
        # |ECTQ| = 11, not (2^2-1)(2^3-1) = 21, because the ref node carries
        # both keywords (Example 3).
        combinations = enumerate_ectq(liu_keyword_lists)
        assert len(combinations) == 11

    def test_every_combination_covers_the_query(self, liu_keyword_lists):
        for combination in enumerate_ectq(liu_keyword_lists):
            assert any(code in liu_keyword_lists["liu"] for code in combination)
            assert any(code in liu_keyword_lists["keyword"] for code in combination)

    def test_enumeration_guard(self, liu_keyword_lists):
        with pytest.raises(ValueError):
            enumerate_ectq(liu_keyword_lists, max_combinations=3)


class TestExample4:
    def test_exactly_two_rtfs(self, liu_keyword_lists):
        rtfs = enumerate_rtfs(liu_keyword_lists)
        as_strings = [sorted(str(code) for code in nodes) for nodes in rtfs]
        assert as_strings == [
            ["0.2.0.3.0"],
            ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"],
        ]

    def test_rtf_roots_match_paper(self, liu_keyword_lists):
        roots = rtf_roots(enumerate_rtfs(liu_keyword_lists))
        assert [str(code) for code in roots] == ["0.2.0", "0.2.0.3.0"]

    def test_rejected_combinations(self, liu_keyword_lists):
        ref = D("0.2.0.3.0")
        name = D("0.2.0.0.0.0")
        title = D("0.2.0.1")
        abstract = D("0.2.0.2")
        # {n, r} conflicts with conditions 1 and 3 (Example 4).
        assert not is_rtf_combination(frozenset({name, ref}), liu_keyword_lists)
        # {n, t} and {n, a} are not maximal (condition 2).
        assert not is_rtf_combination(frozenset({name, title}), liu_keyword_lists)
        assert not is_rtf_combination(frozenset({name, abstract}), liu_keyword_lists)
        # The two real RTFs are accepted.
        assert is_rtf_combination(frozenset({ref}), liu_keyword_lists)
        assert is_rtf_combination(frozenset({name, title, abstract}),
                                  liu_keyword_lists)


class TestAgreementWithPipeline:
    def test_specification_matches_getrtf_on_figure(self, liu_keyword_lists):
        spec_rtfs = {frozenset(nodes) for nodes in enumerate_rtfs(liu_keyword_lists)}
        roots = indexed_stack_elca(liu_keyword_lists)
        assignment = assign_keyword_nodes(roots, liu_keyword_lists)
        pipeline_rtfs = {frozenset(nodes) for nodes in assignment.values() if nodes}
        assert spec_rtfs == pipeline_rtfs

    @pytest.mark.parametrize("seed", range(8))
    def test_specification_matches_getrtf_on_random_inputs(
            self, seed, make_random_tree, make_random_keyword_lists):
        tree = make_random_tree(seed, max_nodes=20)
        lists = make_random_keyword_lists(tree, seed, keyword_count=2)
        # Keep the enumeration tractable.
        lists = {keyword: deweys[:4] for keyword, deweys in lists.items()}
        spec_rtfs = {frozenset(nodes) for nodes in enumerate_rtfs(lists)}
        roots = indexed_stack_elca(lists)
        assignment = assign_keyword_nodes(roots, lists)
        pipeline_rtfs = {frozenset(nodes) for nodes in assignment.values() if nodes}
        assert spec_rtfs == pipeline_rtfs

    def test_empty_posting_list(self):
        assert enumerate_ectq({"w1": []}) == []
        assert enumerate_rtfs({"w1": []}) == []


class TestGetRTFDepartsFromDefinition2:
    """Where ``getRTF`` keeps a partition the reading of Definition 2 rejects.

    Seeds 121 and 142 of the generator that
    ``test_specification_matches_getrtf_on_random_inputs`` runs on seeds
    0-7, written out.  ``getRTF`` gives every keyword node to its nearest
    ELCA root, so a root's partition may hold two keyword nodes whose own
    LCA lies below the root and is no ELCA.  Condition 1 of the executable
    specification ("every choice of one node per slot has the same LCA")
    rejects such a partition.  DESIGN.md section 9 records the departure;
    these tests pin today's answers, which the golden fixtures and the
    benchmark's digests also hold.
    """

    CASES = {
        "seed-121": (
            {"kw0": ["0.0.0.1.1", "0.0.0.1.2", "0.0.2.0", "0.0.2.0.0"],
             "kw1": ["0", "0.0", "0.0.0.0.0", "0.0.0.1.2"]},
            ["0.0", "0.0.0.1.2"],
            ["0.0", "0.0.0.0.0", "0.0.0.1.1", "0.0.2.0", "0.0.2.0.0"],
            ("0.0.0.1.1", "0.0.0.0.0"), "0.0.0"),
        "seed-142": (
            {"kw0": ["0", "0.1", "0.1.1.1", "0.2"],
             "kw1": ["0.0.0", "0.1.1.0.0", "0.1.1.1"]},
            ["0", "0.1.1.1"],
            ["0", "0.0.0", "0.1", "0.1.1.0.0", "0.2"],
            ("0.1", "0.1.1.0.0"), "0.1"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_partition_kept_by_getrtf_fails_condition_one(self, case):
        raw, roots, partition, pair, pair_lca = self.CASES[case]
        lists = {keyword: [D(code) for code in codes]
                 for keyword, codes in raw.items()}
        elca = indexed_stack_elca(lists)
        assert [str(root) for root in elca] == roots
        kept = assign_keyword_nodes(elca, lists)[D(roots[0])]
        assert [str(code) for code in kept] == partition
        fragment = build_rtfs(elca, lists)[0]
        assert fragment.root == D(roots[0])
        assert [str(code) for code in fragment.keyword_nodes] == partition
        # The witness: two nodes of the partition, one per keyword, meet
        # below the root, at a node that is no ELCA.
        assert str(lca_of_codes([D(code) for code in pair])) == pair_lca
        assert D(pair_lca) not in elca
        assert not is_rtf_combination(frozenset(kept), lists)
        # So the specification finds only the deeper root's partition.
        assert [sorted(str(code) for code in nodes)
                for nodes in enumerate_rtfs(lists)] == [[roots[1]]]
