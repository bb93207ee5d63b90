"""Unit tests for the SLCA / ELCA algorithms on hand-built cases."""

from __future__ import annotations

import pytest

from repro.index import InvertedIndex, PackedDeweyList, QueryLists, pack_deweys
from repro.lca import (
    EmptyKeywordList,
    elca_is_slca,
    indexed_lookup_eager_slca,
    indexed_stack_elca,
    merge_matches,
    naive_common_ancestors,
    naive_elca,
    naive_elca_exhaustive,
    naive_lca_candidates,
    naive_slca,
    query_lists,
    remove_ancestors,
    remove_descendants,
    scan_eager_slca,
    stack_slca,
)
from repro.xmltree import DeweyCode

D = DeweyCode.parse


def codes(*texts):
    return [D(text) for text in texts]


@pytest.fixture
def figure_lists(publications):
    """The posting lists of the paper's Q2 ("Liu keyword") on Figure 1(a)."""
    index = InvertedIndex(publications)
    return index.keyword_nodes(["liu", "keyword"])


class TestHelpers:
    def test_remove_ancestors(self):
        kept = remove_ancestors(codes("0", "0.1", "0.1.2", "0.2"))
        assert [str(code) for code in kept] == ["0.1.2", "0.2"]

    def test_remove_ancestors_with_duplicates(self):
        kept = remove_ancestors(codes("0.1", "0.1"))
        assert [str(code) for code in kept] == ["0.1"]

    def test_remove_descendants(self):
        kept = remove_descendants(codes("0", "0.1", "0.1.2", "0.2"))
        assert [str(code) for code in kept] == ["0"]

    def test_merge_matches_masks(self):
        matches = merge_matches([codes("0.1", "0.2"), codes("0.2")])
        by_code = {str(match.dewey): match.mask for match in matches}
        assert by_code == {"0.1": 1, "0.2": 3}

    def test_query_lists_passes_packed_lists_through(self):
        packed = pack_deweys(codes("0.1", "0.2"))
        assert query_lists({"w1": packed})["w1"] is packed
        lists = QueryLists({"w1": packed})
        assert query_lists(lists) is lists

    def test_query_lists_packs_unsorted_repeats_once(self):
        prepared = query_lists({"w1": codes("0.2", "0.1", "0.2"),
                                "w2": (D("0.0"),)})
        assert isinstance(prepared, QueryLists)
        assert all(isinstance(deweys, PackedDeweyList)
                   for deweys in prepared.values())
        assert {keyword: list(deweys) for keyword, deweys in prepared.items()} \
            == {"w1": codes("0.1", "0.2"), "w2": codes("0.0")}
        assert [(tuple(comps), mask) for comps, mask in prepared.matches()] \
            == [((0, 0), 2), ((0, 1), 1), ((0, 2), 1)]
        assert prepared.matches() is prepared.matches()

    def test_query_lists_rejects_empty_queries_and_lists(self):
        with pytest.raises(EmptyKeywordList):
            query_lists({})
        with pytest.raises(EmptyKeywordList, match="w2"):
            query_lists({"w1": codes("0.1"), "w2": []})


class TestNaive:
    def test_lca_candidates(self):
        lists = {"w1": codes("0.0.0", "0.2"), "w2": codes("0.0.1")}
        candidates = naive_lca_candidates(lists)
        assert [str(code) for code in candidates] == ["0", "0.0"]

    def test_common_ancestors_are_ancestor_closed(self):
        lists = {"w1": codes("0.0.0"), "w2": codes("0.0.1")}
        cas = naive_common_ancestors(lists)
        assert [str(code) for code in cas] == ["0", "0.0"]

    def test_slca_deepest_only(self):
        lists = {"w1": codes("0.0.0"), "w2": codes("0.0.1")}
        assert [str(code) for code in naive_slca(lists)] == ["0.0"]

    def test_empty_keyword_list_gives_empty_result(self):
        lists = {"w1": codes("0.0"), "w2": []}
        assert naive_slca(lists) == []
        assert naive_elca(lists) == []
        assert naive_lca_candidates(lists) == []

    def test_elca_includes_ancestor_with_exclusive_witnesses(self):
        # article has its own title/abstract witnesses even after excluding
        # the self-contained ref node.
        lists = {
            "liu": codes("0.2.0.0.0.0", "0.2.0.3.0"),
            "keyword": codes("0.2.0.1", "0.2.0.2", "0.2.0.3.0"),
        }
        assert [str(code) for code in naive_elca(lists)] == ["0.2.0", "0.2.0.3.0"]
        assert [str(code) for code in naive_slca(lists)] == ["0.2.0.3.0"]

    def test_elca_excludes_covered_ancestor(self):
        # The root sees w1 only inside the CA child, so it is not an ELCA.
        lists = {"w1": codes("0.0.0"), "w2": codes("0.0.1", "0.1")}
        assert [str(code) for code in naive_elca(lists)] == ["0.0"]

    def test_elca_implementations_agree(self):
        lists = {
            "w1": codes("0.0.0", "0.1.0", "0.2"),
            "w2": codes("0.0.1", "0.1.0", "0.3.4"),
        }
        assert naive_elca(lists) == naive_elca_exhaustive(lists)


class TestOptimizedSLCA:
    CASES = [
        {"w1": codes("0.0.0"), "w2": codes("0.0.1")},
        {"w1": codes("0.0", "0.1", "0.2"), "w2": codes("0.1.3")},
        {"w1": codes("0.1.0", "0.2.0"), "w2": codes("0.1.1", "0.2.1"),
         "w3": codes("0.1.2")},
        {"w1": codes("0.5"), "w2": codes("0.5")},
        {"w1": codes("0", "0.1"), "w2": codes("0.1.0.0")},
    ]

    @pytest.mark.parametrize("lists", CASES)
    def test_all_algorithms_agree_with_naive(self, lists):
        expected = naive_slca(lists)
        assert indexed_lookup_eager_slca(lists) == expected
        assert scan_eager_slca(lists) == expected
        assert stack_slca(lists) == expected

    def test_single_keyword_slca_removes_nested_matches(self):
        lists = {"w1": codes("0.1", "0.1.2", "0.3")}
        expected = ["0.1.2", "0.3"]
        assert [str(c) for c in indexed_lookup_eager_slca(lists)] == expected
        assert [str(c) for c in scan_eager_slca(lists)] == expected
        assert [str(c) for c in stack_slca(lists)] == expected

    def test_empty_list_short_circuits(self):
        lists = {"w1": codes("0.1"), "w2": []}
        assert indexed_lookup_eager_slca(lists) == []
        assert scan_eager_slca(lists) == []
        assert stack_slca(lists) == []

    def test_on_paper_figure(self, figure_lists):
        assert [str(code) for code in indexed_lookup_eager_slca(figure_lists)] == \
            ["0.2.0.3.0"]
        assert scan_eager_slca(figure_lists) == indexed_lookup_eager_slca(figure_lists)
        assert stack_slca(figure_lists) == indexed_lookup_eager_slca(figure_lists)


class TestIndexedStackELCA:
    def test_matches_naive_on_paper_figure(self, figure_lists):
        assert indexed_stack_elca(figure_lists) == naive_elca(figure_lists)
        assert [str(code) for code in indexed_stack_elca(figure_lists)] == \
            ["0.2.0", "0.2.0.3.0"]

    def test_results_sorted_document_order(self):
        lists = {"w1": codes("0.2.0", "0.0.0"), "w2": codes("0.0.1", "0.2.1")}
        result = indexed_stack_elca(lists)
        assert result == sorted(result)

    def test_empty_list_short_circuits(self):
        assert indexed_stack_elca({"w1": []}) == []

    def test_slca_subset_of_elca(self, figure_lists):
        elcas = set(indexed_stack_elca(figure_lists))
        slcas = set(indexed_lookup_eager_slca(figure_lists))
        assert slcas <= elcas

    def test_elca_is_slca_flags(self):
        flags = elca_is_slca(codes("0.2.0", "0.2.0.3.0"))
        assert flags == [False, True]
        assert elca_is_slca(codes("0.1", "0.2")) == [True, True]


# ---------------------------------------------------------------------- #
# Input forms: every algorithm takes any Dewey sequence
# ---------------------------------------------------------------------- #
#: Every LCA algorithm, with the naive reference of its family.
ALGORITHMS = {
    "slca-naive": (naive_slca, naive_slca),
    "slca-indexed-lookup-eager": (indexed_lookup_eager_slca, naive_slca),
    "slca-scan-eager": (scan_eager_slca, naive_slca),
    "slca-stack": (stack_slca, naive_slca),
    "elca-naive": (naive_elca, naive_elca),
    "elca-naive-exhaustive": (naive_elca_exhaustive, naive_elca),
    "elca-indexed-stack": (indexed_stack_elca, naive_elca),
}

#: Ways to hand over one sorted posting list: the packed columns every
#: posting source serves, a plain list of codes, and the same codes out of
#: order with a repeat.
INPUT_FORMS = {
    "packed": pack_deweys,
    "list": list,
    "unsorted-repeats": lambda deweys: list(reversed(deweys)) + deweys[:1],
}


@pytest.mark.parametrize("form", sorted(INPUT_FORMS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_input_form_answers_like_the_reference(
        figure_lists, make_random_tree, make_random_keyword_lists,
        algorithm, form):
    """Any form of the same lists gives the family reference's answer.

    Non-packed input is packed once on entry, so the order and repeats of
    the given codes must not change the result.
    """
    function, reference = ALGORITHMS[algorithm]
    cases = [figure_lists]
    for seed in range(4):
        tree = make_random_tree(seed, max_children=4, max_depth=5,
                                max_nodes=60)
        cases.append(make_random_keyword_lists(tree, seed, keyword_count=3))
    for lists in cases:
        expected = reference({keyword: pack_deweys(deweys)
                              for keyword, deweys in lists.items()})
        given = {keyword: INPUT_FORMS[form](list(deweys))
                 for keyword, deweys in lists.items()}
        assert function(given) == expected, (algorithm, form, lists)
