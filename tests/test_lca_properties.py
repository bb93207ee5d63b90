"""Property-based tests: the optimized LCA algorithms against the naive specs.

Random Dewey-code posting lists are generated directly (no tree needed — every
algorithm works purely on codes), and the optimized algorithms must agree with
the naive reference implementations, plus the structural invariants relating
CA, SLCA and ELCA.  The lists are plain ``DeweyCode`` lists, which every
optimized algorithm (and ``build_rtfs``) packs once on entry, so these
properties exercise the packed loops that ship.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import assign_keyword_nodes, build_fragment, build_rtfs
from repro.lca import (
    elca_is_slca,
    indexed_lookup_eager_slca,
    indexed_stack_elca,
    naive_common_ancestors,
    naive_elca,
    naive_elca_exhaustive,
    naive_elca_is_slca,
    naive_slca,
    scan_eager_slca,
    stack_slca,
)
from repro.xmltree import DeweyCode

# Dewey codes over a small component alphabet so collisions / nestings happen.
dewey_codes = st.lists(
    st.integers(min_value=0, max_value=2), min_size=0, max_size=4
).map(lambda suffix: DeweyCode([0] + suffix))

posting_list = st.lists(dewey_codes, min_size=1, max_size=6)

keyword_lists = st.dictionaries(
    keys=st.sampled_from(["w1", "w2", "w3"]),
    values=posting_list,
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(keyword_lists)
def test_optimized_slca_algorithms_match_naive(lists: Dict[str, List[DeweyCode]]):
    expected = naive_slca(lists)
    assert indexed_lookup_eager_slca(lists) == expected
    assert scan_eager_slca(lists) == expected
    assert stack_slca(lists) == expected


@settings(max_examples=200, deadline=None)
@given(keyword_lists)
def test_indexed_stack_elca_matches_naive(lists: Dict[str, List[DeweyCode]]):
    assert indexed_stack_elca(lists) == naive_elca(lists)


@settings(max_examples=200, deadline=None)
@given(keyword_lists)
def test_build_rtfs_matches_reference_dispatch(lists: Dict[str, List[DeweyCode]]):
    """The packed ``getRTF`` loop equals the per-code reference dispatch."""
    roots = naive_elca(lists)
    flags = elca_is_slca(roots)
    assignment = assign_keyword_nodes(roots, lists)
    expected = [build_fragment(None, root, assignment[root], is_slca=flag)
                for root, flag in zip(roots, flags) if assignment[root]]
    fragments = build_rtfs(roots, lists, flags)
    assert fragments == expected
    # A plain tuple would compare equal to its code but render "(0, 1)".
    for fragment in fragments:
        assert all(type(node) is DeweyCode
                   for node in fragment.nodes + fragment.keyword_nodes)
    # Bit j of a keyword node's mask is set iff the node is in list j.
    members = [set(deweys) for deweys in lists.values()]
    for fragment in fragments:
        assert fragment.keyword_masks == tuple(
            sum(1 << j for j, member in enumerate(members) if node in member)
            for node in fragment.keyword_nodes)


#: A nested chain: one code and every ancestor of it.
nested_chains = dewey_codes.map(
    lambda code: {DeweyCode(code.components[:size])
                  for size in range(1, len(code) + 1)})


@settings(max_examples=300, deadline=None)
@given(st.sets(dewey_codes, max_size=8), nested_chains)
def test_elca_is_slca_matches_the_all_pairs_definition(codes, chain):
    """The successor test equals "no other root is a strict descendant" on
    distinct document-ordered roots: scattered, one nested chain, and both
    mixed."""
    for roots in (sorted(codes), sorted(chain), sorted(codes | chain)):
        assert elca_is_slca(roots) == naive_elca_is_slca(roots)


@settings(max_examples=150, deadline=None)
@given(keyword_lists)
def test_naive_elca_variants_agree(lists: Dict[str, List[DeweyCode]]):
    assert naive_elca(lists) == naive_elca_exhaustive(lists)


@settings(max_examples=150, deadline=None)
@given(keyword_lists)
def test_slca_subset_of_elca_subset_of_ca(lists: Dict[str, List[DeweyCode]]):
    slcas = set(naive_slca(lists))
    elcas = set(naive_elca(lists))
    cas = set(naive_common_ancestors(lists))
    assert slcas <= elcas <= cas


@settings(max_examples=150, deadline=None)
@given(keyword_lists)
def test_slca_nodes_are_incomparable(lists: Dict[str, List[DeweyCode]]):
    slcas = naive_slca(lists)
    for first in slcas:
        for second in slcas:
            if first != second:
                assert not first.is_ancestor_of(second)


@settings(max_examples=150, deadline=None)
@given(keyword_lists)
def test_elca_subtrees_contain_all_keywords(lists: Dict[str, List[DeweyCode]]):
    elcas = naive_elca(lists)
    for elca in elcas:
        for keyword, deweys in lists.items():
            if not deweys:
                continue
            assert any(elca.is_ancestor_or_self(dewey) for dewey in deweys), \
                f"ELCA {elca} misses keyword {keyword}"


@settings(max_examples=150, deadline=None)
@given(keyword_lists)
def test_results_sorted_and_unique(lists: Dict[str, List[DeweyCode]]):
    for algorithm in (indexed_lookup_eager_slca, scan_eager_slca, stack_slca,
                      indexed_stack_elca):
        result = algorithm(lists)
        assert result == sorted(result)
        assert len(result) == len(set(result))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("keyword_count", (1, 2, 3, 4))
def test_stack_slca_cross_check_on_random_trees(seed, keyword_count,
                                                make_random_tree,
                                                make_random_keyword_lists):
    """``stack_slca`` agrees with Indexed Lookup Eager and Scan Eager on
    posting lists drawn from real (randomly generated) trees, which are
    deeper and denser than the hypothesis strategy above produces."""
    tree = make_random_tree(seed, max_children=4, max_depth=5, max_nodes=60)
    lists = make_random_keyword_lists(tree, seed, keyword_count=keyword_count)
    expected = indexed_lookup_eager_slca(lists)
    assert stack_slca(lists) == expected, (seed, keyword_count)
    assert scan_eager_slca(lists) == expected, (seed, keyword_count)
