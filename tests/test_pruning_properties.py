"""Property-based tests of the pruning invariants on random documents.

Random labelled trees with word-bearing nodes are generated, random queries
are drawn from their vocabulary, and the end-to-end MaxMatch / ValidRTF runs
must satisfy the structural invariants the paper relies on:

* the fragment root is always kept;
* kept nodes always form a connected subtree of the raw RTF;
* pruning never loses query coverage (every keyword keeps at least one
  occurrence per fragment);
* kept node sets are subsets of the raw RTF;
* fragments of one result never overlap (the RTF partitions are disjoint);
* uniquely-labelled children are never pruned by ValidRTF (rule 1), which is
  exactly the false-positive fix.
"""

from __future__ import annotations

import random
from typing import Tuple

from hypothesis import given, settings, strategies as st

from repro.core import MaxMatch, Query, ValidRTF
from repro.text import ContentAnalyzer
from repro.xmltree import SubtreeSpec, XMLTree, tree_from_spec

LABELS = ("article", "title", "author", "section", "note")
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


@st.composite
def documents_and_queries(draw) -> Tuple[XMLTree, Query]:
    """A random document plus a random 1–3 keyword query over its vocabulary."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    node_budget = draw(st.integers(min_value=5, max_value=35))

    counter = {"left": node_budget}

    def build(depth: int) -> SubtreeSpec:
        label = rng.choice(LABELS)
        text = None
        if rng.random() < 0.7:
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
        node = SubtreeSpec(label, text)
        if depth < 4:
            for _ in range(rng.randint(0, 3)):
                if counter["left"] <= 0:
                    break
                counter["left"] -= 1
                node.add(build(depth + 1))
        return node

    tree = tree_from_spec(build(0))
    keyword_count = draw(st.integers(min_value=1, max_value=3))
    keywords = draw(st.lists(st.sampled_from(WORDS), min_size=keyword_count,
                             max_size=keyword_count, unique=True))
    return tree, Query(tuple(keywords))


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(documents_and_queries())
def test_roots_kept_and_subsets(case):
    tree, query = case
    for algorithm_class in (ValidRTF, MaxMatch):
        result = algorithm_class(tree).search(query)
        for fragment in result:
            assert fragment.root in fragment.kept_set()
            assert fragment.kept_set() <= fragment.fragment.node_set()


@SETTINGS
@given(documents_and_queries())
def test_kept_nodes_connected(case):
    tree, query = case
    for algorithm_class in (ValidRTF, MaxMatch):
        result = algorithm_class(tree).search(query)
        for fragment in result:
            kept = fragment.kept_set()
            raw = fragment.fragment.node_set()
            for code in kept:
                if code == fragment.root:
                    continue
                parent = code.parent()
                while parent is not None and parent not in raw:
                    parent = parent.parent()
                assert parent in kept


@SETTINGS
@given(documents_and_queries())
def test_pruning_preserves_query_coverage(case):
    tree, query = case
    analyzer = ContentAnalyzer(tree)
    for algorithm_class in (ValidRTF, MaxMatch):
        result = algorithm_class(tree).search(query)
        for fragment in result:
            covered = set()
            for dewey in fragment.kept_keyword_nodes():
                content = analyzer.node_content(tree.node(dewey))
                covered |= {keyword for keyword in query.keywords
                            if keyword in content}
            assert covered == set(query.keywords)


@SETTINGS
@given(documents_and_queries())
def test_fragments_are_disjoint(case):
    tree, query = case
    result = ValidRTF(tree).search(query)
    seen: set = set()
    for fragment in result:
        keyword_nodes = set(fragment.fragment.keyword_nodes)
        assert not (seen & keyword_nodes)
        seen |= keyword_nodes


@SETTINGS
@given(documents_and_queries())
def test_roots_agree_between_algorithms(case):
    tree, query = case
    validrtf = ValidRTF(tree).search(query)
    maxmatch = MaxMatch(tree).search(query)
    assert validrtf.roots() == maxmatch.roots()
    assert validrtf.lca_nodes == maxmatch.lca_nodes


@SETTINGS
@given(documents_and_queries())
def test_unique_label_children_never_pruned_by_validrtf(case):
    tree, query = case
    result = ValidRTF(tree).search(query)
    for fragment in result:
        raw = fragment.fragment.node_set()
        kept = fragment.kept_set()
        # For every kept node, children (within the raw RTF) whose label is
        # unique among their raw siblings must also be kept (rule 1).
        for code in kept:
            children = [other for other in raw if other.parent() == code]
            label_counts = {}
            for child in children:
                label = tree.node(child).label
                label_counts[label] = label_counts.get(label, 0) + 1
            for child in children:
                if label_counts[tree.node(child).label] == 1:
                    assert child in kept


@SETTINGS
@given(documents_and_queries())
def test_results_deterministic(case):
    tree, query = case
    first = ValidRTF(tree).search(query)
    second = ValidRTF(tree).search(query)
    assert first.roots() == second.roots()
    assert [fragment.kept_set() for fragment in first] == \
        [fragment.kept_set() for fragment in second]
