"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core import SearchEngine
from repro.datasets import (
    DBLPConfig,
    XMarkConfig,
    generate_dblp,
    generate_xmark,
    publications_tree,
    team_tree,
)
from repro.xmltree import DeweyCode, SubtreeSpec, XMLTree, tree_from_spec


# ---------------------------------------------------------------------- #
# Paper figure instances
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def publications() -> XMLTree:
    """The Figure 1(a) Publications instance."""
    return publications_tree()


@pytest.fixture(scope="session")
def team() -> XMLTree:
    """The Figure 1(b) team instance."""
    return team_tree()


@pytest.fixture(scope="session")
def publications_engine(publications) -> SearchEngine:
    return SearchEngine(publications)


@pytest.fixture(scope="session")
def team_engine(team) -> SearchEngine:
    return SearchEngine(team)


# ---------------------------------------------------------------------- #
# Small synthetic documents (kept tiny so the suite stays fast)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def small_dblp() -> XMLTree:
    return generate_dblp(DBLPConfig(publications=60, seed=7))


@pytest.fixture(scope="session")
def small_xmark() -> XMLTree:
    return generate_xmark(XMarkConfig(scale="standard", base_items=20, seed=7))


# ---------------------------------------------------------------------- #
# Random-tree generation shared by property-based tests
# ---------------------------------------------------------------------- #
LABEL_POOL = ("a", "b", "c", "d", "e")
WORD_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")


def random_tree(seed: int, max_children: int = 3, max_depth: int = 4,
                max_nodes: int = 40) -> XMLTree:
    """A deterministic random labelled tree with word-bearing leaves."""
    rng = random.Random(seed)
    counter = {"nodes": 1}

    def make(depth: int) -> SubtreeSpec:
        label = rng.choice(LABEL_POOL)
        text = None
        if rng.random() < 0.6:
            text = " ".join(rng.choice(WORD_POOL)
                            for _ in range(rng.randint(1, 3)))
        node = SubtreeSpec(label, text)
        if depth < max_depth and counter["nodes"] < max_nodes:
            for _ in range(rng.randint(0, max_children)):
                if counter["nodes"] >= max_nodes:
                    break
                counter["nodes"] += 1
                node.add(make(depth + 1))
        return node

    return tree_from_spec(make(0), name=f"random-{seed}")


def random_keyword_lists(tree: XMLTree, seed: int,
                         keyword_count: int = 2) -> Dict[str, List[DeweyCode]]:
    """Random non-empty posting lists over a tree's nodes."""
    rng = random.Random(seed * 31 + keyword_count)
    nodes = [node.dewey for node in tree.iter_preorder()]
    lists: Dict[str, List[DeweyCode]] = {}
    for index in range(keyword_count):
        size = rng.randint(1, max(1, min(5, len(nodes))))
        lists[f"kw{index}"] = sorted(rng.sample(nodes, size))
    return lists


@pytest.fixture
def make_random_tree():
    """Factory fixture for deterministic random trees."""
    return random_tree


@pytest.fixture
def make_random_keyword_lists():
    """Factory fixture for deterministic random posting lists."""
    return random_keyword_lists


# ---------------------------------------------------------------------- #
# Backend-parity helpers
# ---------------------------------------------------------------------- #
@pytest.fixture
def store_engine():
    """Build a tree-free engine whose every stage reads from a store.

    Call it with ``(tree, store, name)``: the tree is stored under ``name``
    and the engine searches it through its ``SQLitePostingSource`` alone.
    """
    from repro.storage import SQLitePostingSource

    def build(tree, store, name):
        store.store_tree(tree, name)
        return SearchEngine(source=SQLitePostingSource(store, name))

    return build
