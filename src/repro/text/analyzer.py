"""Content extraction for XML nodes.

Implements the paper's node content and the content id:

* ``C_v`` — the word set implied in a node's label, text and attributes
  (Section 1).
* ``cID`` — the *content id* of a word set: its ``(min, max)`` word pair
  under lexical order (Section 4.1), the approximation of content equality
  the node records carry.

The tree content set ``TC_v`` (Definition 3) and the tree keyword set
``TK_v`` are built from these by the record construction of
:mod:`repro.core.node_record`.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, Iterable, Set, Tuple

from ..xmltree import DeweyCode, XMLNode, XMLTree
from .tokenizer import DEFAULT_TOKENIZER

#: The cID of an empty word set.
EMPTY_CID: Tuple[str, str] = ("", "")


def content_id(words: Collection[str]) -> Tuple[str, str]:
    """The cID of a word set: ``(min, max)`` in lexical order.

    An empty set maps to :data:`EMPTY_CID`; no word is the empty string, so
    the pair's maximum is empty exactly for the empty set.
    """
    if not words:
        return EMPTY_CID
    return (min(words), max(words))


class ContentAnalyzer:
    """Compute node content sets over an :class:`XMLTree`, by definition.

    Results are memoized per node (keyed by Dewey code) for the reference
    record builder and the tests; the search path never reads them.
    """

    def __init__(self, tree: XMLTree):
        self.tree = tree
        self._content_cache: Dict[DeweyCode, FrozenSet[str]] = {}

    # ------------------------------------------------------------------ #
    # Node-level content
    # ------------------------------------------------------------------ #
    def node_content(self, node: XMLNode) -> FrozenSet[str]:
        """The content word set ``C_v`` of a single node."""
        cached = self._content_cache.get(node.dewey)
        if cached is not None:
            return cached
        words = frozenset(DEFAULT_TOKENIZER.word_set(node.raw_strings()))
        self._content_cache[node.dewey] = words
        return words

    def matched_keywords(self, node: XMLNode, keywords: Iterable[str]) -> Set[str]:
        """The query keywords present in the node's own content."""
        content = self.node_content(node)
        return {keyword for keyword in keywords if keyword in content}

    # ------------------------------------------------------------------ #
    # Query helpers
    # ------------------------------------------------------------------ #
    def keyword_nodes(self, keyword: str):
        """All nodes whose own content contains ``keyword`` (document order)."""
        return [node for node in self.tree.iter_preorder()
                if keyword in self.node_content(node)]

    def clear_cache(self) -> None:
        """Drop memoized content sets (after tree mutation in tests)."""
        self._content_cache.clear()
