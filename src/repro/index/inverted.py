"""Inverted keyword index over an XML tree.

The first stage of both MaxMatch and ValidRTF (``getKeywordNodes``) retrieves,
for each query keyword ``w_i``, the sorted Dewey-code list ``D_i`` of nodes
whose content contains ``w_i``.  This module builds that mapping once per
document so repeated queries only cost a dictionary lookup per keyword.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..text import EMPTY_CID, DEFAULT_TOKENIZER, content_id
from ..xmltree import DeweyCode, XMLTree
from .packed import (
    EMPTY_PACKED,
    PackedDeweyList,
    QueryLists,
    pack_component_tuples,
)
from .source import KeywordImpact, impact_from_postings


class InvertedIndex:
    """word -> sorted list of Dewey codes of keyword nodes.

    This is the in-memory reference implementation of the
    :class:`~repro.index.source.PostingSource` protocol; the disk-backed
    sources in :mod:`repro.storage.posting_source` must agree with it
    keyword by keyword (enforced by ``tests/test_backend_parity.py``).

    Words are normalized by :data:`~repro.text.DEFAULT_TOKENIZER`, the
    tokenizer :meth:`Query.parse` uses: an index and its queries must
    tokenize alike, or matches are silently lost.

    Every posting list is stored as flat
    :class:`~repro.index.packed.PackedDeweyList` columns, which the SLCA/RTF
    hot loops consume without materializing :class:`DeweyCode` objects.

    The build records each node's cID (Section 4.1) and keeps no word set;
    nothing writes the index after the build, so engines may share it.
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self._nodes = tree.node_table
        self._cids: Dict[DeweyCode, Tuple[str, str]] = {}
        self._postings: Dict[str, PackedDeweyList] = {}
        self._build()

    def _build(self) -> None:
        postings: Dict[str, List[DeweyCode]] = {}
        # One object per distinct word, cID pair and offsets column, shared
        # by every node and posting list holding it, through tables that
        # live only for the build.
        shared: Dict[str, str] = {}
        pairs: Dict[Tuple[str, str], Tuple[str, str]] = {}
        columns: Dict[bytes, "array[int]"] = {}
        for node in self.tree.iter_preorder():
            dewey = node.dewey
            words = [shared.setdefault(word, word)
                     for word in DEFAULT_TOKENIZER.word_set(node.raw_strings())]
            cid = content_id(words)
            self._cids[dewey] = pairs.setdefault(cid, cid)
            for word in words:
                postings.setdefault(word, []).append(dewey)
        # iter_preorder yields document order, so the per-word lists are
        # already sorted and duplicate-free (word_set has no duplicates).
        self._postings = {
            word: pack_component_tuples(deweys, presorted=True, shared=columns)
            for word, deweys in postings.items()}

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def keyword_nodes(self, keywords: Iterable[str]) -> QueryLists:
        """The ``D_i`` lists for every keyword of a query (getKeywordNodes).

        The result maps each normalized keyword, taken as given, to its
        sorted Dewey list; keywords with no match map to an empty list.  The
        shared immutable columns themselves are returned (they are never
        mutated), in a fresh :class:`~repro.index.packed.QueryLists` per
        query.
        """
        postings = self._postings
        return QueryLists((keyword, postings.get(keyword, EMPTY_PACKED))
                          for keyword in keywords)

    def impact(self, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one normalized keyword.

        The memory backend has no shred-time metadata to read back, so the
        impact is derived from the resident posting list.  The corpus engine
        keeps it in its per-keyword tables, so it is not cached here.
        """
        return impact_from_postings(self._postings.get(keyword, EMPTY_PACKED))

    @property
    def source_id(self) -> str:
        """Backend identity used in query-cache keys."""
        return "memory"

    def node_label(self, dewey: DeweyCode) -> Optional[str]:
        """The label of one node, or ``None`` when the code is absent (one
        read of the tree's node table)."""
        node = self._nodes.get(dewey)
        return node.label if node is not None else None

    def node_cid(self, dewey: DeweyCode) -> Tuple[str, str]:
        """The cID of one node, recorded by the build."""
        return self._cids.get(dewey, EMPTY_CID)

    def vocabulary(self) -> List[str]:
        """Every indexed word, sorted."""
        return sorted(self._postings)

    def packed_postings(self) -> Iterator[Tuple[str, PackedDeweyList]]:
        """Every ``(word, packed Dewey list)`` pair, sorted by word (the
        rows the sqlite shredder serializes)."""
        return ((word, self._postings[word]) for word in self.vocabulary())

    def vocabulary_size(self) -> int:
        """Number of distinct indexed words."""
        return len(self._postings)

    def total_postings(self) -> int:
        """Total number of (word, node) pairs in the index."""
        return sum(len(posting) for posting in self._postings.values())

    def __repr__(self) -> str:
        return (f"InvertedIndex(words={self.vocabulary_size()}, "
                f"postings={self.total_postings()})")

