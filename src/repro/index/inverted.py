"""Inverted keyword index over an XML tree.

The first stage of both MaxMatch and ValidRTF (``getKeywordNodes``) retrieves,
for each query keyword ``w_i``, the sorted Dewey-code list ``D_i`` of nodes
whose content contains ``w_i``.  This module builds that mapping once per
document so repeated queries only cost a dictionary lookup per keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..text import EMPTY_CID, ContentAnalyzer, DEFAULT_TOKENIZER
from ..xmltree import DeweyCode, XMLTree
from .packed import EMPTY_PACKED, PackedDeweyList, as_packed, pack_deweys
from .source import KeywordImpact, impact_from_postings


@dataclass(frozen=True)
class PostingList:
    """The sorted Dewey codes of the nodes containing one keyword.

    ``deweys`` is always a :class:`~repro.index.packed.PackedDeweyList`:
    immutable packed columns pass through untouched and any other Dewey
    sequence is packed once with :func:`~repro.index.packed.as_packed`, so a
    posting list can never alias — and later observe mutations of — a
    caller's list.
    """

    keyword: str
    deweys: PackedDeweyList

    def __post_init__(self) -> None:
        object.__setattr__(self, "deweys", as_packed(self.deweys))

    def __len__(self) -> int:
        return len(self.deweys)

    def __iter__(self) -> Iterator[DeweyCode]:
        return iter(self.deweys)

    def __bool__(self) -> bool:
        return bool(self.deweys)


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
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self.analyzer = ContentAnalyzer(tree)
        self._nodes = tree.node_table
        self._postings: Dict[str, PackedDeweyList] = {}
        self._impacts: Dict[str, KeywordImpact] = {}
        self._build()

    def _build(self) -> None:
        postings: Dict[str, List[DeweyCode]] = {}
        for node in self.tree.iter_preorder():
            for word in self.analyzer.node_content(node):
                postings.setdefault(word, []).append(node.dewey)
        # iter_preorder yields document order, so the per-word lists are
        # already sorted and duplicate-free (node_content is a set per node).
        self._postings = {word: pack_deweys(deweys, presorted=True)
                          for word, deweys in postings.items()}

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def postings(self, keyword: str) -> PostingList:
        """The posting list for a (raw, un-normalized) keyword."""
        normalized = DEFAULT_TOKENIZER.normalize_keyword(keyword)
        return PostingList(normalized,
                           self._postings.get(normalized, EMPTY_PACKED))

    def keyword_nodes(self, query: Iterable[str]) -> Dict[str, PackedDeweyList]:
        """The ``D_i`` lists for every keyword of a query (getKeywordNodes).

        The result maps each *normalized* keyword to its sorted Dewey list;
        keywords with no match map to an empty list.  The shared immutable
        columns themselves are returned (they are never mutated).
        """
        return {keyword: self._postings.get(keyword, EMPTY_PACKED)
                for keyword in DEFAULT_TOKENIZER.normalize_query(query)}

    def frequency(self, keyword: str) -> int:
        """Number of keyword nodes containing ``keyword``."""
        return len(self.postings(keyword))

    def impact(self, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one normalized keyword.

        The memory backend has no shred-time metadata to read back, so the
        impact is derived from the resident posting list on first request
        and cached — the lazy-compute arm of the ranking metadata seam
        (:func:`repro.index.source.keyword_impact`).
        """
        cached = self._impacts.get(keyword)
        if cached is None:
            cached = impact_from_postings(
                self._postings.get(keyword, EMPTY_PACKED))
            self._impacts[keyword] = cached
        return cached

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
        """The cID of one node, memoized by the analyzer."""
        node = self._nodes.get(dewey)
        return self.analyzer.node_cid(node) if node is not None else EMPTY_CID

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

    def __contains__(self, keyword: str) -> bool:
        return DEFAULT_TOKENIZER.normalize_keyword(keyword) in self._postings

    def __repr__(self) -> str:
        return (f"InvertedIndex(words={self.vocabulary_size()}, "
                f"postings={self.total_postings()})")


def build_index(tree: XMLTree) -> InvertedIndex:
    """Convenience factory mirroring the facade naming used in examples."""
    return InvertedIndex(tree)


def merge_keyword_nodes(lists: Mapping[str, Sequence[DeweyCode]]) -> List[DeweyCode]:
    """Union of all ``D_i`` lists, deduplicated, in document order."""
    merged = {dewey for deweys in lists.values() for dewey in deweys}
    return sorted(merged)
