"""Pure-Python in-memory backend for the shredded relational store.

The in-memory backend keeps the three tables as dictionaries and serves the
same query interface as the sqlite backend; it is the default for tests and
small documents, and its behaviour is property-checked against the sqlite
backend in the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..index.source import KeywordImpact, impact_from_postings
from ..text import DEFAULT_TOKENIZER, Tokenizer
from ..xmltree import DeweyCode, XMLTree
from .errors import DocumentAlreadyStored, DocumentNotFound
from .schema import decode_dewey, encode_dewey
from .shredder import ShreddedDocument, shred_tree


class MemoryStore:
    """In-memory implementation of the shredded document store."""

    def __init__(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER):
        self.tokenizer = tokenizer
        self._documents: Dict[str, ShreddedDocument] = {}
        self._keyword_index: Dict[Tuple[str, str], List[str]] = {}
        self._node_words: Dict[str, Dict[str, set]] = {}
        self._elements: Dict[str, Dict[str, Tuple[str, Tuple[str, str]]]] = {}

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def store_tree(self, tree: XMLTree, name: str = "") -> ShreddedDocument:
        """Shred and store one document; returns the shredded rows."""
        shredded = shred_tree(tree, name, self.tokenizer)
        return self.store_shredded(shredded)

    def store_shredded(self, shredded: ShreddedDocument) -> ShreddedDocument:
        """Store already-shredded rows."""
        if shredded.name in self._documents:
            raise DocumentAlreadyStored(f"document {shredded.name!r} already stored")
        self._documents[shredded.name] = shredded
        for row in shredded.values:
            key = (shredded.name, row.keyword)
            self._keyword_index.setdefault(key, []).append(row.dewey)
        for postings in self._keyword_index.values():
            postings.sort()
        return shredded

    def drop_document(self, name: str) -> None:
        """Remove one document and its index entries."""
        self._require(name)
        del self._documents[name]
        self._node_words.pop(name, None)
        self._elements.pop(name, None)
        for key in [key for key in self._keyword_index if key[0] == name]:
            del self._keyword_index[key]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def documents(self) -> List[str]:
        """Names of the stored documents."""
        return sorted(self._documents)

    def document_stats(self, name: str) -> Dict[str, int]:
        """Node / value / label counts of one document."""
        shredded = self._require(name)
        return {
            "nodes": shredded.node_count,
            "values": shredded.value_count,
            "labels": len(shredded.labels),
        }

    def keyword_deweys(self, name: str, keyword: str) -> List[DeweyCode]:
        """Sorted Dewey codes of the nodes containing ``keyword``."""
        self._require(name)
        normalized = self.tokenizer.normalize_keyword(keyword)
        encoded = self._keyword_index.get((name, normalized), [])
        unique = sorted(set(encoded))
        return [DeweyCode(decode_dewey(text)) for text in unique]

    def keyword_nodes(self, name: str, keywords: Iterable[str]
                      ) -> Dict[str, List[DeweyCode]]:
        """The ``D_i`` posting lists for a whole query."""
        result: Dict[str, List[DeweyCode]] = {}
        for keyword in self.tokenizer.normalize_query(keywords):
            result[keyword] = self.keyword_deweys(name, keyword)
        return result

    def keyword_frequency(self, name: str, keyword: str) -> int:
        """Number of nodes containing ``keyword``."""
        return len(self.keyword_deweys(name, keyword))

    def keyword_impact(self, name: str, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one keyword (lazy).

        The in-memory store keeps no derived metadata, so this is always
        the posting-list fallback — the definition the shred-time sqlite
        column must agree with (enforced by the backend-parity suite).
        """
        return impact_from_postings(self.keyword_deweys(name, keyword))

    def vocabulary(self, name: str) -> List[str]:
        """Every distinct keyword of one document, sorted."""
        shredded = self._require(name)
        return sorted({row.keyword for row in shredded.values})

    def node_words(self, name: str, dewey: DeweyCode) -> frozenset:
        """The content word set of one node (empty when the code is absent)."""
        self._require(name)
        by_dewey = self._node_words.get(name)
        if by_dewey is None:
            by_dewey = {}
            for row in self._documents[name].values:
                by_dewey.setdefault(row.dewey, set()).add(row.keyword)
            self._node_words[name] = by_dewey
        return frozenset(by_dewey.get(encode_dewey(dewey.components), ()))

    def element_row(self, name: str, dewey: DeweyCode
                    ) -> Optional[Tuple[str, Tuple[str, str]]]:
        """One node's ``(label, cID)`` from its element row, or ``None``."""
        shredded = self._require(name)
        by_dewey = self._elements.get(name)
        if by_dewey is None:
            by_dewey = {row.dewey: (row.label, (row.content_feature_min,
                                                row.content_feature_max))
                        for row in shredded.elements}
            self._elements[name] = by_dewey
        return by_dewey.get(encode_dewey(dewey.components))

    def labels(self, name: str) -> List[str]:
        """The distinct labels of one document."""
        shredded = self._require(name)
        return sorted(row.label for row in shredded.labels)

    def _require(self, name: str) -> ShreddedDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise DocumentNotFound(f"no stored document named {name!r}") from None
