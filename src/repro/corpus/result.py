"""Doc-id-tagged results of a corpus search.

A corpus query runs the SLCA/ELCA/RTF pipeline **per document** (LCA
semantics never cross a document boundary — two nodes of different documents
have no common ancestor) and unions the per-document answers, so the corpus
result model is a document-ordered sequence of ``(doc id, SearchResult)``
pairs.  The differential fuzz harness (``tests/test_corpus_fuzz.py``)
enforces exactly this contract: a corpus result must equal the union of the
per-document single-document results.

:class:`CorpusSearchResult` also exposes the aggregate accessors of a plain
:class:`~repro.core.fragments.SearchResult` (``fragments``, ``lca_nodes``,
``roots()``, iteration) so the backend-parity harness and the benchmark
drivers can treat corpus engines like any other backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple

from ..core.fragments import PrunedFragment, SearchResult
from ..core.query import Query


@dataclass(frozen=True)
class DocumentResult:
    """One document's contribution to a corpus answer."""

    doc_id: str
    result: SearchResult

    @property
    def count(self) -> int:
        """Number of fragments this document contributed."""
        return self.result.count

    def __repr__(self) -> str:
        return (f"DocumentResult(doc_id={self.doc_id!r}, "
                f"fragments={self.result.count})")


@dataclass(frozen=True)
class CorpusSearchResult:
    """The complete answer of one algorithm run over a corpus.

    ``documents`` holds only the documents that produced at least one
    fragment, sorted in corpus (doc-id) order — documents whose per-document
    result is empty contribute nothing to the union and are omitted, which is
    what keeps a one-document corpus result identical to the single-document
    result (the parity suites rely on this).
    """

    query: Query
    algorithm: str
    documents: Tuple[DocumentResult, ...]
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Corpus accessors
    # ------------------------------------------------------------------ #
    @property
    def doc_ids(self) -> Tuple[str, ...]:
        """The contributing documents, in corpus order."""
        return tuple(entry.doc_id for entry in self.documents)

    def by_doc(self) -> Dict[str, SearchResult]:
        """Mapping doc id -> that document's :class:`SearchResult`."""
        return {entry.doc_id: entry.result for entry in self.documents}

    # ------------------------------------------------------------------ #
    # SearchResult-compatible aggregate accessors
    # ------------------------------------------------------------------ #
    @property
    def fragments(self) -> Tuple[PrunedFragment, ...]:
        """All fragments across documents, in (doc, document-order) order."""
        return tuple(fragment
                     for entry in self.documents
                     for fragment in entry.result.fragments)

    @property
    def lca_nodes(self) -> Tuple:
        """The concatenated per-document interesting LCA lists."""
        return tuple(code
                     for entry in self.documents
                     for code in entry.result.lca_nodes)

    @property
    def count(self) -> int:
        """Total number of result fragments across the corpus."""
        return sum(entry.result.count for entry in self.documents)

    def roots(self) -> Tuple:
        """Every fragment root, in (doc, document-order) order."""
        return tuple(fragment.root for fragment in self.fragments)

    def by_root(self) -> Dict[Tuple[str, object], PrunedFragment]:
        """Mapping ``(doc id, root)`` -> fragment.

        Unlike the single-document form the key carries the doc id: fragment
        roots are only unique *within* a document, and the effectiveness
        metrics pair fragments of two corpus results through these keys.
        """
        return {(entry.doc_id, fragment.root): fragment
                for entry in self.documents
                for fragment in entry.result.fragments}

    def with_timing(self, elapsed_seconds: float) -> "CorpusSearchResult":
        """A copy of the result carrying a measured elapsed time."""
        return replace(self, elapsed_seconds=elapsed_seconds)

    def __iter__(self) -> Iterator[PrunedFragment]:
        return iter(self.fragments)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"CorpusSearchResult(query={self.query!r}, "
                f"algorithm={self.algorithm!r}, documents={len(self.documents)}, "
                f"fragments={self.count})")
