"""Doc-partitioned corpus posting sources.

A corpus is **N per-document posting column sets keyed by doc id**, not one
fused column set with a doc-id component baked into every posting.  The
reasons, in order:

* LCA semantics never cross a document boundary, so every query runs the
  SLCA/ELCA/RTF hot loops per document — a fused cross-corpus posting list
  would be split right back apart before stage 2, after paying an extra
  component on every comparison and ancestor test.
* Incremental ingestion (``repro.cli index --add``) appends one new column
  set without rewriting any existing one.
* The per-document sources are the existing, already-parity-tested backends
  (:class:`~repro.index.inverted.InvertedIndex` and
  :class:`~repro.storage.posting_source.SQLitePostingSource`), reused
  unchanged.

So :class:`CorpusPostingSource` is only a sorted map from doc id to that
document's :class:`~repro.index.source.PostingSource`; it is not itself a
posting source.  A single document is a corpus of one.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..index import InvertedIndex, PostingSource
from ..storage import SQLitePostingSource, SQLiteStore
from ..storage.errors import DocumentNotFound
from ..xmltree import XMLTree


def unknown_documents_error(unknown: Sequence[str],
                            stored: Sequence[str]) -> DocumentNotFound:
    """The one error every corpus layer raises for unknown doc ids."""
    label = "document" if len(unknown) == 1 else "document(s)"
    return DocumentNotFound(
        f"no corpus {label} named {', '.join(unknown)}; "
        f"stored: {', '.join(stored)}")


class CorpusPostingSource:
    """The per-document posting sources of a corpus, in doc-id order.

    Parameters
    ----------
    documents:
        Mapping of doc id to that document's
        :class:`~repro.index.source.PostingSource`.
    """

    def __init__(self, documents: Mapping[str, PostingSource]) -> None:
        items = sorted(dict(documents).items())
        if not items:
            raise ValueError("a corpus needs at least one document")
        self.doc_ids: Tuple[str, ...] = tuple(doc_id for doc_id, _ in items)
        self._sources: Dict[str, PostingSource] = dict(items)

    def document_source(self, doc_id: str) -> PostingSource:
        """The per-document posting source of one doc id."""
        try:
            return self._sources[doc_id]
        except KeyError:
            raise unknown_documents_error([doc_id], self.doc_ids) from None

    @property
    def source_id(self) -> str:
        """Composite identity of the corpus."""
        inner = ",".join(
            f"{doc_id}={self._sources[doc_id].source_id}"
            for doc_id in self.doc_ids)
        return f"corpus[{inner}]"

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:
        return f"CorpusPostingSource(documents={len(self.doc_ids)})"


# ---------------------------------------------------------------------- #
# Construction helpers
# ---------------------------------------------------------------------- #
def corpus_from_trees(trees: Mapping[str, XMLTree]) -> CorpusPostingSource:
    """A memory corpus: one :class:`InvertedIndex` per doc id.

    A disk-backed corpus is a store holding every document, served through
    :func:`corpus_from_store`.
    """
    return CorpusPostingSource({doc_id: InvertedIndex(tree)
                                for doc_id, tree in trees.items()})


def corpus_from_store(store: SQLiteStore,
                      documents: Optional[Sequence[str]] = None
                      ) -> CorpusPostingSource:
    """A corpus source over the live documents of one (already-ingested)
    store: one :class:`SQLitePostingSource` per document, each serving the
    generation its document lives in at its first read.

    ``documents`` defaults to every live document the store holds.
    """
    stored = store.documents()
    doc_ids = list(documents) if documents is not None else stored
    if not doc_ids:
        raise ValueError("the store holds no indexed documents")
    unknown = sorted(set(doc_ids) - set(stored))
    if unknown:
        raise unknown_documents_error(unknown, stored)
    return CorpusPostingSource({doc_id: SQLitePostingSource(store, doc_id)
                                for doc_id in doc_ids})
