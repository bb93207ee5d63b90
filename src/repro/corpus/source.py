"""Doc-partitioned corpus posting sources.

A corpus is **N per-document posting column sets keyed by doc id**, not one
fused column set with a doc-id component baked into every posting.  The
reasons, in order:

* LCA semantics never cross a document boundary, so every query is going to
  run the SLCA/ELCA/RTF hot loops per document anyway — a fused cross-corpus
  posting list would be split right back apart before stage 2, after paying
  an extra component on every comparison and ancestor test.
* Incremental ingestion (``repro.cli index --add``) appends one new column
  set without rewriting any existing one.
* The per-document sources are the existing, already-parity-tested backends
  (:class:`~repro.index.inverted.InvertedIndex`, the sqlite/segmented
  sources), reused unchanged.

The corpus still honours the :class:`~repro.index.source.PostingSource`
protocol: corpus-wide posting lists are served as the concatenation of the
per-document lists, each prefixed with the document's ordinal
(:func:`~repro.index.packed.prefix_packed`), which keeps the "strictly
sorted, duplicate-free" invariant because ordinals strictly increase in
doc-id order.  Node lookups route on the ordinal component.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..index import InvertedIndex, PostingList, PostingSource
from ..index.packed import (
    EMPTY_PACKED,
    PackedDeweyList,
    concat_packed,
    prefix_packed,
)
from ..storage import (
    DEFAULT_POSTING_LRU_SIZE,
    MemoryStore,
    SQLiteStore,
    source_for_store,
)
from ..storage.errors import DocumentNotFound
from ..text import EMPTY_CID
from ..xmltree import DeweyCode, XMLTree

#: Per-document backends :func:`corpus_from_trees` can build.
CORPUS_DOC_BACKENDS = ("memory", "sqlite")


def unknown_documents_error(unknown: Sequence[str],
                            stored: Sequence[str]) -> DocumentNotFound:
    """The one error every corpus layer raises for unknown doc ids."""
    label = "document" if len(unknown) == 1 else "document(s)"
    return DocumentNotFound(
        f"no corpus {label} named {', '.join(unknown)}; "
        f"stored: {', '.join(stored)}")


class CorpusPostingSource:
    """Posting source over many documents, partitioned by document.

    Parameters
    ----------
    documents:
        Mapping of doc id to that document's
        :class:`~repro.index.source.PostingSource`.  Doc ids are sorted; the
        position of a doc id in the sorted order is its **ordinal**, the
        component prefixed onto corpus-wide Dewey codes.
    """

    def __init__(self, documents: Mapping[str, PostingSource]) -> None:
        items = sorted(dict(documents).items())
        if not items:
            raise ValueError("a corpus needs at least one document")
        self.doc_ids: Tuple[str, ...] = tuple(doc_id for doc_id, _ in items)
        self._sources = dict(items)
        self._ordinals = {doc_id: ordinal
                          for ordinal, doc_id in enumerate(self.doc_ids)}
        self.tokenizer = getattr(items[0][1], "tokenizer", None)
        if self.tokenizer is None:
            from ..text import DEFAULT_TOKENIZER
            self.tokenizer = DEFAULT_TOKENIZER

    # ------------------------------------------------------------------ #
    # Corpus accessors
    # ------------------------------------------------------------------ #
    def document_source(self, doc_id: str) -> PostingSource:
        """The per-document posting source of one doc id."""
        try:
            return self._sources[doc_id]
        except KeyError:
            raise unknown_documents_error([doc_id], self.doc_ids) from None

    def ordinal_of(self, doc_id: str) -> int:
        """The ordinal prefixed onto this document's corpus-wide codes."""
        try:
            return self._ordinals[doc_id]
        except KeyError:
            raise unknown_documents_error([doc_id], self.doc_ids) from None

    def __len__(self) -> int:
        return len(self.doc_ids)

    # ------------------------------------------------------------------ #
    # PostingSource protocol (corpus-wide, doc-ordinal-prefixed)
    # ------------------------------------------------------------------ #
    @property
    def source_id(self) -> str:
        """Composite identity of the corpus."""
        inner = ",".join(
            f"{doc_id}={self._sources[doc_id].source_id}"
            for doc_id in self.doc_ids)
        return f"corpus[{inner}]"

    def postings(self, keyword: str) -> PostingList:
        """The corpus-wide, doc-ordinal-prefixed posting list of one keyword.

        Per-document prefixed lists are already globally sorted (ordinals
        strictly increase), so they are stitched with
        :func:`~repro.index.packed.concat_packed`, never merged.
        """
        normalized = self.tokenizer.normalize_keyword(keyword)
        return PostingList(normalized, concat_packed([
            prefix_packed(self._sources[doc_id].postings(normalized).deweys,
                          self._ordinals[doc_id])
            for doc_id in self.doc_ids]))

    def keyword_nodes(self, query: Iterable[str]) -> Dict[str, PackedDeweyList]:
        """Corpus-wide ``D_i`` lists, one batched fetch per document."""
        normalized = self.tokenizer.normalize_query(query)
        per_doc = {doc_id: self._sources[doc_id].keyword_nodes(normalized)
                   for doc_id in self.doc_ids}
        return {
            keyword: concat_packed([
                prefix_packed(per_doc[doc_id].get(keyword, EMPTY_PACKED),
                              self._ordinals[doc_id])
                for doc_id in self.doc_ids])
            for keyword in normalized
        }

    def frequency(self, keyword: str) -> int:
        """Corpus-wide keyword-node count (documents partition the corpus)."""
        return sum(self._sources[doc_id].frequency(keyword)
                   for doc_id in self.doc_ids)

    def vocabulary(self) -> List[str]:
        """Sorted union of every document's vocabulary."""
        words = set()
        for doc_id in self.doc_ids:
            words.update(self._sources[doc_id].vocabulary())
        return sorted(words)

    def node_label(self, dewey: DeweyCode) -> Optional[str]:
        """The label of one corpus node (routed on the ordinal component)."""
        routed = self._route(dewey)
        if routed is None:
            return None
        source, inner = routed
        return source.node_label(inner)

    def node_cid(self, dewey: DeweyCode) -> Tuple[str, str]:
        """The cID of one corpus node."""
        routed = self._route(dewey)
        if routed is None:
            return EMPTY_CID
        source, inner = routed
        return source.node_cid(inner)

    def node_words(self, dewey: DeweyCode) -> FrozenSet[str]:
        """The content word set of one corpus node."""
        routed = self._route(dewey)
        if routed is None:
            return frozenset()
        source, inner = routed
        return source.node_words(inner)

    def prefetch_nodes(self, nodes: Iterable[DeweyCode],
                       keyword_nodes: Iterable[DeweyCode]) -> None:
        """Strip ordinals and let each document's source batch its subset."""
        node_buckets: Dict[int, List[DeweyCode]] = {}
        keyword_buckets: Dict[int, List[DeweyCode]] = {}
        for dewey in nodes:
            routed = self._route(dewey)
            if routed is not None:
                node_buckets.setdefault(dewey.components[0],
                                        []).append(routed[1])
        for dewey in keyword_nodes:
            routed = self._route(dewey)
            if routed is not None:
                keyword_buckets.setdefault(dewey.components[0],
                                           []).append(routed[1])
        for ordinal in sorted(set(node_buckets) | set(keyword_buckets)):
            source = self._sources[self.doc_ids[ordinal]]
            prefetch = getattr(source, "prefetch_nodes", None)
            if prefetch is not None:
                prefetch(node_buckets.get(ordinal, ()),
                         keyword_buckets.get(ordinal, ()))

    # ------------------------------------------------------------------ #
    def _route(self, dewey: DeweyCode
               ) -> Optional[Tuple[PostingSource, DeweyCode]]:
        """``(source, inner code)`` of a corpus-wide code, or ``None``."""
        components = dewey.components
        if len(components) < 2 or not 0 <= components[0] < len(self.doc_ids):
            return None
        source = self._sources[self.doc_ids[components[0]]]
        return source, DeweyCode._from_tuple(components[1:])

    def __repr__(self) -> str:
        return f"CorpusPostingSource(documents={len(self.doc_ids)})"


# ---------------------------------------------------------------------- #
# Construction helpers
# ---------------------------------------------------------------------- #
def corpus_from_trees(trees: Mapping[str, XMLTree], backend: str = "memory",
                      lru_size: int = DEFAULT_POSTING_LRU_SIZE
                      ) -> CorpusPostingSource:
    """Build a corpus source by ingesting one tree per doc id.

    ``backend`` selects the per-document source kind: ``memory`` builds one
    :class:`InvertedIndex` per document; ``sqlite`` stores every document
    whole into **one** in-process store and serves it through
    :func:`corpus_from_store`, the layout a database-served corpus runs.
    """
    if backend not in CORPUS_DOC_BACKENDS:
        raise ValueError(f"unknown corpus document backend {backend!r}; "
                         f"expected one of {CORPUS_DOC_BACKENDS}")
    if not trees:
        raise ValueError("a corpus needs at least one document")
    doc_ids = sorted(trees)
    if backend == "memory":
        return CorpusPostingSource({doc_id: InvertedIndex(trees[doc_id])
                                    for doc_id in doc_ids})
    store = SQLiteStore()
    for doc_id in doc_ids:
        store.store_tree(trees[doc_id], doc_id)
    return corpus_from_store(store, lru_size=lru_size)


def corpus_from_store(store: Union[MemoryStore, SQLiteStore],
                      documents: Optional[Sequence[str]] = None,
                      lru_size: int = DEFAULT_POSTING_LRU_SIZE,
                      ) -> CorpusPostingSource:
    """A corpus source over the documents of one (already-ingested) store.

    ``documents`` defaults to every document the store holds.
    """
    doc_ids = list(documents) if documents is not None else store.documents()
    if not doc_ids:
        raise ValueError("the store holds no indexed documents")
    stored = set(store.documents())
    unknown = sorted(set(doc_ids) - stored)
    if unknown:
        raise unknown_documents_error(unknown, sorted(stored))
    sources = {doc_id: source_for_store(store, doc_id, lru_size)
               for doc_id in doc_ids}
    return CorpusPostingSource(sources)
