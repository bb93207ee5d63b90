"""The disk-backed :class:`~repro.index.source.PostingSource`: the only
reader of a store's rows.

:class:`SQLitePostingSource` puts one document of a
:class:`~repro.storage.sqlite_backend.SQLiteStore` behind the same
posting-list interface the in-memory
:class:`~repro.index.inverted.InvertedIndex` serves, so one
:class:`~repro.core.engine.SearchEngine` can run over either — the
EMBANKS-style disk-based retrieval setup of the paper's Section 5, without the
full document resident in RAM.  At its first read the source resolves the
document's generation with one primary-key read of the catalogue and pins
it, so every statement it runs filters on that one generation; no other
code reads a store's rows.

The source is lazy: nothing is fetched at construction.  Each keyword loads
as **one** packed blob from the ``posting`` table, a query's uncached lists
come in one batched ``IN (...)`` statement, and so do the element rows of
all its fragments' nodes.  Packed lists stay in an LRU and node rows in a
bounded cache, so hot keywords and nodes pay the round-trip once.  Every list
is a :class:`~repro.index.packed.PackedDeweyList` that satisfies the parity
contract: strictly sorted in document order, duplicate-free, and identical
to the memory backend's (``tests/test_backend_parity.py`` /
``tests/test_posting_properties.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Sized, Tuple

from ..index.source import EMPTY_IMPACT, KeywordImpact, impact_from_postings
from ..index.packed import EMPTY_PACKED, PackedDeweyList, QueryLists
from ..text import EMPTY_CID
from ..xmltree import DeweyCode
from .schema import encode_dewey
from .sqlite_backend import SEGMENT_KIND_DOC, SQLiteStore

#: Default capacity of the per-keyword decoded-posting-list LRU.
DEFAULT_POSTING_LRU_SIZE = 256

#: Capacity of the per-node element-row cache, which evicts in insertion
#: order.
DEFAULT_NODE_LRU_SIZE = 8192

#: Batched ``IN (...)`` statements stay under sqlite's default host-variable
#: limit (999 in older builds) by chunking at this size; the generation
#: parameter rides on top of each chunk.
_IN_CHUNK = 400

_MISSING = object()

#: One node's element row: its label and stored cID pair.
ElementRow = Tuple[str, Tuple[str, str]]


class SQLitePostingSource:
    """Disk-backed posting source over one :class:`SQLiteStore` document.

    A multi-keyword :meth:`keyword_nodes` call fetches every LRU-missed
    posting list in a single batched ``SELECT ... WHERE keyword IN (...)``
    statement, and each list is loaded as **one prefix-truncated blob** from
    the ``posting`` table — one row per keyword, rebuilt into flat columns at
    C speed, with no per-posting string decode and no per-posting object.
    Every statement the source runs, batched or single-row, reads the rows
    of the generation :meth:`_scope` pinned: the one the document lived in
    at the source's first read.  After a mutation, build a fresh source
    (the corpus and service layers rebuild their engines).

    Parameters
    ----------
    store:
        The :class:`SQLiteStore` holding the document.
    document:
        Name of the stored document to serve.
    lru_size:
        Capacity of the per-keyword LRU of packed posting lists; ``0``
        disables caching (every lookup goes back to the store).
    """

    def __init__(self, store: SQLiteStore, document: str,
                 lru_size: int = DEFAULT_POSTING_LRU_SIZE):
        self.store = store
        self.document = document
        self.lru_size = lru_size
        self._lru: "OrderedDict[str, PackedDeweyList]" = OrderedDict()
        # One element row per node: ``(label, cID)``, or ``None`` if absent,
        # in insertion order; a hit does not reorder it.
        self._elements: Dict[DeweyCode, Optional[ElementRow]] = {}
        # The pinned generation, set by the first _scope().
        self._generation: Optional[int] = None
        # Whether a pending ``doc`` event of the log wrote that generation,
        # read once, by the first read_stats() after a fetch.
        self._from_segment: Optional[bool] = None
        self.lru_hits = 0
        self.lru_misses = 0
        # Read accounting (pre-aggregated per fetch, harvested per query by
        # the instrumented pipeline through :meth:`read_stats`).
        self.bytes_read = 0
        self.packed_fetches = 0

    # ------------------------------------------------------------------ #
    # PostingSource protocol
    # ------------------------------------------------------------------ #
    @property
    def source_id(self) -> str:
        """Backend identity: the database path, the document and the pinned
        generation.  The file never reuses a generation number, so two
        versions of a document never share an id, compactions included.
        """
        return f"sqlite:{self.store.path}#{self.document}@g{self._scope()}"

    def keyword_nodes(self, keywords: Iterable[str]) -> QueryLists:
        """Batched ``getKeywordNodes``: one ``IN (...)`` fetch for all misses.

        ``keywords`` are taken as normalized.  The batch statement reads
        whole blobs from the ``posting`` table (one row per LRU-missed
        keyword); the immutable cached columns themselves are returned, in a
        fresh :class:`QueryLists` per query.
        """
        keywords = list(keywords)
        result, missing = self._split_cached(keywords)
        if missing:
            fetched = self._fetch_blob_rows(missing)
            for keyword in missing:
                packed = fetched.get(keyword, EMPTY_PACKED)
                self._lru_put(keyword, packed)
                result[keyword] = packed
        return QueryLists((keyword, result[keyword]) for keyword in keywords)

    def impact(self, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one normalized keyword.

        An LRU-resident posting list answers locally; otherwise the
        shred-time ``cardinality`` and ``max_depth`` columns of one
        ``posting`` row of this source's scope answer, without a blob.
        """
        cached = self._lru_get(keyword)
        if cached is not None:
            return impact_from_postings(cached)
        row = self.store._connection.execute(
            "SELECT cardinality, max_depth FROM posting "
            "WHERE generation = ? AND keyword = ?",
            (self._scope(), keyword)).fetchone()
        if row is None:
            return EMPTY_IMPACT
        return KeywordImpact(count=int(row[0]), max_depth=int(row[1]))

    def vocabulary(self) -> List[str]:
        """Every indexed word of the document, sorted."""
        cursor = self.store._connection.execute(
            "SELECT keyword FROM posting WHERE generation = ? "
            "ORDER BY keyword", (self._scope(),))
        return [keyword for (keyword,) in cursor]

    def node_label(self, dewey: DeweyCode) -> Optional[str]:
        """The label of one node, or ``None`` when the code is absent."""
        row = self._element(dewey)
        return row[0] if row is not None else None

    def node_cid(self, dewey: DeweyCode) -> Tuple[str, str]:
        """The cID of one node, stored in its element row."""
        row = self._element(dewey)
        return row[1] if row is not None else EMPTY_CID

    def _element(self, dewey: DeweyCode) -> Optional[ElementRow]:
        """One node's ``(label, cID)``, cached (absence is cached too)."""
        cached = self._elements.get(dewey, _MISSING)
        if cached is _MISSING:
            self._fetch_elements([dewey])
            cached = self._elements[dewey]
        return cached

    def prefetch_nodes(self, nodes: Iterable[DeweyCode],
                       keyword_nodes: Iterable[DeweyCode]) -> None:
        """Warm the element-row cache ahead of record-tree construction.

        Fetches the missing element rows of ``nodes`` in chunked ``IN
        (...)`` statements instead of one per node, caching absent codes
        too.  The pipeline calls it once per query, with the nodes of all
        its fragments.  ``keyword_nodes`` is unused (a cID rides on its
        element row); it stays because ``benchmarks/e2e/tracing.py``'s
        traced source forwards two positional arguments.
        """
        cache = self._elements
        missing = [dewey for dewey in nodes if dewey not in cache]
        if missing:
            self._fetch_elements(missing)

    def read_stats(self) -> Dict[str, int]:
        """Cumulative read counters of this source (cache traffic, blob
        fetches, bytes, and the generation each fetched keyword came from).

        A fetched keyword is a ``segment_reads`` one when a pending ``doc``
        event of the log wrote the pinned generation (an update not yet
        compacted), else a ``base_reads`` one.  The log is read once per
        source, here, so an unobserved search never reads it.
        """
        fetched = self.packed_fetches
        if fetched and self._from_segment is None:
            self._from_segment = bool(self.store._scalar(
                "SELECT COUNT(*) FROM segment WHERE segment_id = ? "
                "AND kind = ?", self._scope(), SEGMENT_KIND_DOC))
        segment_reads = fetched if self._from_segment else 0
        return {
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "bytes": self.bytes_read,
            "packed_fetches": fetched,
            "segment_reads": segment_reads,
            "base_reads": fetched - segment_reads,
        }

    # ------------------------------------------------------------------ #
    # LRU plumbing
    # ------------------------------------------------------------------ #
    def _split_cached(self, keywords: List[str]
                      ) -> Tuple[Dict[str, PackedDeweyList], List[str]]:
        """Partition a query into LRU-answered results and missed keywords."""
        result: Dict[str, PackedDeweyList] = {}
        missing: List[str] = []
        for keyword in keywords:
            cached = self._lru_get(keyword)
            if cached is not None:
                result[keyword] = cached
            elif keyword not in missing:
                missing.append(keyword)
        return result, missing

    def _lru_get(self, normalized: str) -> Optional[PackedDeweyList]:
        cached = self._lru.get(normalized)
        if cached is None:
            self.lru_misses += 1
            return None
        self._lru.move_to_end(normalized)
        self.lru_hits += 1
        return cached

    def _lru_put(self, normalized: str, deweys: PackedDeweyList) -> None:
        if self.lru_size <= 0:
            return
        self._lru[normalized] = deweys
        self._lru.move_to_end(normalized)
        while len(self._lru) > self.lru_size:
            self._lru.popitem(last=False)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.source_id!r}, "
                f"lru={len(self._lru)}/{self.lru_size})")

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _scope(self) -> int:
        """The generation this source reads, spliced into every statement
        it runs.

        The first call resolves the document's generation (one
        primary-key read of the catalogue) and pins it, so every read of
        one source, batched or single-row, sees one version of the
        document.  An absent or deleted document raises
        :class:`~repro.storage.errors.DocumentNotFound` instead of
        answering with empty lists.
        """
        if self._generation is None:
            self._generation = self.store._live_location(self.document)
        return self._generation

    def _fetch_blob_rows(self, missing: Sequence[str]
                         ) -> Dict[str, PackedDeweyList]:
        """Rebuilt packed columns per keyword, one chunked ``IN`` batch."""
        generation = self._scope()
        fetched: Dict[str, PackedDeweyList] = {}
        blob_bytes = 0
        for chunk in _chunked(missing):
            cursor = self.store._connection.execute(
                "SELECT keyword, blob FROM posting WHERE generation = ? "
                f"AND keyword IN ({_placeholders(chunk)})",
                (generation, *chunk),
            )
            for keyword, blob in cursor:
                fetched[keyword] = PackedDeweyList.from_blob(blob)
                blob_bytes += len(blob)
        self.bytes_read += blob_bytes
        self.packed_fetches += len(fetched)
        return fetched

    def _fetch_elements(self, deweys: Sequence[DeweyCode]) -> None:
        """Cache the element rows of ``deweys`` (``None`` for an absent
        code), fetched in chunked ``IN (...)`` statements that read each
        node's label and stored cID together.

        Room is made first, by evicting the oldest entries, so no row of
        this fetch is evicted by it: a query's rows stay until its record
        trees are built, even where they alone exceed the bound.
        """
        generation = self._scope()
        cache = self._elements
        excess = len(cache) + len(deweys) - DEFAULT_NODE_LRU_SIZE
        if excess > 0:
            for dewey in list(islice(cache, excess)):
                del cache[dewey]
        connection = self.store._connection
        for chunk in _chunked(deweys):
            encoded = {encode_dewey(dewey): dewey for dewey in chunk}
            rows = connection.execute(
                "SELECT dewey, label, content_feature_min, "
                "content_feature_max FROM element WHERE generation = ? "
                f"AND dewey IN ({_placeholders(encoded)})",
                (generation, *encoded)).fetchall()
            # Only a statement that succeeded caches absences.
            cache.update(dict.fromkeys(encoded.values()))
            for dewey_text, label, low, high in rows:
                cache[encoded[dewey_text]] = (label, (low, high))


# ---------------------------------------------------------------------- #
# Adapter helpers
# ---------------------------------------------------------------------- #
def _chunked(items: Sequence[DeweyCode],
             size: int = _IN_CHUNK) -> Iterable[Sequence[DeweyCode]]:
    """Split a sequence into ``IN (...)``-sized chunks."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _placeholders(values: Sized) -> str:
    """The ``?,?,...`` placeholder list of one ``IN (...)`` chunk."""
    return ",".join("?" * len(values))
