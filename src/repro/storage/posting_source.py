"""The disk-backed :class:`~repro.index.source.PostingSource`: the only
reader of a store's rows.

:class:`SQLitePostingSource` puts one document of a
:class:`~repro.storage.sqlite_backend.SQLiteStore` behind the same
posting-list interface the in-memory
:class:`~repro.index.inverted.InvertedIndex` serves, so one
:class:`~repro.core.engine.SearchEngine` can run over either — the
EMBANKS-style disk-based retrieval setup of the paper's Section 5, without the
full document resident in RAM.  At its first read the source resolves the
document's live location (the base tables, or the delta segment of its
newest update) and pins it, so every later read serves that one generation;
no other code reads a store's rows.

The source is lazy: nothing is fetched at construction.  Each keyword loads
as **one** packed blob from the ``posting`` table, a query's uncached lists
come in one batched ``IN (...)`` statement (the path the engine's
``search_many`` funnels a whole workload's keyword union through), and
packed lists and node rows stay in LRUs so hot keywords and nodes pay the
round-trip once.  Every list is a :class:`~repro.index.packed.PackedDeweyList`
that satisfies the parity contract: strictly sorted in document order,
duplicate-free, and identical to the memory backend's
(``tests/test_backend_parity.py`` / ``tests/test_posting_properties.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Sized, Tuple

from ..index import PostingList
from ..index.source import EMPTY_IMPACT, KeywordImpact, impact_from_postings
from ..index.packed import EMPTY_PACKED, PackedDeweyList
from ..text import DEFAULT_TOKENIZER, EMPTY_CID
from ..xmltree import DeweyCode
from .schema import encode_dewey
from .sqlite_backend import BASE_GENERATION, SQLiteStore, generation_rows

#: Default capacity of the per-keyword decoded-posting-list LRU.
DEFAULT_POSTING_LRU_SIZE = 256

#: Capacity of the per-node element-row LRU.
DEFAULT_NODE_LRU_SIZE = 8192

#: Batched ``IN (...)`` statements stay under sqlite's default host-variable
#: limit (999 in older builds) by chunking at this size; the scope filter's
#: parameters (at most two) ride on top of each chunk.
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
    :meth:`_scope` names: those of the generation the document lived in at
    the source's first read.  After a mutation, build a fresh source (the
    corpus and service layers rebuild their engines).

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
        # One element row per node: ``(label, cID)``, or ``None`` if absent.
        self._elements: "OrderedDict[DeweyCode, Optional[ElementRow]]" = OrderedDict()
        # The pinned live location and its rows, set by the first _scope().
        self._location: Optional[int] = None
        self._rows: Optional[Tuple[str, str, Tuple[object, ...]]] = None
        self.lru_hits = 0
        self.lru_misses = 0
        # Read accounting (pre-aggregated per fetch, harvested per query by
        # the instrumented pipeline through :meth:`read_stats`).
        self.bytes_read = 0
        self.packed_fetches = 0
        # Fetched keywords served from a delta segment vs the base tables.
        self.segment_reads = 0
        self.base_reads = 0

    # ------------------------------------------------------------------ #
    # PostingSource protocol
    # ------------------------------------------------------------------ #
    @property
    def source_id(self) -> str:
        """Backend identity: the database path, the document and the pinned
        generation.

        A segment id is unique only between compactions: ``compact()``
        empties the segment catalogue, so the next update reuses id 1 and
        two versions of a document can share one id.  The id is safe as a
        cache key only because no cache outlives its engine, and every
        mutation rebuilds the engines.
        """
        self._scope()
        return f"sqlite:{self.store.path}#{self.document}@g{self._location}"

    def postings(self, keyword: str) -> PostingList:
        """The posting list of one (raw, un-normalized) keyword."""
        normalized = DEFAULT_TOKENIZER.normalize_keyword(keyword)
        return PostingList(normalized, self._deweys(normalized))

    def keyword_nodes(self, query: Iterable[str]) -> Dict[str, PackedDeweyList]:
        """Batched ``getKeywordNodes``: one ``IN (...)`` fetch for all misses.

        The batch statement reads whole blobs from the ``posting`` table (one
        row per LRU-missed keyword); the immutable cached columns themselves
        are returned.
        """
        normalized = DEFAULT_TOKENIZER.normalize_query(query)
        result, missing = self._split_cached(normalized)
        if missing:
            fetched = self._fetch_blob_rows(missing)
            for keyword in missing:
                packed = fetched.get(keyword, EMPTY_PACKED)
                self._lru_put(keyword, packed)
                result[keyword] = packed
        return {keyword: result[keyword] for keyword in normalized}

    def frequency(self, keyword: str) -> int:
        """Number of keyword nodes containing ``keyword`` (its impact's
        posting count)."""
        return self.impact(DEFAULT_TOKENIZER.normalize_keyword(keyword)).count

    def impact(self, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one normalized keyword.

        An LRU-resident posting list answers locally; otherwise the
        shred-time ``cardinality`` and ``max_depth`` columns of one
        ``posting`` row of this source's scope answer, without a blob.
        """
        cached = self._lru_get(keyword)
        if cached is not None:
            return impact_from_postings(cached)
        prefix, where, scope = self._scope()
        row = self.store._connection.execute(
            f"SELECT cardinality, max_depth FROM {prefix}posting "
            f"WHERE {where} AND keyword = ?", (*scope, keyword)).fetchone()
        if row is None:
            return EMPTY_IMPACT
        return KeywordImpact(count=int(row[0]), max_depth=int(row[1]))

    def vocabulary(self) -> List[str]:
        """Every indexed word of the document, sorted."""
        prefix, where, scope = self._scope()
        cursor = self.store._connection.execute(
            f"SELECT keyword FROM {prefix}posting WHERE {where} "
            f"ORDER BY keyword", scope)
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
        """One node's ``(label, cID)``, LRU-cached (absence is cached too)."""
        cached = self._elements.get(dewey, _MISSING)
        if cached is not _MISSING:
            self._elements.move_to_end(dewey)
            return cached
        row = self._fetch_elements([dewey])[dewey]
        self._cache_element(dewey, row)
        return row

    def prefetch_nodes(self, nodes: Iterable[DeweyCode],
                       keyword_nodes: Iterable[DeweyCode]) -> None:
        """Warm the element-row cache ahead of record-tree construction.

        Fetches the missing element rows of ``nodes`` in chunked ``IN
        (...)`` statements instead of one per node, caching absent codes
        too.  ``keyword_nodes`` is unused (a cID rides on its element row);
        it stays because ``benchmarks/e2e/tracing.py``'s traced source
        forwards two positional arguments.
        """
        missing = [dewey for dewey in nodes if dewey not in self._elements]
        for dewey, row in self._fetch_elements(missing).items():
            self._cache_element(dewey, row)

    def read_stats(self) -> Dict[str, int]:
        """Cumulative read counters of this source (cache traffic, blob
        fetches, bytes, and the generation each fetched keyword came from)."""
        return {
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "bytes": self.bytes_read,
            "packed_fetches": self.packed_fetches,
            "segment_reads": self.segment_reads,
            "base_reads": self.base_reads,
        }

    # ------------------------------------------------------------------ #
    # LRU plumbing
    # ------------------------------------------------------------------ #
    def _deweys(self, normalized: str) -> PackedDeweyList:
        cached = self._lru_get(normalized)
        if cached is not None:
            return cached
        packed = self._fetch_blob_rows([normalized]).get(normalized,
                                                         EMPTY_PACKED)
        self._lru_put(normalized, packed)
        return packed

    def _split_cached(self, normalized: List[str]
                      ) -> Tuple[Dict[str, PackedDeweyList], List[str]]:
        """Partition a query into LRU-answered results and missed keywords."""
        result: Dict[str, PackedDeweyList] = {}
        missing: List[str] = []
        for keyword in normalized:
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

    def _cache_element(self, dewey: DeweyCode,
                       row: Optional[ElementRow]) -> None:
        cache = self._elements
        cache[dewey] = row
        cache.move_to_end(dewey)
        while len(cache) > DEFAULT_NODE_LRU_SIZE:
            cache.popitem(last=False)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.source_id!r}, "
                f"lru={len(self._lru)}/{self.lru_size})")

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _scope(self) -> Tuple[str, str, Tuple[object, ...]]:
        """The rows this source reads: ``(table prefix, row filter, filter
        parameters)``, spliced into every statement this source runs.

        The first call resolves the document's live location and pins it,
        so every read of one source, batched or single-row, sees one
        generation: the base tables, or one delta segment's ``segment_*``
        tables.  An absent or tombstoned document raises
        :class:`~repro.storage.errors.DocumentNotFound` instead of
        answering with empty lists.
        """
        if self._rows is None:
            self._location = self.store._live_location(self.document)
            self._rows = generation_rows(self.document, self._location)
        return self._rows

    def _fetch_blob_rows(self, missing: Sequence[str]
                         ) -> Dict[str, PackedDeweyList]:
        """Rebuilt packed columns per keyword, one chunked ``IN`` batch."""
        prefix, where, scope = self._scope()
        fetched: Dict[str, PackedDeweyList] = {}
        blob_bytes = 0
        for chunk in _chunked(missing):
            cursor = self.store._connection.execute(
                f"SELECT keyword, blob FROM {prefix}posting "
                f"WHERE {where} AND keyword IN ({_placeholders(chunk)})",
                (*scope, *chunk),
            )
            for keyword, blob in cursor:
                fetched[keyword] = PackedDeweyList.from_blob(blob)
                blob_bytes += len(blob)
        self.bytes_read += blob_bytes
        self.packed_fetches += len(fetched)
        if self._location == BASE_GENERATION:
            self.base_reads += len(fetched)
        else:
            self.segment_reads += len(fetched)
        return fetched

    def _fetch_elements(self, deweys: Sequence[DeweyCode]
                            ) -> Dict[DeweyCode, Optional[ElementRow]]:
        """Element rows of ``deweys`` in chunked ``IN (...)`` statements.

        The statement reads each node's label and stored cID together.
        """
        prefix, where, scope = self._scope()
        rows: Dict[DeweyCode, Optional[ElementRow]] = {}
        for chunk in _chunked(deweys):
            encoded = {encode_dewey(dewey): dewey for dewey in chunk}
            found = {dewey_text: (label, (low, high))
                     for dewey_text, label, low, high in
                     self.store._connection.execute(
                         f"SELECT dewey, label, content_feature_min, "
                         f"content_feature_max FROM {prefix}element "
                         f"WHERE {where} AND dewey IN "
                         f"({_placeholders(encoded)})",
                         (*scope, *encoded))}
            for dewey_text, dewey in encoded.items():
                rows[dewey] = found.get(dewey_text)
        return rows


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
