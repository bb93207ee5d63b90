"""Segmented incremental updates: add/update/delete documents without re-shredding.

A :class:`SegmentedStore` is a :class:`~repro.storage.sqlite_backend.SQLiteStore`
whose four classic tables form the **base generation**, plus a Lucene-style
sequence of immutable **delta segments**:

* :meth:`SegmentedStore.update_document` shreds the new document version once
  and writes its complete row set — including the per-keyword packed posting
  blobs of :func:`~repro.storage.shredder.packed_posting_rows` — into the
  ``segment_*`` tables under a fresh, monotonically increasing segment id.
  No base row is rewritten; the previous version is merely *shadowed*.
* :meth:`SegmentedStore.delete_document` appends a **tombstone** event: a
  ``segment`` catalog row with no row payload.  Tombstones are consulted at
  read time; nothing is physically removed until compaction.
* Reads resolve a document to its **live location**: the highest-numbered
  segment event wins, and a document with no events lives in the base
  generation.  Because the corpus layer is doc-partitioned (the unit of
  update is a whole document), LCA semantics never mix generations — a
  keyword read loads the one packed blob of the document's live generation.
* :meth:`SegmentedStore.compact` folds every document's live version into the
  base tables and clears the segment tables, leaving the database
  byte-for-byte equivalent (as observed through every posting-source
  read) to one re-shredded from scratch at the same logical state.
* Every mutation (update/delete/compact) is **one SQLite transaction**, so
  it is all-or-nothing under any failure, process death included: SQLite's
  rollback journal undoes a transaction that never committed the next time
  the file is opened.  A mutation carrying an idempotency key writes its
  ``mutation_journal`` ledger row inside that same transaction, so the row
  exists exactly when the mutation committed and a retry is a no-op that
  answers the original segment id.

:class:`SegmentedPostingSource` puts a segmented document behind the standard
:class:`~repro.index.source.PostingSource` seam, so it slots into
:class:`~repro.corpus.source.CorpusPostingSource` /
:func:`~repro.corpus.source.corpus_from_store` unchanged.  It inherits the
batched ``IN (...)`` machinery of
:class:`~repro.storage.posting_source.SQLitePostingSource` and points its
scope at the segment tables when the document lives in a delta segment; it
is the only reader of a segmented document's rows.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..index.packed import PackedDeweyList
from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..text import DEFAULT_TOKENIZER, Tokenizer
from ..xmltree import XMLTree
from .errors import DocumentAlreadyStored, DocumentNotFound
from .posting_source import DEFAULT_POSTING_LRU_SIZE, SQLitePostingSource
from .shredder import ShreddedDocument, packed_posting_rows, shred_tree
from .sqlite_backend import SQLiteStore

#: Segment event kinds recorded in the ``segment`` catalog table.
SEGMENT_KIND_DOC = "doc"
SEGMENT_KIND_TOMBSTONE = "tombstone"

#: The pseudo-location of documents served from the classic base tables.
BASE_GENERATION = 0

#: The base tables and their matching delta-segment tables.
_BASE_TABLES = ("label", "element", "value", "posting")
_SEGMENT_TABLES = ("segment", "segment_label", "segment_element",
                   "segment_value", "segment_posting")


class SegmentedStore(SQLiteStore):
    """A sqlite store that absorbs document updates as immutable segments.

    :meth:`documents` and :meth:`document_stats` keep their
    :class:`SQLiteStore` semantics over each document's live generation
    (base tables or the newest ``doc`` segment), with tombstoned documents
    answering :class:`~repro.storage.errors.DocumentNotFound`; reads of a
    document's rows go through :class:`SegmentedPostingSource`.  Writes
    (base ingestion, updates, deletes, compaction) serialize on one
    store-level lock; readers see each committed mutation atomically.
    """

    def __init__(self, path: Union[str, Path] = ":memory:",
                 tokenizer: Tokenizer = DEFAULT_TOKENIZER):
        super().__init__(path, tokenizer)
        self._write_lock = threading.Lock()
        # Segment-resolution accounting (harvested into the metrics registry
        # by the instrumented pipeline via the posting source's read_stats).
        self.tombstone_hits = 0
        #: Crash-simulation hook: called with the point name at
        #: ``<kind>.apply`` (the mutation's last statement ran, the commit
        #: has not) and at ``<kind>.applied`` (right after the commit).
        #: Crash tests raise :class:`~repro.faults.InjectedCrash` or end
        #: the process there.
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------ #
    # Mutation ledger: idempotent replay
    # ------------------------------------------------------------------ #
    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Route mutation and replay counts into a registry."""
        self._metrics = metrics

    def replay_of(self, idempotency_key: Optional[str]) -> Optional[int]:
        """The recorded segment id of an already-applied keyed mutation.

        ``None`` means the key is unknown and the mutation must run; a
        value means the mutation already committed once and a retry must
        be a no-op answering the original result.
        """
        if idempotency_key is None:
            return None
        row = self._connection.execute(
            "SELECT segment_id FROM mutation_journal "
            "WHERE idempotency_key = ? "
            "ORDER BY journal_id DESC LIMIT 1", (idempotency_key,)).fetchone()
        if row is None:
            return None
        if self._metrics is not None:
            self._metrics.counter(metric_names.JOURNAL_REPLAYS).inc()
        return int(row[0])

    def _fault_point(self, name: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(name)

    def _write_ledger_row(self, kind: str, document: str, segment_id: int,
                          idempotency_key: Optional[str]) -> None:
        """Record a keyed mutation inside its own open transaction.

        The row commits exactly when the mutation does.
        """
        if idempotency_key is not None:
            self._connection.execute(
                "INSERT INTO mutation_journal (kind, document, segment_id, "
                "idempotency_key) VALUES (?, ?, ?, ?)",
                (kind, document, segment_id, idempotency_key))

    def _committed(self, kind: str) -> None:
        """After the commit: the ``.applied`` fault point, then the count."""
        self._fault_point(f"{kind}.applied")
        if self._metrics is not None:
            self._metrics.counter(metric_names.JOURNAL_MUTATIONS,
                                  {"kind": kind}).inc()

    # ------------------------------------------------------------------ #
    # Location resolution
    # ------------------------------------------------------------------ #
    def location_of(self, name: str) -> Optional[int]:
        """Where ``name`` currently lives.

        ``None`` — absent (never stored, or tombstoned);
        :data:`BASE_GENERATION` — the classic base tables; a positive
        integer — that delta segment.  The highest-numbered event decides.
        """
        row = self._connection.execute(
            "SELECT segment_id, kind FROM segment WHERE document = ? "
            "ORDER BY segment_id DESC LIMIT 1", (name,)).fetchone()
        if row is not None:
            segment_id, kind = row
            if kind == SEGMENT_KIND_TOMBSTONE:
                self.tombstone_hits += 1
                return None
            return int(segment_id)
        return BASE_GENERATION if self._has_rows("element", name) else None

    def _live_location(self, name: str) -> int:
        location = self.location_of(name)
        if location is None:
            raise DocumentNotFound(f"no stored document named {name!r}")
        return location

    def _require(self, name: str) -> None:
        if self.location_of(name) is None:
            raise DocumentNotFound(f"no stored document named {name!r}")

    # ------------------------------------------------------------------ #
    # Segment introspection
    # ------------------------------------------------------------------ #
    def segment_events(self) -> List[Tuple[int, str, str]]:
        """Every ``(segment_id, document, kind)`` catalog row, in order."""
        rows = self._connection.execute(
            "SELECT segment_id, document, kind FROM segment "
            "ORDER BY segment_id, document").fetchall()
        return [(int(seg), doc, kind) for seg, doc, kind in rows]

    def segment_count(self) -> int:
        """Number of delta segments currently on disk (0 after compact)."""
        return self._scalar("SELECT COUNT(DISTINCT segment_id) FROM segment")

    def tombstoned_documents(self) -> List[str]:
        """Documents whose latest event is a tombstone (dead until re-added)."""
        return sorted(doc for doc, (_, kind) in self._latest_events().items()
                      if kind == SEGMENT_KIND_TOMBSTONE)

    def _latest_events(self) -> Dict[str, Tuple[int, str]]:
        latest: Dict[str, Tuple[int, str]] = {}
        for seg, doc, kind in self.segment_events():
            if doc not in latest or seg > latest[doc][0]:
                latest[doc] = (seg, kind)
        return latest

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def update_document(self, tree: XMLTree, name: str = "",
                        idempotency_key: Optional[str] = None) -> int:
        """Absorb a new version of one document as a fresh delta segment.

        Works for brand-new documents too (an add is an update with no
        shadowed predecessor).  Returns the new segment id.  A repeated
        ``idempotency_key`` makes the call a ledger-backed no-op that
        answers the original segment id.
        """
        document = name or tree.name or "document"
        shredded = shred_tree(tree, document, self.tokenizer)
        return self.update_shredded(shredded, idempotency_key)

    def update_shredded(self, shredded: ShreddedDocument,
                        idempotency_key: Optional[str] = None) -> int:
        """Write one already-shredded document version as a delta segment.

        The segment rows and, for a keyed call, the ledger row commit as
        one transaction: a failure or crash before the commit leaves the
        store as it was, with no ledger row to replay.
        """
        with self._write_lock:
            replayed = self.replay_of(idempotency_key)
            if replayed is not None:
                return replayed
            segment_id = self._next_segment_id()
            with self._connection as connection:
                cursor = connection.cursor()
                cursor.execute(
                    "INSERT INTO segment (segment_id, document, kind) "
                    "VALUES (?, ?, ?)",
                    (segment_id, shredded.name, SEGMENT_KIND_DOC))
                cursor.executemany(
                    "INSERT INTO segment_label (segment_id, document, label, "
                    "id) VALUES (?, ?, ?, ?)",
                    [(segment_id, shredded.name, row.label, row.label_id)
                     for row in shredded.labels])
                cursor.executemany(
                    "INSERT INTO segment_element (segment_id, document, "
                    "label, dewey, level, label_number_sequence, "
                    "content_feature_min, content_feature_max) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    [(segment_id, shredded.name, row.label, row.dewey,
                      row.level, row.label_number_sequence,
                      row.content_feature_min, row.content_feature_max)
                     for row in shredded.elements])
                cursor.executemany(
                    "INSERT INTO segment_value (segment_id, document, label, "
                    "dewey, attribute, keyword) VALUES (?, ?, ?, ?, ?, ?)",
                    [(segment_id, shredded.name, row.label, row.dewey,
                      row.attribute, row.keyword)
                     for row in shredded.values])
                cursor.executemany(
                    "INSERT INTO segment_posting (segment_id, document, "
                    "keyword, cardinality, blob, max_depth) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [(segment_id, shredded.name, keyword, cardinality, blob,
                      max_depth)
                     for keyword, cardinality, blob, max_depth
                     in packed_posting_rows(shredded)])
                self._write_ledger_row("update", shredded.name, segment_id,
                                       idempotency_key)
                self._fault_point("update.apply")
            self._committed("update")
            return segment_id

    def delete_document(self, name: str,
                        idempotency_key: Optional[str] = None) -> int:
        """Tombstone one live document; returns the tombstone's segment id.

        One transaction, like :meth:`update_shredded`; a repeated
        ``idempotency_key`` is a no-op answering the original segment id.
        """
        with self._write_lock:
            replayed = self.replay_of(idempotency_key)
            if replayed is not None:
                return replayed
            self._require(name)
            segment_id = self._next_segment_id()
            with self._connection as connection:
                connection.execute(
                    "INSERT INTO segment (segment_id, document, kind) "
                    "VALUES (?, ?, ?)",
                    (segment_id, name, SEGMENT_KIND_TOMBSTONE))
                self._write_ledger_row("delete", name, segment_id,
                                       idempotency_key)
                self._fault_point("delete.apply")
            self._committed("delete")
            return segment_id

    def compact(self) -> Dict[str, int]:
        """Fold every live delta version into the base generation.

        Shadowed base rows and tombstoned documents are physically removed,
        the surviving segment row sets are copied into the base tables, and
        all segment tables are cleared, in one transaction.  Afterwards the
        store answers every query exactly as a freshly re-shredded one
        would.  Returns counters: ``folded`` documents materialized from
        segments, ``dropped`` tombstoned documents removed, ``segments``
        delta segments absorbed.
        """
        with self._write_lock:
            segments = self.segment_count()
            with self._connection as connection:
                latest = self._latest_events()
                folded = dropped = 0
                cursor = connection.cursor()
                for document in sorted(latest):
                    segment_id, kind = latest[document]
                    for table in _BASE_TABLES:
                        cursor.execute(
                            f"DELETE FROM {table} WHERE document = ?",
                            (document,))
                    if kind == SEGMENT_KIND_DOC:
                        cursor.execute(
                            "INSERT INTO label (document, label, id) "
                            "SELECT document, label, id FROM segment_label "
                            "WHERE segment_id = ? AND document = ?",
                            (segment_id, document))
                        cursor.execute(
                            "INSERT INTO element (document, label, dewey, "
                            "level, label_number_sequence, "
                            "content_feature_min, content_feature_max) "
                            "SELECT document, label, dewey, level, "
                            "label_number_sequence, content_feature_min, "
                            "content_feature_max FROM segment_element "
                            "WHERE segment_id = ? AND document = ?",
                            (segment_id, document))
                        cursor.execute(
                            "INSERT INTO value (document, label, dewey, "
                            "attribute, keyword) "
                            "SELECT document, label, dewey, attribute, "
                            "keyword FROM segment_value "
                            "WHERE segment_id = ? AND document = ?",
                            (segment_id, document))
                        cursor.execute(
                            "INSERT INTO posting (document, keyword, "
                            "cardinality, blob, max_depth) "
                            "SELECT document, keyword, cardinality, blob, "
                            "max_depth FROM segment_posting "
                            "WHERE segment_id = ? AND document = ?",
                            (segment_id, document))
                        folded += 1
                    else:
                        dropped += 1
                for table in _SEGMENT_TABLES:
                    cursor.execute(f"DELETE FROM {table}")
                self._fault_point("compact.apply")
            self._committed("compact")
            return {"folded": folded, "dropped": dropped,
                    "segments": segments}

    def store_shredded(self, shredded: ShreddedDocument) -> ShreddedDocument:
        """Base-generation ingestion, aware of shadowed/tombstoned leftovers.

        A dead document name (deleted, or replaced by a newer segment that
        was itself deleted) may still own stale base or segment rows; they
        are purged first so re-adding a deleted document behaves exactly like
        storing it into a fresh database.  The purge and the base insert
        share one transaction: the base insert's ``with`` block commits or
        rolls back both.
        """
        with self._write_lock:
            if self.location_of(shredded.name) is not None:
                raise DocumentAlreadyStored(
                    f"document {shredded.name!r} already stored")
            with self._connection:
                self._purge(shredded.name)
                return super().store_shredded(shredded)

    def drop_document(self, name: str) -> None:
        """Physically remove every trace of one live document (all tables)."""
        with self._write_lock:
            self._require(name)
            with self._connection:
                self._purge(name)

    def _purge(self, name: str) -> None:
        cursor = self._connection.cursor()
        for table in _BASE_TABLES + _SEGMENT_TABLES:
            cursor.execute(f"DELETE FROM {table} WHERE document = ?", (name,))

    def _next_segment_id(self) -> int:
        return self._scalar(
            "SELECT COALESCE(MAX(segment_id), 0) FROM segment") + 1

    # ------------------------------------------------------------------ #
    # Catalogue (per live generation)
    # ------------------------------------------------------------------ #
    def documents(self) -> List[str]:
        """Names of the **live** documents (tombstoned ones are gone)."""
        live = set(super().documents())
        for document, (_, kind) in self._latest_events().items():
            if kind == SEGMENT_KIND_DOC:
                live.add(document)
            else:
                live.discard(document)
        return sorted(live)

    def document_stats(self, name: str) -> Dict[str, int]:
        location = self._live_location(name)
        if location == BASE_GENERATION:
            return super().document_stats(name)
        nodes = self._scalar(
            "SELECT COUNT(*) FROM segment_element "
            "WHERE segment_id = ? AND document = ?", location, name)
        values = self._scalar(
            "SELECT COUNT(*) FROM segment_value "
            "WHERE segment_id = ? AND document = ?", location, name)
        labels = self._scalar(
            "SELECT COUNT(*) FROM segment_label "
            "WHERE segment_id = ? AND document = ?", location, name)
        return {"nodes": nodes, "values": values, "labels": labels}


class SegmentedPostingSource(SQLitePostingSource):
    """Posting source over one live document of a :class:`SegmentedStore`.

    A snapshot view: the document's live location is resolved once, on first
    access, so one source serves one generation consistently.  After a
    mutation, build a fresh source (the corpus/service layers rebuild their
    engines, and every cache key carries the generation through
    :attr:`source_id`).
    """

    store: SegmentedStore

    def __init__(self, store: SegmentedStore, document: str,
                 lru_size: int = DEFAULT_POSTING_LRU_SIZE):
        if not isinstance(store, SegmentedStore):
            raise TypeError(f"SegmentedPostingSource needs a SegmentedStore, "
                            f"got {type(store).__name__}")
        super().__init__(store, document, lru_size)
        self._location: Optional[int] = None
        # How many posting fetches were resolved from a delta segment vs the
        # base generation (one increment per fetched keyword, hoisted after
        # each batch loop).
        self.segment_reads = 0
        self.base_reads = 0

    def _resolve_location(self) -> int:
        """The generation this source serves (pinned at first resolution)."""
        if self._location is None:
            self._location = self.store._live_location(self.document)
        return self._location

    @property
    def source_id(self) -> str:
        """Identity including the live generation, so caches never go stale."""
        return (f"segmented:{self.store.path}#{self.document}"
                f"@g{self._resolve_location()}")

    def read_stats(self) -> Dict[str, int]:
        """Base read counters plus segment-resolution accounting."""
        stats = super().read_stats()
        stats["segment_reads"] = self.segment_reads
        stats["base_reads"] = self.base_reads
        stats["tombstone_hits"] = self.store.tombstone_hits
        return stats

    def _scope(self) -> Tuple[str, str, Tuple[object, ...]]:
        """The live generation's rows: the base tables, or one delta
        segment's ``segment_*`` tables."""
        location = self._resolve_location()
        if location == BASE_GENERATION:
            return super()._scope()
        return ("segment_", "segment_id = ? AND document = ?",
                (location, self.document))

    def _fetch_blob_rows(self, missing: Sequence[str]
                         ) -> Dict[str, PackedDeweyList]:
        fetched = super()._fetch_blob_rows(missing)
        self._count_reads(len(fetched))
        return fetched

    def _count_reads(self, keywords: int) -> None:
        """Credit one batch's fetched keywords to the generation read."""
        if self._resolve_location() == BASE_GENERATION:
            self.base_reads += keywords
        else:
            self.segment_reads += keywords
