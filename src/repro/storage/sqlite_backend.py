"""sqlite3 backend for the shredded relational store.

Plays the role of the PostgreSQL 8.2 instance of Section 5.2 (substitution
documented in DESIGN.md): documents are shredded into Section 5.2's
``label`` and ``element`` tables, and one packed ``posting`` blob per
keyword takes the place of its ``value`` table, which is not stored.  Those
three tables are the **base generation**; live updates land in a
Lucene-style sequence of immutable **delta segments**:

* :meth:`SQLiteStore.update_document` shreds the new document version once
  and writes its complete row set — including its per-keyword packed posting
  blobs — into the ``segment_*`` tables under a fresh, monotonically
  increasing segment id.
  No base row is rewritten; the previous version is merely *shadowed*.
* :meth:`SQLiteStore.delete_document` appends a **tombstone** event: a
  ``segment`` catalog row with no row payload.  Tombstones are consulted at
  read time; nothing is physically removed until compaction.
* Reads resolve a document to its **live location**: the highest-numbered
  segment event wins, and a document with no events lives in the base
  generation.  Because the corpus layer is doc-partitioned (the unit of
  update is a whole document), LCA semantics never mix generations — a
  keyword read loads the one packed blob of the document's live generation.
* :meth:`SQLiteStore.compact` folds every document's live version into the
  base tables and clears the segment tables, leaving the database
  byte-for-byte equivalent (as observed through every posting-source
  read) to one re-shredded from scratch at the same logical state.
* Every mutation (store/update/delete/drop/compact) is **one SQLite
  transaction**, so it is all-or-nothing under any failure, process death
  included: SQLite's rollback journal undoes a transaction that never
  committed the next time the file is opened.  A mutation carrying an
  idempotency key writes its ``mutation_journal`` ledger row inside that
  same transaction, so the row exists exactly when the mutation committed
  and a retry is a no-op that answers the original segment id.

The store writes and manages those rows; every query reads them through a
:class:`~repro.storage.posting_source.SQLitePostingSource`, which pins its
document's live location at its first read.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..xmltree import XMLTree
from .errors import DocumentAlreadyStored, DocumentNotFound, SchemaVersionError
from .schema import CREATE_TABLES_SQL, SCHEMA_VERSION
from .shredder import ShreddedDocument, shred_tree


#: Distinguishes the shared-cache URIs of concurrently-alive ``:memory:``
#: stores, so two stores never alias one in-process database.
_MEMORY_DB_COUNTER = itertools.count()

#: Segment event kinds recorded in the ``segment`` catalog table.
SEGMENT_KIND_DOC = "doc"
SEGMENT_KIND_TOMBSTONE = "tombstone"

#: The pseudo-location of documents served from the classic base tables.
BASE_GENERATION = 0

#: The columns of the three tables one document version fills, after its
#: key: ``document`` in the base tables, ``segment_id, document`` in their
#: ``segment_*`` twins.
_GENERATION_COLUMNS = {
    "label": ("label", "id"),
    "element": ("label", "dewey", "label_number_sequence",
                "content_feature_min", "content_feature_max"),
    "posting": ("keyword", "cardinality", "blob", "max_depth"),
}

#: The base tables and their matching delta-segment tables.
_BASE_TABLES = tuple(_GENERATION_COLUMNS)
_SEGMENT_TABLES = ("segment",) + tuple(f"segment_{table}"
                                       for table in _BASE_TABLES)


def check_schema(connection: sqlite3.Connection, path: str) -> None:
    """Accept a file stamped with :data:`SCHEMA_VERSION`, create (and stamp)
    the schema in a file with no tables, refuse anything else.

    One statement reads the stamp and the table count together, so a
    concurrent opener's create-and-stamp commit is seen whole or not at
    all, and a stamped file opens with that one statement.  Python's
    ``sqlite3`` opens no transaction before DDL, hence the explicit
    ``BEGIN IMMEDIATE``; the DDL keeps ``IF NOT EXISTS``, so two openers
    racing on a new file both succeed.
    """
    version, objects = connection.execute(
        "SELECT user_version, (SELECT COUNT(*) FROM sqlite_master) "
        "FROM pragma_user_version").fetchone()
    if version == SCHEMA_VERSION:
        return
    if version or objects:
        raise SchemaVersionError(
            f"{path} has database schema version {version}, but this "
            f"program reads version {SCHEMA_VERSION}; re-index the documents "
            f"into a new file with `repro-xks index`")
    connection.execute("BEGIN IMMEDIATE")
    try:
        for statement in CREATE_TABLES_SQL:
            connection.execute(statement)
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        connection.commit()
    except BaseException:
        connection.rollback()
        raise


def generation_rows(document: str, location: int
                    ) -> Tuple[str, str, Tuple[object, ...]]:
    """The rows of one generation of ``document``: ``(table prefix, row
    filter, filter parameters)``, spliced into a statement as
    ``FROM {prefix}element WHERE {filter}``.

    :data:`BASE_GENERATION` names the base tables; any other location the
    ``segment_*`` tables of that delta segment.
    """
    if location == BASE_GENERATION:
        return "", "document = ?", (document,)
    return "segment_", "segment_id = ? AND document = ?", (location, document)


def _version_rows(shredded: ShreddedDocument
                  ) -> Iterator[Tuple[str, Iterable[Tuple]]]:
    """One document version's rows, table by table, in the column order of
    :data:`_GENERATION_COLUMNS`.  Lazy, so an insert streams its rows and
    never holds two tables' row lists at once."""
    yield "label", ((row.label, row.label_id) for row in shredded.labels)
    yield "element", ((row.label, row.dewey, row.label_number_sequence,
                       row.content_feature_min, row.content_feature_max)
                      for row in shredded.elements)
    yield "posting", shredded.postings


class SQLiteStore:
    """sqlite3-backed implementation of the shredded document store.

    :meth:`documents` and :meth:`document_stats` answer over each
    document's live generation (the base tables or its newest ``doc``
    segment); a tombstoned document answers
    :class:`~repro.storage.errors.DocumentNotFound`.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-process
        database.  A file with no tables gets the schema, stamped with
        :data:`~repro.storage.schema.SCHEMA_VERSION`; any other file must
        carry that stamp, or opening it raises
        :class:`~repro.storage.errors.SchemaVersionError`.

    Thread use
    ----------
    The store is safe to share across threads: every thread lazily opens its
    **own** connection to the database (``:memory:`` stores become unique
    shared-cache URIs so all threads still see one database).  This is what
    lets the concurrent serving layer (:mod:`repro.service`) run one worker
    pool over a single store — disk reads genuinely parallelize, with no
    cross-thread cursor sharing.  Writes (ingestion, updates, deletes,
    drops, compaction) serialize on one store-level lock, and readers see
    each committed mutation atomically.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self.path = str(path)
        if self.path == ":memory:":
            self._uri = (f"file:repro-mem-{next(_MEMORY_DB_COUNTER)}"
                         f"?mode=memory&cache=shared")
        else:
            self._uri = None
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._closed = False
        self._fault_plan = None  # set via set_fault_plan (chaos testing)
        #: Crash-simulation hook: called with the point name at
        #: ``<kind>.apply`` (the mutation's last statement ran, the commit
        #: has not) and at ``<kind>.applied`` (right after the commit).
        #: Crash tests raise :class:`~repro.faults.InjectedCrash` or end
        #: the process there.
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._metrics: Optional[MetricsRegistry] = None
        # The constructing thread's connection doubles as the anchor that
        # keeps a shared in-memory database alive until close().
        self._connection.commit()

    def set_fault_plan(self, plan) -> None:
        """Install a :class:`repro.faults.FaultPlan` on the storage seam.

        Every connection opened after this call is wrapped so each
        statement consults the plan (injected ``OperationalError``\\ s and
        latency spikes).  The calling thread's cached connection is
        dropped so it too reopens wrapped; install the plan before
        serving traffic — connections already opened by *other* threads
        stay unwrapped.
        """
        self._fault_plan = plan
        self._local = threading.local()

    @property
    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, opened (with the schema) on first use."""
        if self._closed:
            raise sqlite3.ProgrammingError(
                "Cannot operate on a closed SQLiteStore")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            if self._uri is not None:
                connection = sqlite3.connect(self._uri, uri=True,
                                             check_same_thread=False)
            else:
                connection = sqlite3.connect(self.path,
                                             check_same_thread=False)
            try:
                check_schema(connection, self.path)
            except BaseException:
                connection.close()
                raise
            with self._connections_lock:
                self._connections.append(connection)
            if self._fault_plan is not None:
                connection = self._fault_plan.wrap(connection)
            self._local.connection = connection
        return connection

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every thread's connection; further use raises (loudly)."""
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

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

        ``None`` — absent (never stored, or its latest event is not a
        ``doc`` event: a tombstone, or a kind this store never writes);
        :data:`BASE_GENERATION` — the classic base tables; a positive
        integer — that delta segment.  The highest-numbered event decides,
        by the same rule as :meth:`documents` and :meth:`compact`.
        """
        row = self._connection.execute(
            "SELECT segment_id, kind FROM segment WHERE document = ? "
            "ORDER BY segment_id DESC LIMIT 1", (name,)).fetchone()
        if row is not None:
            segment_id, kind = row
            return int(segment_id) if kind == SEGMENT_KIND_DOC else None
        # EXISTS stops at the first index entry, so the check costs the same
        # on a document of any size (a COUNT(*) reads every row).
        exists = self._scalar(
            "SELECT EXISTS (SELECT 1 FROM element WHERE document = ?)", name)
        return BASE_GENERATION if exists else None

    def _live_location(self, name: str) -> int:
        """:meth:`location_of` a live document; raises
        :class:`DocumentNotFound` for an absent or tombstoned one."""
        location = self.location_of(name)
        if location is None:
            raise DocumentNotFound(f"no stored document named {name!r}")
        return location

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
    # Base-generation ingestion
    # ------------------------------------------------------------------ #
    def store_tree(self, tree: XMLTree, name: str = "") -> ShreddedDocument:
        """Shred and store one document; returns the shredded rows."""
        return self.store_shredded(shred_tree(tree, name))

    def store_shredded(self, shredded: ShreddedDocument) -> ShreddedDocument:
        """Insert already-shredded rows into the base tables.

        A live name is refused.  A dead name (deleted, or replaced by a
        newer segment that was itself deleted) may still own stale base or
        segment rows; they are purged first, so re-adding a deleted
        document behaves exactly like storing it into a fresh database.
        The purge and the insert are one transaction: a failing statement
        rolls the whole document back.
        """
        name = shredded.name
        with self._write_lock:
            if self.location_of(name) is not None:
                raise DocumentAlreadyStored(f"document {name!r} already stored")
            with self._connection:
                self._purge(name)
                self._insert_version(shredded, BASE_GENERATION)
        return shredded

    def drop_document(self, name: str) -> None:
        """Physically remove every trace of one live document (all tables),
        in one transaction."""
        with self._write_lock:
            self._live_location(name)
            with self._connection:
                self._purge(name)

    def _purge(self, name: str) -> None:
        cursor = self._connection.cursor()
        for table in _BASE_TABLES + _SEGMENT_TABLES:
            cursor.execute(f"DELETE FROM {table} WHERE document = ?", (name,))

    def _insert_version(self, shredded: ShreddedDocument,
                        location: int) -> None:
        """Insert one document version's rows into the generation
        ``location`` names, inside the caller's open transaction."""
        prefix, _, key = generation_rows(shredded.name, location)
        key_columns = (("document",) if location == BASE_GENERATION
                       else ("segment_id", "document"))
        cursor = self._connection.cursor()
        for table, rows in _version_rows(shredded):
            columns = key_columns + _GENERATION_COLUMNS[table]
            cursor.executemany(
                f"INSERT INTO {prefix}{table} ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' * len(columns))})",
                (key + row for row in rows))

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
        return self.update_shredded(shred_tree(tree, document),
                                    idempotency_key)

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
                connection.execute(
                    "INSERT INTO segment (segment_id, document, kind) "
                    "VALUES (?, ?, ?)",
                    (segment_id, shredded.name, SEGMENT_KIND_DOC))
                self._insert_version(shredded, segment_id)
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
            self._live_location(name)
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
                        for table, columns in _GENERATION_COLUMNS.items():
                            names = ", ".join(("document",) + columns)
                            cursor.execute(
                                f"INSERT INTO {table} ({names}) "
                                f"SELECT {names} FROM segment_{table} "
                                f"WHERE segment_id = ? AND document = ?",
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

    def _next_segment_id(self) -> int:
        return self._scalar(
            "SELECT COALESCE(MAX(segment_id), 0) FROM segment") + 1

    # ------------------------------------------------------------------ #
    # Catalogue (per live generation)
    # ------------------------------------------------------------------ #
    def documents(self) -> List[str]:
        """Names of the **live** documents (tombstoned ones are gone)."""
        live = {document for (document,) in self._connection.execute(
            "SELECT DISTINCT document FROM element")}
        for document, (_, kind) in self._latest_events().items():
            if kind == SEGMENT_KIND_DOC:
                live.add(document)
            else:
                live.discard(document)
        return sorted(live)

    def document_stats(self, name: str) -> Dict[str, int]:
        """Node / keyword (posting row) / label counts of one live
        document."""
        prefix, where, scope = generation_rows(name, self._live_location(name))
        return {key: self._scalar(
                    f"SELECT COUNT(*) FROM {prefix}{table} WHERE {where}",
                    *scope)
                for key, table in (("nodes", "element"),
                                   ("keywords", "posting"),
                                   ("labels", "label"))}

    # ------------------------------------------------------------------ #
    def _scalar(self, sql: str, *params) -> int:
        row = self._connection.execute(sql, params).fetchone()
        return int(row[0]) if row and row[0] is not None else 0
