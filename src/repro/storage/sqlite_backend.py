"""sqlite3 backend for the shredded relational store.

Plays the role of the PostgreSQL 8.2 instance of Section 5.2 (substitution
documented in DESIGN.md): documents are shredded into Section 5.2's
``element`` table, and one packed ``posting`` blob per keyword takes the
place of its ``value`` table, which is not stored.  Every row is keyed by a
**generation**, a number each mutation takes from one counter that never
goes back, so no two document versions of one file ever share one.  The
``catalogue`` maps each live document to its generation:

* :meth:`SQLiteStore.store_tree` shreds a new document and writes its
  rows under a fresh generation.
* :meth:`SQLiteStore.update_document` shreds the new document version once
  and writes its complete row set — including its per-keyword packed posting
  blobs — under a fresh generation, a Lucene-style immutable **delta
  segment**.  No existing row is rewritten; the catalogue row moves to the
  new generation, and the previous one is recorded dead in the ``segment``
  log.
* :meth:`SQLiteStore.delete_document` removes the catalogue row and logs a
  **tombstone** that records the document's generation dead.  Nothing is
  physically removed until compaction.
* Reads resolve a document to its generation with one primary-key read of
  the catalogue.  Because the corpus layer is doc-partitioned (the unit of
  update is a whole document), LCA semantics never mix generations — a
  keyword read loads the one packed blob of the document's generation.
* :meth:`SQLiteStore.compact` deletes the rows of exactly the generations
  the log recorded dead and empties the log.  It renumbers nothing, so the
  database then holds exactly the rows of one re-shredded from scratch at
  the same logical state, under the same numbers as before.
* Every mutation (store/update/delete/compact) is **one SQLite
  transaction**, so it is all-or-nothing under any failure, process death
  included: SQLite's rollback journal undoes a transaction that never
  committed the next time the file is opened.  A mutation carrying an
  idempotency key writes its ``mutation_journal`` ledger row inside that
  same transaction, so the row exists exactly when the mutation committed
  and a retry is a no-op that answers the original segment id.

The store writes and manages those rows; every query reads them through a
:class:`~repro.storage.posting_source.SQLitePostingSource`, which pins its
document's generation at its first read.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from contextlib import closing
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..xmltree import XMLTree
from .errors import (
    DatabaseFileError,
    DocumentAlreadyStored,
    DocumentNotFound,
    SchemaVersionError,
)
from .schema import CREATE_TABLES_SQL, SCHEMA_VERSION
from .shredder import ShreddedDocument, shred_tree


#: Distinguishes the shared-cache URIs of concurrently-alive ``:memory:``
#: stores, so two stores never alias one in-process database.
_MEMORY_DB_COUNTER = itertools.count()

#: Event kinds recorded in the ``segment`` log.
SEGMENT_KIND_DOC = "doc"
SEGMENT_KIND_TOMBSTONE = "tombstone"


def check_schema(connection: sqlite3.Connection, path: str) -> None:
    """Accept a file stamped with :data:`SCHEMA_VERSION`, create (and stamp)
    the schema in a file with no tables, refuse anything else.  Readers
    never reach the creating branch: :func:`existing_database` refuses a
    file with no tables before a reader opens it.

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


def existing_database(path: Union[str, Path]) -> str:
    """``path``, if it holds a database to read; a missing path, or a file
    that opens with no tables (a 0-byte file, say), raises
    :class:`~repro.storage.errors.DatabaseFileError`.

    ``SQLiteStore(path)`` and ``sqlite3.connect`` create a missing file,
    and the store creates its schema in a file with no tables, as ``index``
    wants; so every reader of a database file passes its path through here
    first, and no read creates a database or a schema.
    """
    if not Path(path).exists():
        raise DatabaseFileError(f"no such database file: {path} (create it "
                                f"with `repro-xks index`)")
    if _holds_no_tables(str(path)):
        raise DatabaseFileError(f"{path} holds no tables: no document was "
                                f"indexed into it (create it with "
                                f"`repro-xks index`)")
    return str(path)


def _holds_no_tables(path: str) -> bool:
    """Whether the existing file at ``path`` opens as a SQLite database with
    no schema objects.  Reading writes nothing to such a file.  A file that
    SQLite cannot read answers ``False``: the store's opener reports it."""
    try:
        with closing(sqlite3.connect(path)) as connection:
            (objects,) = connection.execute(
                "SELECT COUNT(*) FROM sqlite_master").fetchone()
    except sqlite3.DatabaseError:
        return False
    return objects == 0


class SQLiteStore:
    """sqlite3-backed implementation of the shredded document store.

    :meth:`documents` and :meth:`document_stats` answer from the
    catalogue, over each document's live generation; a deleted document
    answers :class:`~repro.storage.errors.DocumentNotFound`.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-process
        database.  A missing file is created (a reader checks its path with
        :func:`existing_database` first).  A file with no tables gets the
        schema, stamped with
        :data:`~repro.storage.schema.SCHEMA_VERSION`; any other file must
        carry that stamp, or opening it raises
        :class:`~repro.storage.errors.SchemaVersionError`.  A path that is
        no database raises :class:`~repro.storage.errors.DatabaseFileError`.

    Thread use
    ----------
    The store is safe to share across threads: every thread lazily opens its
    **own** connection to the database (``:memory:`` stores become unique
    shared-cache URIs so all threads still see one database).  This is what
    lets the concurrent serving layer (:mod:`repro.service`) run one worker
    pool over a single store — disk reads genuinely parallelize, with no
    cross-thread cursor sharing.  Writes (ingestion, updates, deletes,
    compaction) serialize on one store-level lock, and readers see
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
            connection = self._open()
            with self._connections_lock:
                self._connections.append(connection)
            if self._fault_plan is not None:
                connection = self._fault_plan.wrap(connection)
            self._local.connection = connection
        return connection

    def _open(self) -> sqlite3.Connection:
        """A new connection to the store's database, its schema checked.

        A path SQLite cannot open, or a file that is not a database, raises
        :class:`~repro.storage.errors.DatabaseFileError` naming the path.
        """
        try:
            if self._uri is not None:
                connection = sqlite3.connect(self._uri, uri=True,
                                             check_same_thread=False)
            else:
                connection = sqlite3.connect(self.path,
                                             check_same_thread=False)
        except sqlite3.OperationalError as error:
            raise DatabaseFileError(f"cannot open {self.path}: {error}") \
                from None
        try:
            check_schema(connection, self.path)
        except BaseException as error:
            connection.close()
            # sqlite reports a file that is no database, or a damaged one,
            # as a plain DatabaseError; its subclasses (a locked file, say)
            # are not about the file's format.
            if type(error) is sqlite3.DatabaseError:
                raise DatabaseFileError(f"cannot open {self.path}: {error}") \
                    from None
            raise
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
        """The generation ``name`` lives in, from one primary-key read of
        the catalogue; ``None`` when it is absent (never stored, or
        deleted)."""
        row = self._connection.execute(
            "SELECT generation FROM catalogue WHERE document = ?",
            (name,)).fetchone()
        return None if row is None else int(row[0])

    def _live_location(self, name: str) -> int:
        """:meth:`location_of` a live document; raises
        :class:`DocumentNotFound` for an absent or deleted one."""
        location = self.location_of(name)
        if location is None:
            raise DocumentNotFound(f"no stored document named {name!r}")
        return location

    # ------------------------------------------------------------------ #
    # Segment introspection
    # ------------------------------------------------------------------ #
    def segment_events(self) -> List[Tuple[int, str, str]]:
        """Every ``(segment_id, document, kind)`` row of the log, in order."""
        rows = self._connection.execute(
            "SELECT segment_id, document, kind FROM segment "
            "ORDER BY segment_id").fetchall()
        return [(int(seg), doc, kind) for seg, doc, kind in rows]

    def segment_count(self) -> int:
        """Number of delta segments (updates and deletes) since the last
        compaction."""
        return self._scalar("SELECT COUNT(*) FROM segment")

    def tombstoned_documents(self) -> List[str]:
        """Documents the log names that are no longer live (dead until
        re-added)."""
        return [document for (document,) in self._connection.execute(
            "SELECT DISTINCT document FROM segment WHERE document NOT IN "
            "(SELECT document FROM catalogue) ORDER BY document")]

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def store_tree(self, tree: XMLTree, name: str = "") -> ShreddedDocument:
        """Shred and store one document; returns the shredded rows."""
        return self.store_shredded(shred_tree(tree, name))

    def store_shredded(self, shredded: ShreddedDocument) -> ShreddedDocument:
        """Insert already-shredded rows under a fresh generation.

        A live name is refused.  A deleted name may still own dead rows
        that the log recorded; they and its log rows are purged first, so
        re-adding a deleted document leaves the rows storing it into a
        fresh database would.  The purge and the insert are one
        transaction: a failing statement rolls the whole document back.
        """
        name = shredded.name
        with self._write_lock:
            if self.location_of(name) is not None:
                raise DocumentAlreadyStored(f"document {name!r} already stored")
            with self._connection as connection:
                generation = self._next_generation()
                self._purge(name)
                self._insert_version(shredded, generation)
                connection.execute(
                    "INSERT INTO catalogue (document, generation) "
                    "VALUES (?, ?)", (name, generation))
        return shredded

    def _purge(self, name: str) -> None:
        """Delete the generations the log recorded dead for ``name``, and
        its log rows, inside the caller's open transaction."""
        connection = self._connection
        self._delete_generations(dead for (dead,) in connection.execute(
            "SELECT dead_generation FROM segment WHERE document = ? "
            "AND dead_generation IS NOT NULL", (name,)).fetchall())
        connection.execute("DELETE FROM segment WHERE document = ?", (name,))

    def _insert_version(self, shredded: ShreddedDocument,
                        generation: int) -> None:
        """Insert one document version's rows under ``generation``, inside
        the caller's open transaction.  Element rows go in key order, so
        each lands at the end of the clustered table."""
        cursor = self._connection.cursor()
        cursor.executemany(
            "INSERT INTO element (generation, dewey, label, "
            "content_feature_min, content_feature_max) VALUES (?, ?, ?, ?, ?)",
            ((generation, row.dewey, row.label, row.content_feature_min,
              row.content_feature_max)
             for row in sorted(shredded.elements,
                               key=lambda row: row.dewey)))
        cursor.executemany(
            "INSERT INTO posting (generation, keyword, cardinality, blob, "
            "max_depth) VALUES (?, ?, ?, ?, ?)",
            ((generation,) + row for row in shredded.postings))

    def _delete_generations(self, generations: Iterable[int]) -> None:
        """Delete every row of ``generations``, each by its key prefix."""
        generations = [(generation,) for generation in generations]
        cursor = self._connection.cursor()
        for table in ("element", "posting"):
            cursor.executemany(
                f"DELETE FROM {table} WHERE generation = ?", generations)

    def _next_generation(self) -> int:
        """Take the next generation number.  The bump is the mutation's
        first statement, so it opens the transaction and holds the write
        lock before anything is read."""
        [(generation,)] = self._connection.execute(
            "UPDATE generation_counter SET last_generation = "
            "last_generation + 1 RETURNING last_generation").fetchall()
        return int(generation)

    def _log(self, generation: int, name: str, kind: str) -> None:
        """Log one update or delete of ``name`` under ``generation``, with
        the generation it makes dead: the catalogue's current one."""
        self._connection.execute(
            "INSERT INTO segment (segment_id, document, kind, "
            "dead_generation) VALUES (?, ?, ?, (SELECT generation "
            "FROM catalogue WHERE document = ?))",
            (generation, name, kind, name))

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def update_document(self, tree: XMLTree, name: str = "",
                        idempotency_key: Optional[str] = None) -> int:
        """Absorb a new version of one document as a fresh delta segment.

        Works for brand-new documents too (an add is an update with no
        shadowed predecessor).  Returns the new segment id, the version's
        generation.  A repeated ``idempotency_key`` makes the call a
        ledger-backed no-op that answers the original segment id.
        """
        document = name or tree.name or "document"
        return self.update_shredded(shred_tree(tree, document),
                                    idempotency_key)

    def update_shredded(self, shredded: ShreddedDocument,
                        idempotency_key: Optional[str] = None) -> int:
        """Write one already-shredded document version as a delta segment.

        The rows, the catalogue and log rows and, for a keyed call, the
        ledger row commit as one transaction: a failure or crash before the
        commit leaves the store as it was, with no ledger row to replay.
        """
        name = shredded.name
        with self._write_lock:
            replayed = self.replay_of(idempotency_key)
            if replayed is not None:
                return replayed
            with self._connection as connection:
                generation = self._next_generation()
                self._log(generation, name, SEGMENT_KIND_DOC)
                self._insert_version(shredded, generation)
                connection.execute(
                    "INSERT OR REPLACE INTO catalogue (document, generation) "
                    "VALUES (?, ?)", (name, generation))
                self._write_ledger_row("update", name, generation,
                                       idempotency_key)
                self._fault_point("update.apply")
            self._committed("update")
            return generation

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
            with self._connection as connection:
                generation = self._next_generation()
                self._log(generation, name, SEGMENT_KIND_TOMBSTONE)
                connection.execute(
                    "DELETE FROM catalogue WHERE document = ?", (name,))
                self._write_ledger_row("delete", name, generation,
                                       idempotency_key)
                self._fault_point("delete.apply")
            self._committed("delete")
            return generation

    def compact(self) -> Dict[str, int]:
        """Delete every generation the log recorded dead, then empty it.

        One transaction.  Each dead generation's rows go by their key
        prefix, so a fold costs the rows it deletes, not the store.  No
        generation is renumbered: a live document keeps its generation, and
        a source pinned to it keeps its answers.  Afterwards the store
        holds the rows a freshly re-shredded one would.  Returns counters:
        ``folded`` logged documents that are live, ``dropped`` logged
        documents that are deleted, ``segments`` log rows absorbed.
        """
        with self._write_lock:
            with self._connection as connection:
                self._delete_generations(dead for (dead,) in connection.execute(
                    "SELECT dead_generation FROM segment "
                    "WHERE dead_generation IS NOT NULL").fetchall())
                logged = [document for (document,) in connection.execute(
                    "SELECT document FROM segment")]
                live = {document for (document,) in connection.execute(
                    "SELECT document FROM catalogue WHERE document IN "
                    "(SELECT document FROM segment)")}
                connection.execute("DELETE FROM segment")
                self._fault_point("compact.apply")
            self._committed("compact")
            documents = set(logged)
            return {"folded": len(documents & live),
                    "dropped": len(documents - live),
                    "segments": len(logged)}

    def vacuum(self) -> None:
        """Rebuild the file without its free pages (``VACUUM``).

        Deleting rows, as :meth:`compact` does, only puts their pages on
        the freelist for later writes to reuse.  ``VACUUM`` rewrites the
        whole file and fails while another connection reads it, so
        ``repro-xks compact`` runs it after the fold has committed, and a
        serving store never does.
        """
        with self._write_lock:
            self._connection.execute("VACUUM")

    # ------------------------------------------------------------------ #
    # Catalogue
    # ------------------------------------------------------------------ #
    def documents(self) -> List[str]:
        """Names of the **live** documents (deleted ones are gone)."""
        return [document for (document,) in self._connection.execute(
            "SELECT document FROM catalogue ORDER BY document")]

    def document_stats(self, name: str) -> Dict[str, int]:
        """Node / keyword (posting row) / distinct label counts of one live
        document."""
        generation = self._live_location(name)
        return {key: self._scalar(f"SELECT {count} WHERE generation = ?",
                                  generation)
                for key, count in (
                    ("nodes", "COUNT(*) FROM element"),
                    ("keywords", "COUNT(*) FROM posting"),
                    ("labels", "COUNT(DISTINCT label) FROM element"))}

    # ------------------------------------------------------------------ #
    def _scalar(self, sql: str, *params) -> int:
        row = self._connection.execute(sql, params).fetchone()
        return int(row[0]) if row and row[0] is not None else 0
