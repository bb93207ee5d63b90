"""sqlite3 backend for the shredded relational store.

Plays the role of the PostgreSQL 8.2 instance of Section 5.2 (substitution
documented in DESIGN.md): documents are shredded into the ``label`` /
``element`` / ``value`` tables (plus one packed ``posting`` blob per keyword).
The store writes and manages those rows; every query reads them through a
:class:`~repro.storage.posting_source.SQLitePostingSource`.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from pathlib import Path
from typing import Dict, List, Union

from ..text import DEFAULT_TOKENIZER, Tokenizer
from ..xmltree import XMLTree
from .errors import DocumentAlreadyStored, DocumentNotFound, SchemaVersionError
from .schema import CREATE_TABLES_SQL, SCHEMA_VERSION
from .shredder import ShreddedDocument, packed_posting_rows, shred_tree


#: Distinguishes the shared-cache URIs of concurrently-alive ``:memory:``
#: stores, so two stores never alias one in-process database.
_MEMORY_DB_COUNTER = itertools.count()


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


class SQLiteStore:
    """sqlite3-backed implementation of the shredded document store.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-process
        database.  A file with no tables gets the schema, stamped with
        :data:`~repro.storage.schema.SCHEMA_VERSION`; any other file must
        carry that stamp, or opening it raises
        :class:`~repro.storage.errors.SchemaVersionError`.
    tokenizer:
        Tokenizer shared with the query side.

    Thread use
    ----------
    The store is safe to share across threads: every thread lazily opens its
    **own** connection to the database (``:memory:`` stores become unique
    shared-cache URIs so all threads still see one database).  This is what
    lets the concurrent serving layer (:mod:`repro.service`) run one worker
    pool over a single store — disk reads genuinely parallelize, with no
    cross-thread cursor sharing.  Ingestion (:meth:`store_tree` /
    :meth:`drop_document`) is not synchronized against concurrent readers;
    the serving layer treats a stored document as an immutable snapshot.
    """

    def __init__(self, path: Union[str, Path] = ":memory:",
                 tokenizer: Tokenizer = DEFAULT_TOKENIZER):
        self.path = str(path)
        self.tokenizer = tokenizer
        if self.path == ":memory:":
            self._uri = (f"file:repro-mem-{next(_MEMORY_DB_COUNTER)}"
                         f"?mode=memory&cache=shared")
        else:
            self._uri = None
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        self._fault_plan = None  # set via set_fault_plan (chaos testing)
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
    # Ingestion
    # ------------------------------------------------------------------ #
    def store_tree(self, tree: XMLTree, name: str = "") -> ShreddedDocument:
        """Shred and store one document; returns the shredded rows."""
        shredded = shred_tree(tree, name, self.tokenizer)
        return self.store_shredded(shredded)

    def store_shredded(self, shredded: ShreddedDocument) -> ShreddedDocument:
        """Insert already-shredded rows in one transaction.

        A failing statement rolls the whole document back, so none of its
        rows can ride along with the connection's next commit.
        """
        if self._has_rows("element", shredded.name):
            raise DocumentAlreadyStored(f"document {shredded.name!r} already stored")
        with self._connection as connection:
            cursor = connection.cursor()
            cursor.executemany(
                "INSERT INTO label (document, label, id) VALUES (?, ?, ?)",
                [(shredded.name, row.label, row.label_id) for row in shredded.labels],
            )
            cursor.executemany(
                "INSERT INTO element (document, label, dewey, level, "
                "label_number_sequence, content_feature_min, content_feature_max) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(shredded.name, row.label, row.dewey, row.level,
                  row.label_number_sequence, row.content_feature_min,
                  row.content_feature_max) for row in shredded.elements],
            )
            cursor.executemany(
                "INSERT INTO value (document, label, dewey, attribute, keyword) "
                "VALUES (?, ?, ?, ?, ?)",
                [(shredded.name, row.label, row.dewey, row.attribute, row.keyword)
                 for row in shredded.values],
            )
            cursor.executemany(
                "INSERT INTO posting (document, keyword, cardinality, blob, "
                "max_depth) VALUES (?, ?, ?, ?, ?)",
                [(shredded.name, keyword, cardinality, blob, max_depth)
                 for keyword, cardinality, blob, max_depth
                 in packed_posting_rows(shredded)],
            )
        return shredded

    def drop_document(self, name: str) -> None:
        """Delete all rows of one document, in one transaction."""
        self._require(name)
        with self._connection as connection:
            cursor = connection.cursor()
            for table in ("label", "element", "value", "posting"):
                cursor.execute(f"DELETE FROM {table} WHERE document = ?", (name,))

    # ------------------------------------------------------------------ #
    # Catalogue
    # ------------------------------------------------------------------ #
    def documents(self) -> List[str]:
        """Names of the stored documents."""
        rows = self._connection.execute(
            "SELECT DISTINCT document FROM element ORDER BY document"
        ).fetchall()
        return [row[0] for row in rows]

    def document_stats(self, name: str) -> Dict[str, int]:
        """Node / value / label counts of one document."""
        self._require(name)
        nodes = self._scalar("SELECT COUNT(*) FROM element WHERE document = ?", name)
        values = self._scalar("SELECT COUNT(*) FROM value WHERE document = ?", name)
        labels = self._scalar("SELECT COUNT(*) FROM label WHERE document = ?", name)
        return {"nodes": nodes, "values": values, "labels": labels}

    # ------------------------------------------------------------------ #
    def _scalar(self, sql: str, *params) -> int:
        row = self._connection.execute(sql, params).fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def _has_rows(self, table: str, name: str) -> bool:
        """Whether ``table`` holds any row of document ``name``.

        ``EXISTS`` stops at the first index entry, so the check costs the
        same on a document of any size (a ``COUNT(*)`` reads every row).
        """
        return bool(self._scalar(
            f"SELECT EXISTS (SELECT 1 FROM {table} WHERE document = ?)",
            name))

    def _require(self, name: str) -> None:
        if not self._has_rows("element", name):
            raise DocumentNotFound(f"no stored document named {name!r}")
