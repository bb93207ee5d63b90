"""sqlite3 backend for the shredded relational store.

Plays the role of the PostgreSQL 8.2 instance of Section 5.2 (substitution
documented in DESIGN.md): documents are shredded into the ``label`` /
``element`` / ``value`` tables and keyword-node retrieval is a SQL query
against the ``value`` table.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..index.source import EMPTY_IMPACT, KeywordImpact, impact_from_postings
from ..text import DEFAULT_TOKENIZER, Tokenizer
from ..xmltree import DeweyCode, XMLTree
from .errors import DocumentAlreadyStored, DocumentNotFound
from .schema import (
    CREATE_TABLES_SQL,
    UNKNOWN_MAX_DEPTH,
    decode_dewey,
    encode_dewey,
    ensure_impact_columns,
)
from .shredder import ShreddedDocument, packed_posting_rows, shred_tree


#: Distinguishes the shared-cache URIs of concurrently-alive ``:memory:``
#: stores, so two stores never alias one in-process database.
_MEMORY_DB_COUNTER = itertools.count()


class SQLiteStore:
    """sqlite3-backed implementation of the shredded document store.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-process
        database.
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
            for statement in CREATE_TABLES_SQL:
                connection.execute(statement)
            # Legacy files predate the impact column; grow it in place.
            ensure_impact_columns(connection)
            connection.commit()
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
    # Queries
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

    def keyword_deweys(self, name: str, keyword: str) -> List[DeweyCode]:
        """Sorted Dewey codes of the nodes containing ``keyword``.

        Rows are decoded while streaming off the cursor, so a frequent
        keyword's posting list never exists as both an undecoded row list and
        a decoded Dewey list at the same time.
        """
        self._require(name)
        normalized = self.tokenizer.normalize_keyword(keyword)
        cursor = self._connection.execute(
            "SELECT DISTINCT dewey FROM value WHERE document = ? AND keyword = ? "
            "ORDER BY dewey",
            (name, normalized),
        )
        return [DeweyCode(decode_dewey(text)) for (text,) in cursor]

    def has_packed_postings(self, name: str) -> bool:
        """Whether the document was ingested with packed posting blobs.

        Database files written before the ``posting`` table existed answer
        ``False``; the posting sources then fall back to per-row decoding.
        """
        return self._has_rows("posting", name)

    def keyword_impact(self, name: str, keyword: str) -> KeywordImpact:
        """Posting count + deepest node level of one keyword.

        Served straight from the shred-time ``posting`` row when the impact
        column carries a real value; rows predating the column (``max_depth
        == -1``) and documents predating packed ingestion fall back to a
        value-table scan, so legacy files stay rankable without a rewrite.
        """
        self._require(name)
        normalized = self.tokenizer.normalize_keyword(keyword)
        row = self._connection.execute(
            "SELECT cardinality, max_depth FROM posting "
            "WHERE document = ? AND keyword = ?",
            (name, normalized),
        ).fetchone()
        if row is not None and int(row[1]) != UNKNOWN_MAX_DEPTH:
            return KeywordImpact(count=int(row[0]), max_depth=int(row[1]))
        if row is None and self.has_packed_postings(name):
            # Packed-era document, keyword simply absent.
            return EMPTY_IMPACT
        return impact_from_postings(self.keyword_deweys(name, normalized))

    def keyword_nodes(self, name: str, keywords: Iterable[str]
                      ) -> Dict[str, List[DeweyCode]]:
        """The ``D_i`` posting lists for a whole query."""
        result: Dict[str, List[DeweyCode]] = {}
        for keyword in self.tokenizer.normalize_query(keywords):
            result[keyword] = self.keyword_deweys(name, keyword)
        return result

    def keyword_frequency(self, name: str, keyword: str) -> int:
        """Number of nodes containing ``keyword``."""
        self._require(name)
        normalized = self.tokenizer.normalize_keyword(keyword)
        return self._scalar(
            "SELECT COUNT(DISTINCT dewey) FROM value "
            "WHERE document = ? AND keyword = ?",
            name, normalized,
        )

    def vocabulary(self, name: str) -> List[str]:
        """Every distinct keyword of one document, sorted."""
        self._require(name)
        cursor = self._connection.execute(
            "SELECT DISTINCT keyword FROM value WHERE document = ? "
            "ORDER BY keyword",
            (name,),
        )
        return [keyword for (keyword,) in cursor]

    def node_words(self, name: str, dewey: DeweyCode) -> frozenset:
        """The content word set of one node (empty when the code is absent).

        No ``DISTINCT``: the ``frozenset`` folds the repeated rows of a word
        that is in the node's label, text or attributes more than once, and
        with ``DISTINCT`` sqlite scans every value row of the document.
        """
        self._require(name)
        cursor = self._connection.execute(
            "SELECT keyword FROM value WHERE document = ? AND dewey = ?",
            (name, encode_dewey(dewey.components)),
        )
        return frozenset(keyword for (keyword,) in cursor)

    def element_row(self, name: str, dewey: DeweyCode
                    ) -> Optional[Tuple[str, Tuple[str, str]]]:
        """One node's ``(label, cID)`` from its element row, or ``None``."""
        self._require(name)
        row = self._connection.execute(
            "SELECT label, content_feature_min, content_feature_max "
            "FROM element WHERE document = ? AND dewey = ?",
            (name, encode_dewey(dewey.components)),
        ).fetchone()
        return (row[0], (row[1], row[2])) if row else None

    def labels(self, name: str) -> List[str]:
        """The distinct labels of one document."""
        self._require(name)
        rows = self._connection.execute(
            "SELECT label FROM label WHERE document = ? ORDER BY label", (name,)
        ).fetchall()
        return [row[0] for row in rows]

    def label_number_sequence(self, name: str, dewey: DeweyCode) -> Optional[str]:
        """The stored ancestor-label-number path of one node."""
        self._require(name)
        row = self._connection.execute(
            "SELECT label_number_sequence FROM element "
            "WHERE document = ? AND dewey = ?",
            (name, encode_dewey(dewey.components)),
        ).fetchone()
        return row[0] if row else None

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
