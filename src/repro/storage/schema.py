"""The relational schema the documents are shredded into.

Section 5.2 stores the shredded records in PostgreSQL using three tables:

* ``label (label, id)`` — every distinct element label and its number;
* ``element (label, dewey, level, label_number_sequence, content_feature)`` —
  one row per node, where ``label_number_sequence`` encodes the labels of the
  node's ancestors from the root (used to rebuild ancestor information) and
  ``content_feature`` is the node's cID;
* ``value (label, dewey, attribute, keyword)`` — one row per (node, word)
  pair over the node's label, text and attributes; this is the table keyword
  lookups run against.

This layout (schema 2) holds the first two of them and replaces the third:
``label``, ``element`` without ``level`` (a node's depth is its Dewey
length) and the cID stored as two strings, and one packed ``posting`` blob
per keyword, the keyword's sorted Dewey list, which is what every keyword
lookup reads.  No ``value`` row is stored.

This module defines the row dataclasses, the SQL DDL of the sqlite store
(the PostgreSQL → sqlite substitution is documented in DESIGN.md) and the
:data:`SCHEMA_VERSION` every database file is stamped with: a file is
created with this layout, or refused (``PRAGMA user_version``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class LabelRow:
    """One row of the ``label`` table."""

    label: str
    label_id: int


@dataclass(frozen=True)
class ElementRow:
    """One row of the ``element`` table."""

    document: str
    label: str
    dewey: str
    label_number_sequence: str
    content_feature_min: str
    content_feature_max: str


#: SQL DDL for the sqlite backend.  The ``document`` column lets one store
#: hold several shredded documents (the paper uses one database per dataset).
CREATE_TABLES_SQL: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS label (
        document TEXT NOT NULL,
        label    TEXT NOT NULL,
        id       INTEGER NOT NULL,
        PRIMARY KEY (document, label)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS element (
        document              TEXT NOT NULL,
        label                 TEXT NOT NULL,
        dewey                 TEXT NOT NULL,
        label_number_sequence TEXT NOT NULL,
        content_feature_min   TEXT NOT NULL,
        content_feature_max   TEXT NOT NULL,
        PRIMARY KEY (document, dewey)
    )
    """,
    # One packed columnar posting blob per (document, keyword): the
    # prefix-truncated serialization of the keyword's sorted Dewey list
    # (see repro.index.packed).  This is the keyword index: loading a
    # posting list is one row fetch + one C-speed column rebuild, and no
    # row per (node, word) pair is stored.  ``max_depth`` is the keyword's
    # impact metadata (deepest Dewey level of its nodes, root = 0) written
    # at shred time; together with ``cardinality`` it lets the corpus
    # ranking derive score upper bounds without reading a single blob.
    """
    CREATE TABLE IF NOT EXISTS posting (
        document    TEXT NOT NULL,
        keyword     TEXT NOT NULL,
        cardinality INTEGER NOT NULL,
        blob        BLOB NOT NULL,
        max_depth   INTEGER NOT NULL,
        PRIMARY KEY (document, keyword)
    )
    """,
    # ------------------------------------------------------------------ #
    # Segmented incremental updates (repro.storage.sqlite_backend).  The three
    # tables above are the **base generation**; every update/delete lands in
    # an immutable delta segment instead of rewriting base rows.  ``segment``
    # is the catalog: one row per (segment, document) event — kind ``doc``
    # carries a full replacement row set in the ``segment_*`` tables below,
    # kind ``tombstone`` marks the document deleted as of that segment.  A
    # document's live version is decided by its highest-numbered event;
    # ``compact()`` folds live versions into the base tables and clears all
    # four segment tables.
    """
    CREATE TABLE IF NOT EXISTS segment (
        segment_id INTEGER NOT NULL,
        document   TEXT NOT NULL,
        kind       TEXT NOT NULL,
        PRIMARY KEY (segment_id, document)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS segment_label (
        segment_id INTEGER NOT NULL,
        document   TEXT NOT NULL,
        label      TEXT NOT NULL,
        id         INTEGER NOT NULL,
        PRIMARY KEY (segment_id, document, label)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS segment_element (
        segment_id            INTEGER NOT NULL,
        document              TEXT NOT NULL,
        label                 TEXT NOT NULL,
        dewey                 TEXT NOT NULL,
        label_number_sequence TEXT NOT NULL,
        content_feature_min   TEXT NOT NULL,
        content_feature_max   TEXT NOT NULL,
        PRIMARY KEY (segment_id, document, dewey)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS segment_posting (
        segment_id  INTEGER NOT NULL,
        document    TEXT NOT NULL,
        keyword     TEXT NOT NULL,
        cardinality INTEGER NOT NULL,
        blob        BLOB NOT NULL,
        max_depth   INTEGER NOT NULL,
        PRIMARY KEY (segment_id, document, keyword)
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_segment_document "
    "ON segment (document, segment_id)",
    # ------------------------------------------------------------------ #
    # The idempotency ledger (repro.storage.sqlite_backend).  A mutation that
    # carries an ``idempotency_key`` writes one row inside its own
    # transaction, so the row exists exactly when the mutation committed
    # and a retry with the same key answers the recorded ``segment_id``.
    """
    CREATE TABLE IF NOT EXISTS mutation_journal (
        journal_id      INTEGER PRIMARY KEY AUTOINCREMENT,
        kind            TEXT NOT NULL,
        document        TEXT NOT NULL,
        segment_id      INTEGER NOT NULL,
        idempotency_key TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_mutation_journal_key "
    "ON mutation_journal (idempotency_key)",
)

#: The layout :data:`CREATE_TABLES_SQL` creates, stamped into every new
#: database file as ``PRAGMA user_version``.  A store refuses any file
#: carrying another version (:class:`~repro.storage.errors.SchemaVersionError`);
#: such a file is re-indexed into a new one, never migrated.  Version 1
#: also stored a ``value`` row per (node, word) pair and an element
#: ``level``; version 2 dropped both.
SCHEMA_VERSION = 2


def encode_dewey(components: Tuple[int, ...]) -> str:
    """Encode Dewey components as a sortable dotted string.

    Each component is zero-padded to six digits, which keeps the
    lexicographic string order identical to document order for components
    below 10**6.  The format is a literal: this runs once per shredded and
    once per prefetched node, and a literal ``%`` format in a list join is
    the cheapest spelling of it.
    """
    return ".".join(["%06d" % component for component in components])


def decode_dewey(text: str) -> Tuple[int, ...]:
    """Decode the sortable dotted string back into integer components."""
    return tuple(int(piece) for piece in text.split("."))
