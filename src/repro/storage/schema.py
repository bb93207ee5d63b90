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
    level: int
    label_number_sequence: str
    content_feature_min: str
    content_feature_max: str


@dataclass(frozen=True)
class ValueRow:
    """One row of the ``value`` table."""

    document: str
    label: str
    dewey: str
    attribute: str
    keyword: str


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
        level                 INTEGER NOT NULL,
        label_number_sequence TEXT NOT NULL,
        content_feature_min   TEXT NOT NULL,
        content_feature_max   TEXT NOT NULL,
        PRIMARY KEY (document, dewey)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS value (
        document  TEXT NOT NULL,
        label     TEXT NOT NULL,
        dewey     TEXT NOT NULL,
        attribute TEXT NOT NULL,
        keyword   TEXT NOT NULL
    )
    """,
    # One packed columnar posting blob per (document, keyword): the
    # prefix-truncated serialization of the keyword's sorted Dewey list
    # (see repro.index.packed).  Loading a posting list becomes one row
    # fetch + one C-speed column rebuild instead of one string decode per
    # posting row.  The value table remains the row-per-(node, word) ground
    # truth; the blob is a derived, ingestion-time artefact.  ``max_depth``
    # is the keyword's impact metadata (deepest Dewey level of its nodes,
    # root = 0) written at shred time; together with ``cardinality`` it lets
    # the corpus ranking derive score upper bounds without reading a single
    # blob.
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
    "CREATE INDEX IF NOT EXISTS idx_value_keyword ON value (document, keyword)",
    "CREATE INDEX IF NOT EXISTS idx_value_dewey ON value (document, dewey)",
    "CREATE INDEX IF NOT EXISTS idx_element_label ON element (document, label)",
    # ------------------------------------------------------------------ #
    # Segmented incremental updates (repro.storage.sqlite_backend).  The four
    # tables above are the **base generation**; every update/delete lands in
    # an immutable delta segment instead of rewriting base rows.  ``segment``
    # is the catalog: one row per (segment, document) event — kind ``doc``
    # carries a full replacement row set in the ``segment_*`` tables below,
    # kind ``tombstone`` marks the document deleted as of that segment.  A
    # document's live version is decided by its highest-numbered event;
    # ``compact()`` folds live versions into the base tables and clears all
    # five segment tables.
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
        level                 INTEGER NOT NULL,
        label_number_sequence TEXT NOT NULL,
        content_feature_min   TEXT NOT NULL,
        content_feature_max   TEXT NOT NULL,
        PRIMARY KEY (segment_id, document, dewey)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS segment_value (
        segment_id INTEGER NOT NULL,
        document   TEXT NOT NULL,
        label      TEXT NOT NULL,
        dewey      TEXT NOT NULL,
        attribute  TEXT NOT NULL,
        keyword    TEXT NOT NULL
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
    "CREATE INDEX IF NOT EXISTS idx_segment_value_keyword "
    "ON segment_value (segment_id, document, keyword)",
    "CREATE INDEX IF NOT EXISTS idx_segment_value_dewey "
    "ON segment_value (segment_id, document, dewey)",
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
#: such a file is re-indexed into a new one, never migrated.
SCHEMA_VERSION = 1


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
