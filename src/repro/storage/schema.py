"""The relational schema the documents are shredded into.

Section 5.2 stores the shredded records in PostgreSQL using three tables:

* ``label (label, id)`` — every distinct element label and its number;
* ``element`` — one row per node: its label, Dewey code, level, the label
  numbers of its ancestors from the root (used to rebuild ancestor
  information) and ``content_feature``, the node's cID;
* ``value (label, dewey, attribute, keyword)`` — one row per (node, word)
  pair over the node's label, text and attributes; this is the table keyword
  lookups run against.

This layout (schema 3) keeps what the queries read of them: one ``element``
row per node (its label, Dewey code and the cID as two strings; a node's
depth is its Dewey length) and, in place of ``value``, one packed
``posting`` blob per keyword, the keyword's sorted Dewey list.  No query
reads the label numbers, so neither the ``label`` table nor the label
number sequence is stored.  Every row carries the ``generation`` it belongs
to: 0 for the base, N for delta segment N.

This module defines the element row dataclass, the SQL DDL of the sqlite
store (the PostgreSQL → sqlite substitution is documented in DESIGN.md) and
the :data:`SCHEMA_VERSION` every database file is stamped with: a file is
created with this layout, or refused (``PRAGMA user_version``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ElementRow:
    """One row of the ``element`` table, without its key's ``document``
    and ``generation``."""

    label: str
    dewey: str
    content_feature_min: str
    content_feature_max: str


#: SQL DDL for the sqlite backend.  The ``document`` column lets one store
#: hold several shredded documents (the paper uses one database per
#: dataset), and the ``generation`` column several versions of one.
CREATE_TABLES_SQL: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS element (
        document            TEXT NOT NULL,
        generation          INTEGER NOT NULL,
        label               TEXT NOT NULL,
        dewey               TEXT NOT NULL,
        content_feature_min TEXT NOT NULL,
        content_feature_max TEXT NOT NULL,
        PRIMARY KEY (document, generation, dewey)
    )
    """,
    # One packed columnar posting blob per (document, generation, keyword):
    # the prefix-truncated serialization of the keyword's sorted Dewey list
    # (see repro.index.packed).  This is the keyword index: loading a
    # posting list is one row fetch + one C-speed column rebuild, and no
    # row per (node, word) pair is stored.  ``max_depth`` is the keyword's
    # impact metadata (deepest Dewey level of its nodes, root = 0) written
    # at shred time; together with ``cardinality`` it lets the corpus
    # ranking derive score upper bounds without reading a single blob.
    """
    CREATE TABLE IF NOT EXISTS posting (
        document    TEXT NOT NULL,
        generation  INTEGER NOT NULL,
        keyword     TEXT NOT NULL,
        cardinality INTEGER NOT NULL,
        blob        BLOB NOT NULL,
        max_depth   INTEGER NOT NULL,
        PRIMARY KEY (document, generation, keyword)
    )
    """,
    # ------------------------------------------------------------------ #
    # Segmented incremental updates (repro.storage.sqlite_backend).  The
    # rows of generation 0 are the **base**; every update/delete lands in
    # an immutable delta segment instead of rewriting base rows.
    # ``segment`` is the catalog: one row per (segment, document) event —
    # kind ``doc`` owns a full replacement row set, the rows of generation
    # ``segment_id``; kind ``tombstone`` marks the document deleted as of
    # that segment.  A document's live version is decided by its
    # highest-numbered event; ``compact()`` renumbers each live version to
    # generation 0, deletes the catalogued documents' other generations,
    # and empties the catalog.
    """
    CREATE TABLE IF NOT EXISTS segment (
        segment_id INTEGER NOT NULL,
        document   TEXT NOT NULL,
        kind       TEXT NOT NULL,
        PRIMARY KEY (segment_id, document)
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
#: ``level``; version 2 dropped both, and still stored a ``label`` table,
#: each element's label number sequence, zero-padded Dewey text and every
#: delta segment in ``segment_*`` twin tables; version 3 dropped those.
SCHEMA_VERSION = 3


def encode_dewey(components: Tuple[int, ...]) -> str:
    """Encode Dewey components as dotted text, ``0.2.10``.

    Element rows are looked up by equality on this text and never ordered
    by it, so it carries no padding.
    """
    return ".".join(map(str, components))


def decode_dewey(text: str) -> Tuple[int, ...]:
    """Decode the dotted text back into integer components."""
    return tuple(map(int, text.split(".")))
