"""The relational schema the documents are shredded into.

Section 5.2 stores the shredded records in PostgreSQL using three tables:

* ``label (label, id)`` — every distinct element label and its number;
* ``element`` — one row per node: its label, Dewey code, level, the label
  numbers of its ancestors from the root (used to rebuild ancestor
  information) and ``content_feature``, the node's cID;
* ``value (label, dewey, attribute, keyword)`` — one row per (node, word)
  pair over the node's label, text and attributes; this is the table keyword
  lookups run against.

This layout (schema 4) keeps what the queries read of them: one ``element``
row per node (its label, Dewey code and the cID as two strings; a node's
depth is its Dewey length) and, in place of ``value``, one packed
``posting`` blob per keyword, the keyword's sorted Dewey list.  No query
reads the label numbers, so neither the ``label`` table nor the label
number sequence is stored.  Every row is keyed by the ``generation`` it
belongs to, a number the file never reuses: each mutation takes the next
one from ``generation_counter``, and the ``catalogue`` maps each live
document to its generation, so no row repeats its document's name.

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
    """One row of the ``element`` table, without its key's ``generation``."""

    label: str
    dewey: str
    content_feature_min: str
    content_feature_max: str


#: SQL DDL for the sqlite backend.  One store holds several shredded
#: documents (the paper uses one database per dataset), and several
#: versions of each: every version's rows are keyed by its own generation.
CREATE_TABLES_SQL: Tuple[str, ...] = (
    # One row per live document: the generation its rows are keyed by.  A
    # deleted or never-stored name has no row.  A reader resolves a
    # document with one primary-key read here.
    """
    CREATE TABLE IF NOT EXISTS catalogue (
        document   TEXT PRIMARY KEY,
        generation INTEGER NOT NULL
    ) WITHOUT ROWID
    """,
    # The last generation number handed out.  Every mutation bumps it in
    # its own transaction and nothing lowers it, so no number is reused:
    # not after a delete, and not after a compaction.
    """
    CREATE TABLE IF NOT EXISTS generation_counter (
        last_generation INTEGER NOT NULL
    )
    """,
    "INSERT INTO generation_counter (last_generation) "
    "SELECT 0 WHERE NOT EXISTS (SELECT 1 FROM generation_counter)",
    # Clustered on its key: one node's row is one B-tree probe on an
    # (integer, text) key, with no second lookup into a rowid table.
    """
    CREATE TABLE IF NOT EXISTS element (
        generation          INTEGER NOT NULL,
        dewey               TEXT NOT NULL,
        label               TEXT NOT NULL,
        content_feature_min TEXT NOT NULL,
        content_feature_max TEXT NOT NULL,
        PRIMARY KEY (generation, dewey)
    ) WITHOUT ROWID
    """,
    # One packed columnar posting blob per (generation, keyword): the
    # prefix-truncated serialization of the keyword's sorted Dewey list
    # (see repro.index.packed).  This is the keyword index: loading a
    # posting list is one row fetch + one C-speed column rebuild, and no
    # row per (node, word) pair is stored.  ``max_depth`` is the keyword's
    # impact metadata (deepest Dewey level of its nodes, root = 0) written
    # at shred time; together with ``cardinality`` it lets the corpus
    # ranking derive score upper bounds without reading a single blob.  It
    # stays a rowid table: clustered on its key, its blobs overflow the
    # index pages, and the benchmark's disk document grew from 258,048 to
    # 335,872 bytes.
    """
    CREATE TABLE IF NOT EXISTS posting (
        generation  INTEGER NOT NULL,
        keyword     TEXT NOT NULL,
        cardinality INTEGER NOT NULL,
        blob        BLOB NOT NULL,
        max_depth   INTEGER NOT NULL,
        PRIMARY KEY (generation, keyword)
    )
    """,
    # ------------------------------------------------------------------ #
    # The segment log (repro.storage.sqlite_backend): one row per update
    # or delete since the last compaction, numbered by the generation the
    # mutation took.  Kind ``doc`` wrote a new version under that number;
    # kind ``tombstone`` deleted the document and owns no rows.
    # ``dead_generation`` is the generation the mutation made dead (the
    # document's previous one, if any): ``compact()`` deletes exactly
    # those generations' rows, then empties the log.
    """
    CREATE TABLE IF NOT EXISTS segment (
        segment_id      INTEGER PRIMARY KEY,
        document        TEXT NOT NULL,
        kind            TEXT NOT NULL,
        dead_generation INTEGER
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
#: delta segment in ``segment_*`` twin tables; version 3 dropped those, and
#: still keyed every row by its document's name and a generation that
#: compaction renumbered to 0; version 4 keys rows by a generation alone.
SCHEMA_VERSION = 4


def encode_dewey(components: Tuple[int, ...]) -> str:
    """Encode Dewey components as dotted text, ``0.2.10``.

    Element rows are looked up by equality on this text and never ordered
    by it, so it carries no padding.
    """
    return ".".join(map(str, components))


def decode_dewey(text: str) -> Tuple[int, ...]:
    """Decode the dotted text back into integer components."""
    return tuple(map(int, text.split(".")))
