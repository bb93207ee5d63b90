"""Relational shredding store: the Section 5.2 schema on sqlite3.

:class:`SQLiteStore` writes a document's rows into a database file stamped
with :data:`SCHEMA_VERSION`, and refuses a file carrying any other version
(:class:`SchemaVersionError`: re-index it).  It keeps the base tables and
the delta segments that live updates, deletes and compaction write, and
answers its catalogue over each document's live generation.  A
:class:`SQLitePostingSource` is the only reader of those rows; it serves the
generation its document lived in at its first read.
"""

from .errors import (
    DocumentAlreadyStored,
    DocumentNotFound,
    SchemaVersionError,
    StorageError,
)
from .schema import (
    CREATE_TABLES_SQL,
    SCHEMA_VERSION,
    ElementRow,
    LabelRow,
    decode_dewey,
    encode_dewey,
)
from .shredder import ShreddedDocument, shred_tree
from .sqlite_backend import (
    BASE_GENERATION,
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SQLiteStore,
)
from .posting_source import DEFAULT_POSTING_LRU_SIZE, SQLitePostingSource
from .verify import IntegrityFinding, IntegrityReport, verify_database

#: The old name of :class:`SQLiteStore`, kept for its one remaining user,
#: ``benchmarks/e2e/workloads.py``; nothing else may import it.
SegmentedStore = SQLiteStore

__all__ = [
    "StorageError",
    "DocumentNotFound",
    "DocumentAlreadyStored",
    "SchemaVersionError",
    "LabelRow",
    "ElementRow",
    "CREATE_TABLES_SQL",
    "SCHEMA_VERSION",
    "encode_dewey",
    "decode_dewey",
    "ShreddedDocument",
    "shred_tree",
    "SQLiteStore",
    "BASE_GENERATION",
    "SEGMENT_KIND_DOC",
    "SEGMENT_KIND_TOMBSTONE",
    "SQLitePostingSource",
    "DEFAULT_POSTING_LRU_SIZE",
    "IntegrityFinding",
    "IntegrityReport",
    "verify_database",
]
