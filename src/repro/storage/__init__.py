"""Relational shredding store: the Section 5.2 schema on sqlite3.

:class:`SQLiteStore` writes a document's ``element`` and ``posting`` rows
into a database file stamped with :data:`SCHEMA_VERSION`, and refuses a
file carrying any other version (:class:`SchemaVersionError`: re-index it)
or no database at all (:class:`DatabaseFileError`).  A reader checks its
path with :func:`existing_database`, so no read creates a file or a schema.
Every row is keyed by a generation the file never reuses; the catalogue
maps each live document to its generation, and the segment log records the
generations updates and deletes made dead, which compaction deletes.  A
:class:`SQLitePostingSource` is the only reader of those rows; it serves the
generation its document lived in at its first read.
"""

from .errors import (
    DatabaseFileError,
    DocumentAlreadyStored,
    DocumentNotFound,
    SchemaVersionError,
    StorageError,
)
from .schema import (
    CREATE_TABLES_SQL,
    SCHEMA_VERSION,
    ElementRow,
    decode_dewey,
    encode_dewey,
)
from .shredder import ShreddedDocument, shred_tree
from .sqlite_backend import (
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SQLiteStore,
    existing_database,
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
    "DatabaseFileError",
    "ElementRow",
    "CREATE_TABLES_SQL",
    "SCHEMA_VERSION",
    "encode_dewey",
    "decode_dewey",
    "ShreddedDocument",
    "shred_tree",
    "SQLiteStore",
    "existing_database",
    "SEGMENT_KIND_DOC",
    "SEGMENT_KIND_TOMBSTONE",
    "SQLitePostingSource",
    "DEFAULT_POSTING_LRU_SIZE",
    "IntegrityFinding",
    "IntegrityReport",
    "verify_database",
]
