"""Relational shredding store: the Section 5.2 schema on sqlite3.

:class:`SQLiteStore` (and its segmented subclass) writes a document's rows
into a database file stamped with :data:`SCHEMA_VERSION`, and refuses a file
carrying any other version (:class:`SchemaVersionError`: re-index it).  A
posting source (:func:`source_for_store`) is the only reader of those rows.
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
    ValueRow,
    decode_dewey,
    encode_dewey,
)
from .shredder import ShreddedDocument, packed_posting_rows, shred_tree
from .sqlite_backend import SQLiteStore
from .segments import (
    BASE_GENERATION,
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SegmentedPostingSource,
    SegmentedStore,
)
from .posting_source import (
    DEFAULT_POSTING_LRU_SIZE,
    SQLitePostingSource,
    source_for_store,
)
from .verify import IntegrityFinding, IntegrityReport, verify_database

__all__ = [
    "StorageError",
    "DocumentNotFound",
    "DocumentAlreadyStored",
    "SchemaVersionError",
    "LabelRow",
    "ElementRow",
    "ValueRow",
    "CREATE_TABLES_SQL",
    "SCHEMA_VERSION",
    "encode_dewey",
    "decode_dewey",
    "ShreddedDocument",
    "packed_posting_rows",
    "shred_tree",
    "SQLiteStore",
    "SegmentedStore",
    "SegmentedPostingSource",
    "BASE_GENERATION",
    "SEGMENT_KIND_DOC",
    "SEGMENT_KIND_TOMBSTONE",
    "SQLitePostingSource",
    "DEFAULT_POSTING_LRU_SIZE",
    "source_for_store",
    "IntegrityFinding",
    "IntegrityReport",
    "verify_database",
]
