"""Relational shredding store: the Section 5.2 schema on sqlite3 / in-memory."""

from .errors import DocumentAlreadyStored, DocumentNotFound, StorageError
from .schema import (
    CREATE_TABLES_SQL,
    ElementRow,
    LabelRow,
    ValueRow,
    decode_dewey,
    encode_dewey,
)
from .shredder import ShreddedDocument, packed_posting_rows, shred_tree
from .memory_backend import MemoryStore
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
    StorePostingSource,
    agreement_with_index,
    source_for_store,
)
from .verify import IntegrityFinding, IntegrityReport, verify_database

__all__ = [
    "StorageError",
    "DocumentNotFound",
    "DocumentAlreadyStored",
    "LabelRow",
    "ElementRow",
    "ValueRow",
    "CREATE_TABLES_SQL",
    "encode_dewey",
    "decode_dewey",
    "ShreddedDocument",
    "packed_posting_rows",
    "shred_tree",
    "MemoryStore",
    "SQLiteStore",
    "SegmentedStore",
    "SegmentedPostingSource",
    "BASE_GENERATION",
    "SEGMENT_KIND_DOC",
    "SEGMENT_KIND_TOMBSTONE",
    "StorePostingSource",
    "SQLitePostingSource",
    "DEFAULT_POSTING_LRU_SIZE",
    "source_for_store",
    "agreement_with_index",
    "IntegrityFinding",
    "IntegrityReport",
    "verify_database",
]
