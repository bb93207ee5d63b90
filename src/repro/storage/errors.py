"""Exception types raised by the relational storage substrate."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for errors raised by :mod:`repro.storage`."""


class DocumentNotFound(StorageError):
    """Raised when a document name is not present in the store."""


class DocumentAlreadyStored(StorageError):
    """Raised when shredding a document under an already-used name."""


class SchemaVersionError(StorageError):
    """Raised when a database file does not carry the current schema version.

    Files are never migrated: one written with another layout (or before
    files were stamped at all) is re-indexed into a new file.
    """


class DatabaseFileError(StorageError):
    """Raised when a store's path cannot be opened as a SQLite database:
    a directory, a missing directory, or a file that is not a database."""
