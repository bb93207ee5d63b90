"""Database integrity verification (``repro.cli verify --db``).

Treats integrity checking as a first-class database operation: run
SQLite's own page-level check, open the store (which checks the file's
schema stamp), then sweep the catalog, liveness, posting-blob and
content-id invariants that the segmented mutation model guarantees.
Returns a typed :class:`IntegrityReport` instead of printing, so the CLI,
the chaos smoke and the crash-point fuzzer all assert on the same object.

Checked invariants:

* **sqlite** — ``PRAGMA integrity_check`` reads ``ok`` and the store
  opens; otherwise the report holds this one finding and the sweep stops.
* **schema version** — the file carries
  :data:`~repro.storage.schema.SCHEMA_VERSION` (``PRAGMA user_version``);
  otherwise the report holds this one finding and the sweep stops, since
  no other check means anything on another layout.
* **catalog** — every ``doc`` segment event owns element rows of its
  generation; tombstone events own no rows; no row of a delta generation
  is orphaned from the ``segment`` catalog.
* **liveness** — every document with base ``posting`` rows has base
  element rows (the base row sets are complete).

Then, generation by generation (the rows of one ``(document, generation)``
pair: a base document, or one delta segment of one document), the posting
blobs are inverted into each node's word set and checked:

* **posting blobs** — each blob decodes, its recorded cardinality matches
  the decoded length, its Dewey codes are strictly increasing in document
  order, its recorded ``max_depth`` is the decoded list's deepest level
  (the impact the corpus ranking bounds scores with), and every code it
  names has an element row (``posting-dangling-node``).
* **content ids** — each element row's stored cID (``content_feature_min``,
  ``content_feature_max``) is the (min, max) of the words whose blobs hold
  the node, or ``("", "")`` without any; record trees read the cID from
  there.
* **label words** — every word the tokenizer takes from an element's stored
  label has a blob holding the node.  Labels are stored apart from the
  blobs, so this checks the blobs against a second source.

What is not caught: a blob that loses or gains a node for a word that is
none of that node's min, max or label words.  No stored row repeats that
fact, so the file cannot contradict the blob.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple, Union

from ..index import PackedDeweyList, impact_from_postings
from ..text import DEFAULT_TOKENIZER, content_id
from .errors import DatabaseFileError, SchemaVersionError
from .schema import decode_dewey
from .sqlite_backend import (
    BASE_GENERATION,
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SQLiteStore,
    existing_database,
    generation_rows,
)

__all__ = ["IntegrityFinding", "IntegrityReport", "verify_database"]


@dataclass(frozen=True)
class IntegrityFinding:
    """One violated (or noteworthy) invariant."""

    code: str
    severity: str  # "error" | "info"
    message: str

    def payload(self) -> Dict[str, str]:
        return {"code": self.code, "severity": self.severity,
                "message": self.message}


@dataclass
class IntegrityReport:
    """The typed result of one verification sweep."""

    path: str
    documents: int = 0
    segments: int = 0
    findings: List[IntegrityFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not any(finding.severity == "error"
                       for finding in self.findings)

    def error(self, code: str, message: str) -> None:
        self.findings.append(IntegrityFinding(code, "error", message))

    def info(self, code: str, message: str) -> None:
        self.findings.append(IntegrityFinding(code, "info", message))

    def payload(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "clean": self.clean,
            "documents": self.documents,
            "segments": self.segments,
            "findings": [finding.payload() for finding in self.findings],
        }

    def render(self) -> str:
        lines = [f"verify {self.path}: "
                 f"{self.documents} live document(s), "
                 f"{self.segments} delta segment(s)"]
        for finding in self.findings:
            lines.append(f"  [{finding.severity}] {finding.code}: "
                         f"{finding.message}")
        lines.append("OK: all integrity checks passed" if self.clean
                     else "FAIL: integrity violations found")
        return "\n".join(lines)


def verify_database(path: Union[str, Path]) -> IntegrityReport:
    """Check ``path`` with SQLite, then open it and sweep every invariant.

    A file SQLite cannot read yields the one ``sqlite-integrity`` error
    finding instead of an exception, and a file with another schema version
    the one ``schema-version`` finding.  A missing path raises
    :class:`~repro.storage.errors.DatabaseFileError`: there is nothing to
    check, and connecting would create the file.
    """
    report = IntegrityReport(path=existing_database(path))
    try:
        _check_sqlite(path)
        store = SQLiteStore(path)
    except (sqlite3.DatabaseError, DatabaseFileError) as error:
        report.error("sqlite-integrity", str(error))
        return report
    except SchemaVersionError as error:
        report.error("schema-version", str(error))
        return report
    try:
        report.documents = len(store.documents())
        report.segments = store.segment_count()
        connection = store._connection
        _check_catalog(connection, report)
        _check_liveness(connection, report)
        for generation, document in connection.execute(
                "SELECT DISTINCT generation, document FROM element "
                "ORDER BY generation, document").fetchall():
            _check_generation(connection, document, generation, report)
        return report
    finally:
        store.close()


def _check_sqlite(path: Union[str, Path]) -> None:
    """Raise ``sqlite3.DatabaseError`` unless SQLite's own check passes.

    Runs on a plain connection before the store opens, so the store's
    schema statements never touch a damaged file.  Like any first reader
    of a crashed file, it rolls back a hot rollback journal first.
    """
    with closing(sqlite3.connect(str(path))) as connection:
        problems = [problem for (problem,) in
                    connection.execute("PRAGMA integrity_check")]
    if problems != ["ok"]:
        raise sqlite3.DatabaseError(
            f"PRAGMA integrity_check failed: {'; '.join(problems[:5])}")


def _check_catalog(connection: Any, report: IntegrityReport) -> None:
    events: Dict[Tuple[int, str], str] = {
        (int(segment), document): kind
        for segment, document, kind in connection.execute(
            "SELECT segment_id, document, kind FROM segment")}
    for (segment, document), kind in sorted(events.items()):
        if kind not in (SEGMENT_KIND_DOC, SEGMENT_KIND_TOMBSTONE):
            report.error(
                "catalog-unknown-kind",
                f"segment {segment} of {document!r} has unknown kind "
                f"{kind!r}")
    owned: Dict[Tuple[int, str], Dict[str, int]] = {}
    for table in ("element", "posting"):
        for generation, document, count in connection.execute(
                f"SELECT generation, document, COUNT(*) FROM {table} "
                f"WHERE generation != ? GROUP BY generation, document",
                (BASE_GENERATION,)):
            owner = owned.setdefault((int(generation), document), {})
            owner[table] = int(count)
    for (generation, document), counts in sorted(owned.items()):
        kind = events.get((generation, document))
        if kind is None:
            report.error(
                "catalog-orphan-rows",
                f"{sum(counts.values())} row(s) of generation {generation} "
                f"of {document!r} have no catalog entry")
        elif kind == SEGMENT_KIND_TOMBSTONE:
            report.error(
                "tombstone-with-rows",
                f"tombstone segment {generation} of {document!r} owns "
                f"{sum(counts.values())} row(s)")
    for (segment, document), kind in sorted(events.items()):
        if kind == SEGMENT_KIND_DOC and \
                not owned.get((segment, document), {}).get("element"):
            report.error(
                "catalog-missing-rows",
                f"doc segment {segment} of {document!r} has no element "
                f"rows — torn write")


def _check_liveness(connection: Any, report: IntegrityReport) -> None:
    elements = {document for (document,) in connection.execute(
        "SELECT DISTINCT document FROM element WHERE generation = ?",
        (BASE_GENERATION,))}
    for (document,) in connection.execute(
            "SELECT DISTINCT document FROM posting WHERE generation = ?",
            (BASE_GENERATION,)):
        if document not in elements:
            report.error(
                "base-orphan-rows",
                f"base posting rows for {document!r} have no element rows")


def _check_generation(connection: Any, document: str, generation: int,
                      report: IntegrityReport) -> None:
    """Check one generation's blobs, then its element rows against the word
    sets the blobs give each node.  Rows of a generation without element
    rows are reported by the catalog and liveness checks."""
    where, scope = generation_rows(document, generation)
    name = (f"base document {document!r}" if generation == BASE_GENERATION
            else f"segment {generation} of {document!r}")
    words: Dict[Tuple[int, ...], Set[str]] = {}
    for keyword, cardinality, blob, max_depth in connection.execute(
            f"SELECT keyword, cardinality, blob, max_depth "
            f"FROM posting WHERE {where}", scope).fetchall():
        try:
            decoded = PackedDeweyList.from_blob(blob)
        except (ValueError, TypeError) as error:
            report.error(
                "posting-blob-corrupt",
                f"{name}: blob for keyword {keyword!r} does not decode "
                f"({error})")
            continue
        nodes = [tuple(components) for components in decoded.iter_slices()]
        if len(nodes) != int(cardinality):
            report.error(
                "posting-cardinality-mismatch",
                f"{name}: keyword {keyword!r} records cardinality "
                f"{cardinality} but the blob holds {len(nodes)} posting(s)")
        if any(left >= right for left, right in zip(nodes, nodes[1:])):
            report.error(
                "posting-blob-order",
                f"{name}: blob for keyword {keyword!r} is not strictly "
                f"increasing in document order")
        deepest = impact_from_postings(decoded).max_depth
        if deepest != int(max_depth):
            report.error(
                "posting-impact-mismatch",
                f"{name}: keyword {keyword!r} records max_depth "
                f"{max_depth} but its deepest posting is at level {deepest}")
        for node in nodes:
            words.setdefault(node, set()).add(keyword)
    for dewey, label, low, high in connection.execute(
            f"SELECT dewey, label, content_feature_min, content_feature_max "
            f"FROM element WHERE {where}", scope):
        held = words.pop(decode_dewey(dewey), set())
        if (low, high) != content_id(held):
            report.error(
                "cid-mismatch",
                f"{name}: node {dewey} stores a cID that is not the "
                f"(min, max) of the words whose posting blobs hold it")
        missing = sorted(set(DEFAULT_TOKENIZER.tokenize(label)) - held)
        if missing:
            report.error(
                "label-word-missing",
                f"{name}: no posting blob of label word(s) "
                f"{', '.join(missing)} holds node {dewey}")
    if words:
        report.error(
            "posting-dangling-node",
            f"{name}: posting blobs name {len(words)} node(s) with no "
            f"element row")

