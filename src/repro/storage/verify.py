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
* **catalog** — every ``doc`` segment event owns label *and* element rows;
  tombstone events own no payload rows; no payload row is orphaned from
  the ``segment`` catalog.
* **liveness** — every document named by any base table has element rows
  (the base row sets are complete), and every value row, base and
  segment, names a node of its generation's element rows.
* **posting blobs** — each packed posting blob (base and segment) decodes,
  its recorded cardinality matches the decoded length, and the decoded
  Dewey list equals the distinct value-row deweys for that
  (document, keyword) — the blob is a faithful derived artefact.
* **content ids** — each element row's stored cID (``content_feature_min``,
  ``content_feature_max``, base and segment) equals the MIN/MAX keyword of
  the node's value rows, or ``("", "")`` without any; ``minmax`` record
  trees read the cID from there instead of the value rows.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..index.packed import PackedDeweyList
from .errors import SchemaVersionError
from .schema import decode_dewey
from .sqlite_backend import SEGMENT_KIND_DOC, SEGMENT_KIND_TOMBSTONE, SQLiteStore

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
    the one ``schema-version`` finding.
    """
    report = IntegrityReport(path=str(path))
    try:
        _check_sqlite(path)
        store = SQLiteStore(path)
    except sqlite3.DatabaseError as error:
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
        _check_posting_blobs(connection, report)
        _check_content_ids(connection, report)
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
    payload_tables = ("segment_label", "segment_element", "segment_value",
                      "segment_posting")
    owned: Dict[Tuple[int, str], Dict[str, int]] = {}
    for table in payload_tables:
        for segment, document, count in connection.execute(
                f"SELECT segment_id, document, COUNT(*) FROM {table} "
                f"GROUP BY segment_id, document"):
            owner = owned.setdefault((int(segment), document), {})
            owner[table] = int(count)
    for key, counts in sorted(owned.items()):
        segment, document = key
        kind = events.get(key)
        if kind is None:
            report.error(
                "catalog-orphan-rows",
                f"{sum(counts.values())} payload row(s) for segment "
                f"{segment} of {document!r} have no catalog entry")
        elif kind == SEGMENT_KIND_TOMBSTONE:
            report.error(
                "tombstone-with-rows",
                f"tombstone segment {segment} of {document!r} owns "
                f"{sum(counts.values())} payload row(s)")
    for key, kind in sorted(events.items()):
        if kind != SEGMENT_KIND_DOC:
            continue
        segment, document = key
        counts = owned.get(key, {})
        for table in ("segment_label", "segment_element"):
            if not counts.get(table):
                report.error(
                    "catalog-missing-rows",
                    f"doc segment {segment} of {document!r} has no "
                    f"{table} rows — torn write")


def _check_liveness(connection: Any, report: IntegrityReport) -> None:
    elements = {document for (document,) in connection.execute(
        "SELECT DISTINCT document FROM element")}
    for table in ("label", "value", "posting"):
        for (document,) in connection.execute(
                f"SELECT DISTINCT document FROM {table}"):
            if document not in elements:
                report.error(
                    "base-orphan-rows",
                    f"base {table} rows for {document!r} have no element "
                    f"rows")
    for value, element, key in (
            ("value", "element", ("document", "dewey")),
            ("segment_value", "segment_element",
             ("segment_id", "document", "dewey"))):
        columns = ", ".join(key)
        for owner in connection.execute(
                f"SELECT DISTINCT {', '.join(key[:-1])} FROM {value} "
                f"WHERE ({columns}) NOT IN "
                f"(SELECT {columns} FROM {element})"):
            report.error(
                "value-dangling-node",
                f"{_owner(owner)}: {value} rows name deweys missing from "
                f"{element}")


def _check_posting_blobs(connection: Any, report: IntegrityReport) -> None:
    checks = (
        ("posting", "value",
         "SELECT document, keyword, cardinality, blob FROM posting",
         "SELECT DISTINCT dewey FROM value "
         "WHERE document = ? AND keyword = ? ORDER BY dewey", ()),
        ("segment_posting", "segment_value",
         "SELECT segment_id, document, keyword, cardinality, blob "
         "FROM segment_posting",
         "SELECT DISTINCT dewey FROM segment_value WHERE segment_id = ? "
         "AND document = ? AND keyword = ? ORDER BY dewey", ("segment_id",)),
    )
    for blob_table, truth_table, blob_sql, truth_sql, extra in checks:
        for row in connection.execute(blob_sql).fetchall():
            if extra:
                segment, document, keyword, cardinality, blob = row
                truth_key: Tuple[Any, ...] = (segment, document, keyword)
                where = f"segment {segment} of {document!r}"
            else:
                document, keyword, cardinality, blob = row
                truth_key = (document, keyword)
                where = f"base document {document!r}"
            try:
                decoded = PackedDeweyList.from_blob(blob)
            except (ValueError, TypeError) as error:
                report.error(
                    "posting-blob-corrupt",
                    f"{where}: blob for keyword {keyword!r} does not "
                    f"decode ({error})")
                continue
            if len(decoded) != int(cardinality):
                report.error(
                    "posting-cardinality-mismatch",
                    f"{where}: keyword {keyword!r} records cardinality "
                    f"{cardinality} but the blob holds {len(decoded)} "
                    f"posting(s)")
                continue
            truth = [decode_dewey(text) for (text,) in
                     connection.execute(truth_sql, truth_key)]
            blob_deweys = [tuple(dewey.components) for dewey in decoded]
            if blob_deweys != truth:
                report.error(
                    "posting-blob-mismatch",
                    f"{where}: blob deweys for keyword {keyword!r} do not "
                    f"match the {truth_table} ground truth")


def _check_content_ids(connection: Any, report: IntegrityReport) -> None:
    # SQLite compares TEXT bytewise (BINARY), which for UTF-8 is the
    # code-point order Python's min/max used when the rows were shredded.
    for element, value, key in (
            ("element", "value", ("document", "dewey")),
            ("segment_element", "segment_value",
             ("segment_id", "document", "dewey"))):
        columns = ", ".join(f"e.{column}" for column in key)
        joined = " AND ".join(f"v.{column} = e.{column}" for column in key)
        for row in connection.execute(
                f"SELECT {columns} FROM {element} AS e "
                f"LEFT JOIN {value} AS v ON {joined} GROUP BY {columns} "
                f"HAVING MIN(e.content_feature_min) "
                f"IS NOT COALESCE(MIN(v.keyword), '') "
                f"OR MIN(e.content_feature_max) "
                f"IS NOT COALESCE(MAX(v.keyword), '')"):
            *owner, dewey = row
            node = ".".join(str(part) for part in decode_dewey(dewey))
            report.error(
                "cid-mismatch",
                f"{_owner(owner)}: node {node} stores a cID that is not the "
                f"(min, max) of its {value} keywords")


def _owner(owner: Sequence[Any]) -> str:
    """Name one row set: ``(document,)`` of the base tables or
    ``(segment_id, document)`` of a delta segment."""
    if len(owner) == 2:
        return f"segment {owner[0]} of {owner[1]!r}"
    return f"base document {owner[0]!r}"
