"""Database integrity verification (``repro.cli verify --db``).

Treats integrity checking as a first-class database operation: run
SQLite's own page-level check, open the store (which checks the file's
schema stamp), then sweep the catalog, liveness, posting-blob and
content-id invariants that the segmented mutation model guarantees.
Returns a typed :class:`IntegrityReport` instead of printing, so the CLI,
the chaos smoke and the crash-point fuzzer all assert on the same object.

Checked invariants:

* **sqlite** — the file holds tables, ``PRAGMA integrity_check`` reads
  ``ok`` and the store opens; otherwise the report holds this one finding
  and the sweep stops.
* **schema version** — the file carries
  :data:`~repro.storage.schema.SCHEMA_VERSION` (``PRAGMA user_version``);
  otherwise the report holds this one finding and the sweep stops, since
  no other check means anything on another layout.
* **catalogue** — every event of the ``segment`` log has a known kind;
  every generation that owns rows is live in the catalogue or recorded
  dead in the log (``compact`` would never delete it otherwise); every live
  generation owns element rows; and no live generation is recorded dead
  (``compact`` would delete a live document's rows).

Then, generation by generation (the rows of one version of one document,
live or dead), the posting blobs are inverted into each node's word set and
checked:

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
    SEGMENT_KIND_DOC,
    SEGMENT_KIND_TOMBSTONE,
    SQLiteStore,
    existing_database,
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

    A file SQLite cannot read, or one that holds no tables, yields the one
    ``sqlite-integrity`` error finding instead of an exception, and a file
    with another schema version the one ``schema-version`` finding.  A
    missing path raises :class:`~repro.storage.errors.DatabaseFileError`:
    there is nothing to check, and connecting would create the file.
    """
    report = IntegrityReport(path=str(path))
    try:
        _check_sqlite(existing_database(path))
        store = SQLiteStore(path)
    except (sqlite3.DatabaseError, DatabaseFileError) as error:
        if not Path(path).exists():
            raise
        report.error("sqlite-integrity", str(error))
        return report
    except SchemaVersionError as error:
        report.error("schema-version", str(error))
        return report
    try:
        report.documents = len(store.documents())
        report.segments = store.segment_count()
        connection = store._connection
        names = _check_catalogue(connection, report)
        for (generation,) in connection.execute(
                "SELECT DISTINCT generation FROM element "
                "ORDER BY generation").fetchall():
            name = names.get(generation, f"generation {generation}")
            _check_generation(connection, generation, name, report)
        return report
    finally:
        store.close()


def _check_sqlite(path: str) -> None:
    """Raise ``sqlite3.DatabaseError`` unless SQLite's own check passes.

    Runs on a plain connection before the store opens, so the store's
    schema statements never touch a damaged file.  Like any first reader
    of a crashed file, it rolls back a hot rollback journal first.
    """
    with closing(sqlite3.connect(path)) as connection:
        problems = [problem for (problem,) in
                    connection.execute("PRAGMA integrity_check")]
    if problems != ["ok"]:
        raise sqlite3.DatabaseError(
            f"PRAGMA integrity_check failed: {'; '.join(problems[:5])}")


def _check_catalogue(connection: Any, report: IntegrityReport
                     ) -> Dict[int, str]:
    """Check the catalogue and the log against the generations that own
    rows; returns how the findings name each known generation."""
    live: Dict[int, str] = {
        int(generation): document for document, generation in
        connection.execute("SELECT document, generation FROM catalogue")}
    dead: Dict[int, str] = {}
    for segment, document, kind, dead_generation in connection.execute(
            "SELECT segment_id, document, kind, dead_generation "
            "FROM segment ORDER BY segment_id"):
        if kind not in (SEGMENT_KIND_DOC, SEGMENT_KIND_TOMBSTONE):
            report.error(
                "catalog-unknown-kind",
                f"segment {segment} of {document!r} has unknown kind "
                f"{kind!r}")
        if dead_generation is not None:
            dead[int(dead_generation)] = document
    owned: Dict[int, Dict[str, int]] = {}
    for table in ("element", "posting"):
        for generation, count in connection.execute(
                f"SELECT generation, COUNT(*) FROM {table} "
                f"GROUP BY generation"):
            owned.setdefault(int(generation), {})[table] = int(count)
    for generation, counts in sorted(owned.items()):
        if generation not in live and generation not in dead:
            report.error(
                "catalog-orphan-rows",
                f"{sum(counts.values())} row(s) of generation {generation} "
                f"are neither live in the catalogue nor recorded dead in "
                f"the segment log")
    for generation, document in sorted(live.items()):
        if not owned.get(generation, {}).get("element"):
            report.error(
                "catalog-missing-rows",
                f"live generation {generation} of {document!r} has no "
                f"element rows — torn write")
        if generation in dead:
            report.error(
                "catalog-dead-live",
                f"live generation {generation} of {document!r} is recorded "
                f"dead in the segment log, so compact would delete it")
    names = {generation: f"dead generation {generation} of {document!r}"
             for generation, document in dead.items()}
    names.update({generation: f"generation {generation} of {document!r}"
                  for generation, document in live.items()})
    return names


def _check_generation(connection: Any, generation: int, name: str,
                      report: IntegrityReport) -> None:
    """Check one generation's blobs, then its element rows against the word
    sets the blobs give each node.  A live generation without element rows
    is reported by the catalogue check."""
    words: Dict[Tuple[int, ...], Set[str]] = {}
    for keyword, cardinality, blob, max_depth in connection.execute(
            "SELECT keyword, cardinality, blob, max_depth "
            "FROM posting WHERE generation = ?", (generation,)).fetchall():
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
            "SELECT dewey, label, content_feature_min, content_feature_max "
            "FROM element WHERE generation = ?", (generation,)):
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

