"""Fault injection, crash atomicity and integrity verification.

Unit coverage of the robustness substrate:

* :class:`repro.faults.FaultPlan` — spec parsing, deterministic schedules,
  fault budget / warm-up delay, metrics routing, connection wrapping.
* One transaction per write of :class:`repro.storage.SQLiteStore` — a
  failure or crash before the
  commit leaves the pre-mutation store, one after it the post-mutation
  store, with keyed replays answering the original segment id.  Killing
  a child process with ``SIGKILL`` mid-mutation proves SQLite's rollback
  journal restores the file.
* :func:`repro.storage.verify_database` — clean databases pass, and
  hand-corrupted ones surface typed findings.
* :class:`repro.service.RetryPolicy` — backoff math and validation.

The end-to-end counterparts live in ``tests/test_service_parity.py``
(degraded answers, quarantine, retrying clients) and
``tests/test_corpus_fuzz.py`` (the crash-point differential fuzzer).
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path
from random import Random

import pytest

import repro
from fuzz_util import crash_at, fresh_oracle, segmented_engine, wire_lines
from repro.cli import main
from repro.datasets import default_dblp_tree, publications_tree, team_tree
from repro.faults import FaultPlan, InjectedCrash, InjectedFault
from repro.index import PackedDeweyList, pack_component_tuples
from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.service import RetryPolicy
from repro.storage import SQLiteStore, encode_dewey, verify_database


# ---------------------------------------------------------------------- #
# FaultPlan: parsing and validation
# ---------------------------------------------------------------------- #
class TestFaultPlanParsing:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("seed=7, error=0.2, latency=0.05, "
                               "latency-ms=3, delay=10, max-faults=5")
        assert plan.seed == 7
        assert plan.error_rate == 0.2
        assert plan.latency_rate == 0.05
        assert plan.latency_seconds == 0.003
        assert plan.delay == 10
        assert plan.max_faults == 5

    def test_parse_empty_spec_is_a_quiet_plan(self):
        plan = FaultPlan.parse("")
        assert plan.error_rate == 0.0 and plan.max_faults is None

    @pytest.mark.parametrize("spec", ["bogus=1", "error", "error:0.5",
                                      "torn=0.1"])
    def test_parse_rejects_malformed_entries(self, spec):
        with pytest.raises(ValueError, match="bad fault-plan entry"):
            FaultPlan.parse(spec)

    def test_parse_rejects_unconvertible_values(self):
        with pytest.raises(ValueError, match="bad fault-plan value"):
            FaultPlan.parse("error=lots")

    @pytest.mark.parametrize("kwargs", [
        {"error_rate": 1.5}, {"latency_rate": 2.0},
        {"latency_seconds": -1.0}, {"delay": -1}, {"max_faults": -1},
    ])
    def test_constructor_validates_settings(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_describe_names_the_budget(self):
        assert "budget=unbounded" in FaultPlan().describe()
        assert "budget=3" in FaultPlan(max_faults=3).describe()


# ---------------------------------------------------------------------- #
# FaultPlan: deterministic schedules, budget, delay
# ---------------------------------------------------------------------- #
def fault_schedule(plan: FaultPlan, statements: int) -> list:
    """Which statement ordinals fault under ``plan`` (deterministically)."""
    faulted = []
    for index in range(statements):
        try:
            plan.before_statement("SELECT 1")
        except InjectedFault:
            faulted.append(index)
    return faulted


class TestFaultPlanSchedules:
    def test_same_seed_faults_the_same_statements(self):
        first = fault_schedule(FaultPlan(seed=11, error_rate=0.3), 200)
        second = fault_schedule(FaultPlan(seed=11, error_rate=0.3), 200)
        assert first and first == second

    def test_different_seeds_fault_differently(self):
        first = fault_schedule(FaultPlan(seed=1, error_rate=0.3), 200)
        second = fault_schedule(FaultPlan(seed=2, error_rate=0.3), 200)
        assert first != second

    def test_budget_bounds_total_faults(self):
        plan = FaultPlan(seed=3, error_rate=1.0, max_faults=4)
        assert fault_schedule(plan, 100) == [0, 1, 2, 3]
        assert plan.injected["error"] == 4

    def test_delay_spares_leading_statements(self):
        plan = FaultPlan(seed=3, error_rate=1.0, delay=5)
        assert fault_schedule(plan, 8) == [5, 6, 7]

    def test_injected_errors_are_operational_errors(self):
        plan = FaultPlan(error_rate=1.0)
        with pytest.raises(sqlite3.OperationalError):
            plan.before_statement("SELECT 1")

    def test_bind_routes_fault_counts_into_metrics(self):
        plan = FaultPlan(seed=5, error_rate=1.0, latency_rate=1.0,
                         latency_seconds=0.0, max_faults=6)
        metrics = MetricsRegistry()
        plan.bind(metrics)
        fault_schedule(plan, 10)
        counters = metrics.snapshot()["counters"]
        total = sum(count for name, count in counters.items()
                    if name.startswith(metric_names.FAULTS_INJECTED))
        assert total == 6 == sum(plan.injected.values())


# ---------------------------------------------------------------------- #
# The storage seam: wrapped connections and stores
# ---------------------------------------------------------------------- #
class TestFaultingConnection:
    def test_wrapped_execute_consults_the_plan(self):
        plan = FaultPlan(error_rate=1.0)
        wrapped = plan.wrap(sqlite3.connect(":memory:"))
        with pytest.raises(InjectedFault):
            wrapped.execute("SELECT 1")
        with pytest.raises(InjectedFault):
            wrapped.cursor().execute("SELECT 1")

    def test_quiet_plan_passes_statements_through(self):
        plan = FaultPlan()
        wrapped = plan.wrap(sqlite3.connect(":memory:"))
        wrapped.execute("CREATE TABLE t (x)")
        wrapped.cursor().executemany("INSERT INTO t VALUES (?)",
                                     [(1,), (2,)])
        wrapped.commit()
        assert wrapped.execute(
            "SELECT COUNT(*) FROM t").fetchone()[0] == 2

    def test_store_level_faults_surface_as_operational_errors(self, tmp_path):
        store = SQLiteStore(str(tmp_path / "faulty.db"))
        store.store_tree(publications_tree(), "publications")
        store.set_fault_plan(FaultPlan(error_rate=1.0))
        with pytest.raises(sqlite3.OperationalError):
            store.documents()
        store.close()

    def test_failed_ingestion_leaks_no_rows_into_the_next_commit(
            self, tmp_path):
        # Fail each statement of store_tree in turn; the same handle's next
        # write must commit nothing of the failed document.
        for delay in itertools.count():
            path = str(tmp_path / f"ingest-{delay}.db")
            store = SQLiteStore(path)
            store.set_fault_plan(FaultPlan(error_rate=1.0, delay=delay,
                                           max_faults=1))
            try:
                store.store_tree(team_tree(), "team")
            except InjectedFault:
                pass
            else:
                store.close()
                break
            store.store_tree(publications_tree(), "publications")
            assert store.documents() == ["publications"], delay
            store.close()
            with closing(sqlite3.connect(path)) as connection:
                for table in ("label", "element", "posting"):
                    assert connection.execute(
                        f"SELECT COUNT(*) FROM {table} "
                        f"WHERE document = 'team'").fetchone() == (0,), \
                        (delay, table)
        assert delay >= 5  # every statement of store_tree failed once


# ---------------------------------------------------------------------- #
# Crash atomicity: a crash before the commit leaves the pre state, one
# after it the post state
# ---------------------------------------------------------------------- #
class TestJournalRecovery:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "journal.db")
        store = SQLiteStore(path)
        store.store_tree(publications_tree(), "publications")
        store.store_tree(team_tree(), "team")
        store.close()
        return path

    def crashed_update(self, db, hook):
        store = SQLiteStore(db)
        store.fault_hook = hook
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team")
        store.close()

    def test_crash_before_commit_leaves_the_pre_state(self, db):
        self.crashed_update(db, crash_at("update.apply"))
        store = SQLiteStore(db)
        assert store.documents() == ["publications", "team"]
        assert store.segment_count() == 0
        store.close()
        assert verify_database(db).clean

    def test_crash_after_commit_leaves_the_post_state(self, db):
        self.crashed_update(db, crash_at("update.applied"))
        store = SQLiteStore(db)
        assert store.segment_count() == 1
        assert store.location_of("team") == 1
        store.close()
        assert verify_database(db).clean

    def test_crash_before_delete_commit_keeps_the_document(self, db):
        store = SQLiteStore(db)
        store.fault_hook = crash_at("delete.apply")
        with pytest.raises(InjectedCrash):
            store.delete_document("team")
        store.close()
        store = SQLiteStore(db)
        assert store.documents() == ["publications", "team"]
        assert store.segment_count() == 0
        store.close()
        assert verify_database(db).clean

    def test_crash_after_delete_commit_removes_the_document(self, db):
        store = SQLiteStore(db)
        store.fault_hook = crash_at("delete.applied")
        with pytest.raises(InjectedCrash):
            store.delete_document("team")
        store.close()
        store = SQLiteStore(db)
        assert store.documents() == ["publications"]
        store.close()
        assert verify_database(db).clean

    def test_same_handle_applies_the_next_mutation(self, db):
        store = SQLiteStore(db)
        store.fault_hook = crash_at("update.apply")
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team")
        # Same handle, no reopen (the serving stack's in-process path):
        # the failed transaction rolled back, so the next one starts clean.
        store.fault_hook = None
        segment = store.update_document(team_tree(), "team")
        assert segment == 1
        assert store.location_of("team") == segment
        store.close()
        assert verify_database(db).clean

    def test_keyed_replay_answers_the_original_segment(self, db):
        store = SQLiteStore(db)
        segment = store.update_document(team_tree(), "team",
                                        idempotency_key="put-7")
        assert store.replay_of("put-7") == segment
        assert store.replay_of("unknown") is None
        assert store.replay_of(None) is None
        # The replayed call applies nothing — same id, no new segment.
        again = store.update_document(team_tree(), "team",
                                      idempotency_key="put-7")
        assert again == segment
        assert store.segment_count() == 1
        store.close()

    def test_keyed_mutation_crashed_after_commit_is_replayable(self, db):
        store = SQLiteStore(db)
        store.fault_hook = crash_at("update.applied")
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team",
                                  idempotency_key="put-9")
        store.close()
        store = SQLiteStore(db)
        # The ledger row committed with the segment: a retry is a no-op.
        assert store.replay_of("put-9") == 1
        assert store.update_document(team_tree(), "team",
                                     idempotency_key="put-9") == 1
        assert store.segment_count() == 1
        store.close()

    def test_failed_keyed_update_leaves_no_ledger_row(self, db):
        store = SQLiteStore(db)
        store.fault_hook = crash_at("update.apply", InjectedFault)
        with pytest.raises(InjectedFault):
            store.update_document(team_tree(), "team",
                                  idempotency_key="put-3")
        assert store.replay_of("put-3") is None
        store.fault_hook = None
        segment = store.update_document(team_tree(), "team",
                                        idempotency_key="put-3")
        assert store.segment_count() == 1
        assert store.replay_of("put-3") == segment
        store.close()


# ---------------------------------------------------------------------- #
# Real crashes: SIGKILL a child process in the middle of a mutation
# ---------------------------------------------------------------------- #
#: The child: open a store on ``argv[1]``, arm a kill for case ``argv[2]``,
#: run one mutation.  A ten-page cache spills the open transaction to the
#: database file before the kill, as a large write would.
CRASH_CHILD = """
import os, signal, sys
from repro.datasets import default_dblp_tree
from repro.storage import SQLiteStore

path, case = sys.argv[1], sys.argv[2]
store = SQLiteStore(path)
connection = store._connection
connection.execute("PRAGMA cache_size = 10")


def die(*_):
    os.kill(os.getpid(), signal.SIGKILL)


def kill_at(prefix):
    connection.set_trace_callback(
        lambda statement: statement.startswith(prefix) and die())


dblp = default_dblp_tree(publications=200)
if case == "update":
    kill_at("INSERT INTO segment_posting")
    store.update_document(dblp, "dblp")
elif case == "compact":
    store.update_document(dblp, "dblp")
    kill_at("INSERT INTO posting")
    store.compact()
elif case == "add":
    kill_at("INSERT INTO posting")
    store.store_tree(dblp, "dblp")
else:
    store.fault_hook = lambda name: name == "update.applied" and die()
    store.update_document(dblp, "dblp", idempotency_key="put-1")
sys.exit("the mutation finished without being killed")
"""

CRASH_QUERIES = ["efficient evaluation", "xml keyword", "player name"]


class TestRealCrashes:
    """A killed mutation leaves the store it began from, or the one it
    committed: SQLite's rollback journal is the recovery mechanism."""

    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = str(tmp_path / "corpus.db")
        store = SQLiteStore(path)
        store.store_tree(publications_tree(), "publications")
        store.store_tree(team_tree(), "team")
        store.close()
        return path

    @pytest.mark.parametrize("case, committed", [
        ("update", False), ("compact", True), ("add", False),
        ("applied", True),
    ])
    def test_sigkill_mid_mutation_leaves_a_clean_store(
            self, corpus_file, tmp_path, case, committed):
        path = str(tmp_path / "victim.db")
        shutil.copy(corpus_file, path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", CRASH_CHILD, path, case], env=env,
            capture_output=True, text=True, timeout=120)
        assert child.returncode == -signal.SIGKILL, child.stderr
        with closing(sqlite3.connect(path)) as connection:
            assert connection.execute(
                "PRAGMA integrity_check").fetchall() == [("ok",)]
        assert verify_database(path).clean
        # ``committed``: the dblp document is live.  The compact case
        # committed its update before the killed compaction began.
        state = {"publications": publications_tree(), "team": team_tree()}
        if committed:
            state["dblp"] = default_dblp_tree(publications=200)
        store = SQLiteStore(path)
        try:
            assert wire_lines(segmented_engine(store), CRASH_QUERIES) == \
                wire_lines(fresh_oracle(state), CRASH_QUERIES)
            if case == "applied":
                assert store.replay_of("put-1") == store.location_of("dblp")
        finally:
            store.close()


# ---------------------------------------------------------------------- #
# verify_database: clean passes, corruption surfaces typed findings
# ---------------------------------------------------------------------- #
def rewrite_blob(path, table, keyword, edit) -> None:
    """Re-pack ``keyword``'s blob in ``table`` from ``edit(nodes)``, given
    its nodes as component tuples, and record the new cardinality."""
    with sqlite3.connect(path) as connection:
        (blob,) = connection.execute(
            f"SELECT blob FROM {table} WHERE keyword = ?",
            (keyword,)).fetchone()
        nodes = edit([tuple(components) for components in
                      PackedDeweyList.from_blob(blob).iter_slices()])
        connection.execute(
            f"UPDATE {table} SET blob = ?, cardinality = ? "
            f"WHERE keyword = ?",
            (pack_component_tuples(nodes, presorted=True).to_blob(),
             len(nodes), keyword))


class TestVerifyDatabase:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "verify.db")
        store = SQLiteStore(path)
        store.store_tree(publications_tree(), "publications")
        store.update_document(team_tree(), "team")
        store.close()
        return path

    def test_clean_database_passes(self, db):
        report = verify_database(db)
        assert report.clean
        assert report.documents == 2
        assert report.segments == 1
        assert "OK: all integrity checks passed" in report.render()
        assert report.payload()["clean"] is True

    def test_orphaned_segment_rows_are_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute("DELETE FROM segment")
        report = verify_database(db)
        assert not report.clean
        assert any(finding.code == "catalog-orphan-rows"
                   for finding in report.findings)
        assert "FAIL" in report.render()

    def test_posting_cardinality_mismatch_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE posting SET cardinality = cardinality + 1")
        report = verify_database(db)
        assert any(finding.code == "posting-cardinality-mismatch"
                   for finding in report.findings)

    def test_corrupt_posting_blob_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute("UPDATE segment_posting SET blob = X'00'")
        report = verify_database(db)
        assert any(finding.code == "posting-blob-corrupt"
                   for finding in report.findings)

    def test_base_cid_mismatch_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE element SET content_feature_max = 'zzzzzz' "
                "WHERE rowid = (SELECT MIN(rowid) FROM element)")
        report = verify_database(db)
        findings = [finding for finding in report.findings
                    if finding.code == "cid-mismatch"]
        assert not report.clean
        assert len(findings) == 1
        assert "base document 'publications'" in findings[0].message

    def test_min_only_cid_mismatch_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE element SET content_feature_min = '' "
                "WHERE rowid = (SELECT MIN(rowid) FROM element)")
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["cid-mismatch"]

    def test_segment_cid_mismatch_is_detected(self, db):
        # Node 0.1.0.1 of the team document holds "position" and "forward",
        # its cID's min; the segment's "forward" blob loses the node.
        rewrite_blob(db, "segment_posting", "forward",
                     lambda nodes: [node for node in nodes
                                    if node != (0, 1, 0, 1)])
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["cid-mismatch"], report.render()
        assert "segment 1 of 'team'" in report.findings[0].message
        assert "node 0.1.0.1" in report.findings[0].message

    def test_segment_blob_nodes_without_element_are_detected(self, db):
        # Node 0.1.2.2 of the team document holds the words "number" and
        # "22"; its segment element row goes, the blobs naming it stay.
        with sqlite3.connect(db) as connection:
            connection.execute(
                "DELETE FROM segment_element WHERE dewey = ?",
                (encode_dewey((0, 1, 2, 2)),))
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["posting-dangling-node"], report.render()
        assert "segment 1 of 'team'" in report.findings[0].message

    def test_label_word_without_blob_is_detected(self, db):
        # The base "title" blob loses node 0.0, labelled "title"; its cID
        # is ("2008", "vldb"), so only the label check can see the loss.
        rewrite_blob(db, "posting", "title",
                     lambda nodes: [node for node in nodes if node != (0, 0)])
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["label-word-missing"], report.render()
        assert "base document 'publications'" in report.findings[0].message

    def test_reversed_blob_is_detected(self, db):
        rewrite_blob(db, "posting", "title", lambda nodes: nodes[::-1])
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["posting-blob-order"], report.render()

    def test_wrong_impact_metadata_is_detected(self, db):
        # "liu" is held by 0.2.0.0.0.0, at level 5.
        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE posting SET max_depth = 0 WHERE keyword = 'liu'")
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["posting-impact-mismatch"], report.render()

    def test_unknown_segment_kind_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute("UPDATE segment SET kind = 'snapshot'")
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["catalog-unknown-kind"], report.render()

    def test_tombstone_with_rows_is_detected(self, db):
        with SQLiteStore(db) as store:
            tombstone = store.delete_document("publications")
        with sqlite3.connect(db) as connection:
            connection.execute(
                "INSERT INTO segment_element (segment_id, document, label, "
                "dewey, label_number_sequence, content_feature_min, "
                "content_feature_max) VALUES (?, 'publications', 'bib', ?, "
                "'0', '', '')", (tombstone, encode_dewey((0,))))
        report = verify_database(db)
        assert "tombstone-with-rows" in [finding.code
                                         for finding in report.findings]

    def test_base_rows_without_elements_are_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute(
                "DELETE FROM element WHERE document = 'publications'")
        report = verify_database(db)
        assert [(finding.code, finding.message.split()[1])
                for finding in report.findings] == \
            [("base-orphan-rows", "label"), ("base-orphan-rows", "posting")]

    def test_torn_doc_segment_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute("DELETE FROM segment_element")
        report = verify_database(db)
        assert any(finding.code == "catalog-missing-rows"
                   for finding in report.findings)

    def test_zeroed_pages_report_sqlite_integrity(self, db, capsys):
        with open(db, "r+b") as handle:
            page_size = int.from_bytes(handle.read(18)[16:18], "big")
            size = handle.seek(0, os.SEEK_END)
            handle.seek(page_size)
            handle.write(bytes(size - page_size))
        report = verify_database(db)
        assert [finding.code for finding in report.findings] == \
            ["sqlite-integrity"]
        assert "FAIL" in report.render()
        assert main(["verify", "--db", db]) == 1
        assert "sqlite-integrity" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# RetryPolicy: backoff math
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"attempts": 0}, {"base_delay_seconds": -1.0},
        {"max_delay_seconds": -0.1}, {"jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_doubles_then_caps_without_jitter(self):
        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.5,
                             jitter=0.0)
        rng = Random(0)
        assert [policy.delay(n, rng) for n in (1, 2, 3, 4, 5)] == \
            [0.1, 0.2, pytest.approx(0.4), 0.5, 0.5]

    def test_jitter_scales_within_bounds(self):
        policy = RetryPolicy(base_delay_seconds=0.2, jitter=0.5)
        rng = Random(42)
        for retry in range(1, 6):
            raw = min(policy.max_delay_seconds,
                      policy.base_delay_seconds * (2 ** (retry - 1)))
            delay = policy.delay(retry, rng)
            assert raw * 0.5 <= delay <= raw

    def test_degraded_is_retryable_by_default(self):
        assert "degraded" in RetryPolicy().retry_codes
