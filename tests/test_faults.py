"""Fault injection, journal recovery and integrity verification.

Unit coverage of the robustness substrate:

* :class:`repro.faults.FaultPlan` — spec parsing, deterministic schedules,
  fault budget / warm-up delay, metrics routing, connection wrapping.
* The mutation journal of :class:`repro.storage.SegmentedStore` — a crash
  at any journaled fault point leaves a database that the next open heals
  (roll back when the apply never committed, roll forward when only the
  journal clear was lost), with keyed replays answering the original
  segment id.
* :func:`repro.storage.verify_database` — clean databases pass, and
  hand-corrupted ones surface typed findings.
* :class:`repro.service.RetryPolicy` — backoff math and validation.

The end-to-end counterparts live in ``tests/test_service_parity.py``
(degraded answers, quarantine, retrying clients) and
``tests/test_corpus_fuzz.py`` (the crash-point differential fuzzer).
"""

from __future__ import annotations

import sqlite3
from random import Random

import pytest

from repro.datasets import publications_tree, team_tree
from repro.faults import FaultPlan, InjectedCrash, InjectedFault
from repro.obs import MetricsRegistry
from repro.obs import names as metric_names
from repro.service import RetryPolicy
from repro.storage import SegmentedStore, SQLiteStore, verify_database


# ---------------------------------------------------------------------- #
# FaultPlan: parsing and validation
# ---------------------------------------------------------------------- #
class TestFaultPlanParsing:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("seed=7, error=0.2, torn=0.1, latency=0.05, "
                               "latency-ms=3, delay=10, max-faults=5")
        assert plan.seed == 7
        assert plan.error_rate == 0.2
        assert plan.torn_rate == 0.1
        assert plan.latency_rate == 0.05
        assert plan.latency_seconds == 0.003
        assert plan.delay == 10
        assert plan.max_faults == 5

    def test_parse_empty_spec_is_a_quiet_plan(self):
        plan = FaultPlan.parse("")
        assert plan.error_rate == 0.0 and plan.max_faults is None

    @pytest.mark.parametrize("spec", ["bogus=1", "error", "error:0.5"])
    def test_parse_rejects_malformed_entries(self, spec):
        with pytest.raises(ValueError, match="bad fault-plan entry"):
            FaultPlan.parse(spec)

    def test_parse_rejects_unconvertible_values(self):
        with pytest.raises(ValueError, match="bad fault-plan value"):
            FaultPlan.parse("error=lots")

    @pytest.mark.parametrize("kwargs", [
        {"error_rate": 1.5}, {"torn_rate": -0.1}, {"latency_rate": 2.0},
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

    def test_torn_fault_commits_partial_write_at_apply_points(self):
        plan = FaultPlan(torn_rate=1.0)
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (x)")
        connection.commit()
        connection.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(InjectedCrash):
            plan.fault_point("update.apply", connection)
        connection.rollback()  # the crash-sim close; the tear committed
        assert connection.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 1

    def test_clean_crash_at_intent_points_does_not_commit(self):
        plan = FaultPlan(torn_rate=1.0)
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (x)")
        connection.commit()
        connection.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(InjectedCrash):
            plan.fault_point("update.intent", connection)
        connection.rollback()
        assert connection.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0


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


# ---------------------------------------------------------------------- #
# Journal recovery: every kill point heals on the next open
# ---------------------------------------------------------------------- #
def crash_at(point: str):
    """A fault hook simulating process death at one named kill point."""
    def hook(name, connection):
        if name == point:
            raise InjectedCrash(f"killed at {name}")
    return hook


def tear_at(point: str):
    """Like :func:`crash_at` but commits the partial write first."""
    def hook(name, connection):
        if name == point:
            connection.commit()
            raise InjectedCrash(f"torn at {name}")
    return hook


class TestJournalRecovery:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "journal.db")
        store = SegmentedStore(path)
        store.store_tree(publications_tree(), "publications")
        store.store_tree(team_tree(), "team")
        store.close()
        return path

    def crashed_update(self, db, hook):
        store = SegmentedStore(db)
        store.fault_hook = hook
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team")
        store.close()

    def test_crash_at_intent_rolls_back(self, db):
        self.crashed_update(db, crash_at("update.intent"))
        store = SegmentedStore(db)
        assert store.last_recovery == {"rolled_back": 1, "rolled_forward": 0}
        assert store.documents() == ["publications", "team"]
        assert store.segment_count() == 0
        store.close()
        assert verify_database(db).clean

    def test_torn_apply_rolls_back(self, db):
        self.crashed_update(db, tear_at("update.apply"))
        store = SegmentedStore(db)
        assert store.last_recovery == {"rolled_back": 1, "rolled_forward": 0}
        assert store.segment_count() == 0
        store.close()
        assert verify_database(db).clean

    def test_crash_after_apply_rolls_forward(self, db):
        self.crashed_update(db, crash_at("update.applied"))
        store = SegmentedStore(db)
        assert store.last_recovery == {"rolled_back": 0, "rolled_forward": 1}
        assert store.segment_count() == 1
        assert store.location_of("team") == 1
        store.close()
        assert verify_database(db).clean

    def test_crash_at_delete_intent_keeps_the_document(self, db):
        store = SegmentedStore(db)
        store.fault_hook = crash_at("delete.intent")
        with pytest.raises(InjectedCrash):
            store.delete_document("team")
        store.close()
        store = SegmentedStore(db)
        assert store.last_recovery["rolled_back"] == 1
        assert store.documents() == ["publications", "team"]
        store.close()

    def test_crash_after_delete_apply_rolls_forward(self, db):
        store = SegmentedStore(db)
        store.fault_hook = crash_at("delete.applied")
        with pytest.raises(InjectedCrash):
            store.delete_document("team")
        store.close()
        store = SegmentedStore(db)
        assert store.last_recovery["rolled_forward"] == 1
        assert store.documents() == ["publications"]
        store.close()
        assert verify_database(db).clean

    def test_next_mutation_recovers_without_a_reopen(self, db):
        store = SegmentedStore(db)
        store.fault_hook = crash_at("update.intent")
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team")
        # Same handle, no reopen: the next mutation heals the journal
        # before it begins (the serving stack's in-process path).
        store.fault_hook = None
        segment = store.update_document(team_tree(), "team")
        assert store.last_recovery["rolled_back"] == 1
        assert store.location_of("team") == segment
        store.close()
        assert verify_database(db).clean

    def test_keyed_replay_answers_the_original_segment(self, db):
        store = SegmentedStore(db)
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

    def test_rolled_forward_keyed_mutation_is_replayable(self, db):
        store = SegmentedStore(db)
        store.fault_hook = crash_at("update.applied")
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team",
                                  idempotency_key="put-9")
        store.close()
        store = SegmentedStore(db)
        assert store.last_recovery["rolled_forward"] == 1
        # Recovery flipped the keyed intent to done: a retry is a no-op.
        assert store.replay_of("put-9") == 1
        assert store.update_document(team_tree(), "team",
                                     idempotency_key="put-9") == 1
        assert store.segment_count() == 1
        store.close()


# ---------------------------------------------------------------------- #
# verify_database: clean passes, corruption surfaces typed findings
# ---------------------------------------------------------------------- #
class TestVerifyDatabase:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "verify.db")
        store = SegmentedStore(path)
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

    def test_segment_cid_mismatch_is_detected(self, db):
        # A node stripped of its value rows must store ("", "").
        with sqlite3.connect(db) as connection:
            connection.execute(
                "DELETE FROM segment_value WHERE dewey = "
                "(SELECT MIN(dewey) FROM segment_value)")
        report = verify_database(db)
        findings = [finding for finding in report.findings
                    if finding.code == "cid-mismatch"]
        assert len(findings) == 1
        assert "segment 1 of 'team'" in findings[0].message

    def test_torn_doc_segment_is_detected(self, db):
        with sqlite3.connect(db) as connection:
            connection.execute("DELETE FROM segment_element")
        report = verify_database(db)
        assert any(finding.code == "catalog-missing-rows"
                   for finding in report.findings)

    def test_report_notes_a_recovery(self, db):
        store = SegmentedStore(db)
        store.fault_hook = crash_at("update.intent")
        with pytest.raises(InjectedCrash):
            store.update_document(team_tree(), "team")
        store.close()
        report = verify_database(db)
        assert report.clean
        assert report.recovered["rolled_back"] == 1
        assert "recovered 1 interrupted mutation(s)" in report.render()


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
