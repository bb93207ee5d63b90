"""Regression tests for the bench-honesty guards the lint gate requires.

``write_core_bench`` and ``write_service_bench`` are the two ``BENCH_*.json``
writers; both must refuse to persist an artefact whose verification did not
run (or whose numbers are internally inconsistent).  These tests pin the
refusal paths the ``bench-honesty`` lint rule assumes exist.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import require_verified_payload, write_core_bench
from repro.bench.core_bench import AnswerParityError
from repro.service import (
    LoadReport,
    ServiceBenchIntegrityError,
    verify_service_reports,
    write_service_bench,
)


def good_report(**overrides):
    fields = dict(mode="closed", requests=4, concurrency=2,
                  algorithm="validrtf", elapsed_seconds=0.5,
                  latencies_ms=[1.0, 2.0, 3.0, 4.0])
    fields.update(overrides)
    return LoadReport(**fields)


class TestCoreBenchGuard:
    def test_unverified_payload_is_refused(self, tmp_path):
        target = tmp_path / "BENCH_core.json"
        with pytest.raises(AnswerParityError):
            write_core_bench({"protocol": {"verified_parity": False}}, target)
        assert not target.exists()

    def test_missing_protocol_block_is_refused(self, tmp_path):
        with pytest.raises(AnswerParityError):
            write_core_bench({"results": []}, tmp_path / "BENCH_core.json")

    def test_verified_payload_is_written(self, tmp_path):
        target = tmp_path / "BENCH_core.json"
        payload = {"protocol": {"verified_parity": True}, "results": []}
        require_verified_payload(payload)  # does not raise
        path = write_core_bench(payload, target)
        assert json.loads(path.read_text())["protocol"]["verified_parity"]


def paper_q2_spec():
    """A one-query dataset spec: the paper's Q2 over the publications tree."""
    from repro.bench.harness import DatasetSpec
    from repro.datasets import PAPER_QUERIES, publications_tree
    from repro.datasets.workload import WorkloadQuery

    return DatasetSpec(
        name="dblp",
        tree_factory=publications_tree,
        workload=(WorkloadQuery(
            label="Q2", keywords=tuple(PAPER_QUERIES["Q2"].split())),),
    )


class TestCoreBenchAnswerChecks:
    """``run_core_bench`` refuses to time an engine that answers wrong."""

    def run(self, monkeypatch, corrupt, backends):
        import repro.bench.core_bench as core_bench

        build = core_bench.engine_for_backend

        def corrupting_engine_for_backend(tree, backend, **kwargs):
            engine = build(tree, backend, **kwargs)
            corrupt(engine, backend)
            return engine

        monkeypatch.setattr(core_bench, "engine_for_backend",
                            corrupting_engine_for_backend)
        return core_bench.run_core_bench(
            backends=backends, repetitions=1, corpus_docs=0,
            specs={"dblp": paper_q2_spec()})

    def test_clean_engines_pass(self, monkeypatch):
        payload = self.run(monkeypatch, lambda engine, backend: None,
                           ("memory", "sqlite"))
        assert payload["protocol"]["verified_parity"]
        assert {summary["backend"] for summary in payload["summary"]} == \
            {"memory", "sqlite"}

    def test_backend_answer_differing_from_memory_raises(self, monkeypatch):
        def drop_last_fragment(engine, backend):
            if backend != "sqlite":
                return
            search = engine.search

            def corrupted(query, algorithm="validrtf"):
                result = search(query, algorithm)
                return replace(result, fragments=result.fragments[:-1])

            engine.search = corrupted

        with pytest.raises(AnswerParityError, match="sqlite"):
            self.run(monkeypatch, drop_last_fragment, ("memory", "sqlite"))

    def test_memory_roots_differing_from_naive_raise(self, monkeypatch):
        # A memory-only run (what CI's perf-smoke does) still has the naive
        # ELCA/SLCA definitions to answer to.
        def drop_last_root(engine, backend):
            pipeline = engine.algorithm("validrtf")
            lca_function = pipeline.lca_function
            pipeline.lca_function = lambda lists: lca_function(lists)[:-1]

        with pytest.raises(AnswerParityError, match="naive_elca"):
            self.run(monkeypatch, drop_last_root, ("memory",))


class TestServiceBenchGuard:
    def test_good_report_passes_and_is_written(self, tmp_path):
        report = good_report()
        verify_service_reports([report])  # does not raise
        path = write_service_bench(report, tmp_path / "BENCH_service.json")
        payload = json.loads(path.read_text())
        assert payload["service_bench"][0]["completed"] == 4

    def test_empty_report_list_is_refused(self):
        with pytest.raises(ServiceBenchIntegrityError):
            verify_service_reports([])

    def test_run_that_answered_nothing_is_refused(self, tmp_path):
        report = good_report(latencies_ms=[])
        with pytest.raises(ServiceBenchIntegrityError):
            write_service_bench(report, tmp_path / "BENCH_service.json")
        assert not (tmp_path / "BENCH_service.json").exists()

    def test_non_positive_elapsed_is_refused(self):
        with pytest.raises(ServiceBenchIntegrityError):
            verify_service_reports([good_report(elapsed_seconds=0.0)])

    def test_negative_latency_is_refused(self):
        with pytest.raises(ServiceBenchIntegrityError):
            verify_service_reports([good_report(latencies_ms=[1.0, -0.5])])

    def test_error_only_run_still_counts_as_answered(self):
        report = good_report(latencies_ms=[],
                             errors={"overloaded": 4})
        verify_service_reports([report])  # typed errors are real answers

    def test_integrity_error_is_an_assertion(self):
        # The guard doubles as a test-style assertion for harness callers.
        assert issubclass(ServiceBenchIntegrityError, AssertionError)

    def test_stats_metrics_divergence_is_refused(self):
        # The stats dict is derived from the registry, so a report whose two
        # views disagree can only mean double bookkeeping crept back in.
        report = good_report(
            server_stats={"batcher": {"requests": 5, "batches": 1}},
            server_metrics={"counters": {"batcher.requests": 3,
                                         "batcher.batches": 1},
                            "gauges": {}, "histograms": {}},
        )
        with pytest.raises(ServiceBenchIntegrityError,
                           match="batcher.requests"):
            verify_service_reports([report])

    def test_impossible_counter_and_histogram_are_refused(self):
        negative = good_report(server_metrics={
            "counters": {"batcher.requests": -1},
            "gauges": {}, "histograms": {}})
        with pytest.raises(ServiceBenchIntegrityError, match="impossible"):
            verify_service_reports([negative])
        torn = good_report(server_metrics={
            "counters": {},
            "gauges": {},
            "histograms": {"batcher.queue_wait.seconds": {
                "buckets": [1.0], "counts": [1, 0], "count": 3,
                "sum": 0.5, "max": 0.5}}})
        with pytest.raises(ServiceBenchIntegrityError, match="bucket"):
            verify_service_reports([torn])


class TestObservabilityOverheadBench:
    def test_overhead_section_shape(self):
        from repro.bench.core_bench import run_obs_overhead_bench

        section = run_obs_overhead_bench(repetitions=2,
                                         specs={"dblp": paper_q2_spec()})
        assert section["dataset"] == "dblp"
        # one entry per (query, algorithm); both sides measured
        assert len(section["entries"]) == 2
        for entry in section["entries"]:
            assert entry["plain_ms"] > 0
            assert entry["instrumented_ms"] > 0
        assert section["instrumented_over_plain"] > 0
        # the instrumented engine really recorded every run it made:
        # (1 warm-up + 2 timed passes) per (query, algorithm) pair
        assert section["queries_recorded"] == 6
