"""Regression tests for the bench-honesty guards the lint gate requires.

``write_core_bench`` is the one ``BENCH_*.json`` writer; it must refuse to
persist an artefact whose verification did not run.  These tests pin the
refusal paths the ``bench-honesty`` lint rule assumes exist.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import require_verified_payload, write_core_bench
from repro.bench.core_bench import AnswerParityError


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


def drop_last_sqlite_fragment(engine, backend):
    """Corrupt the sqlite engine: every answer loses its last fragment."""
    if backend != "sqlite":
        return
    search = engine.search

    def corrupted(query, algorithm="validrtf"):
        result = search(query, algorithm)
        return replace(result, fragments=result.fragments[:-1])

    engine.search = corrupted


def drop_last_root(engine, backend):
    """Corrupt the ELCA stage: ``getLCA`` loses its last root."""
    pipeline = engine.algorithm("validrtf")
    lca_function = pipeline.lca_function
    pipeline.lca_function = lambda lists: lca_function(lists)[:-1]


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
            backends=backends, repetitions=1,
            specs={"dblp": paper_q2_spec()})

    def test_clean_engines_pass(self, monkeypatch):
        payload = self.run(monkeypatch, lambda engine, backend: None,
                           ("memory", "sqlite"))
        assert payload["protocol"]["verified_parity"]
        assert {summary["backend"] for summary in payload["summary"]} == \
            {"memory", "sqlite"}

    def test_backend_answer_differing_from_memory_raises(self, monkeypatch):
        with pytest.raises(AnswerParityError, match="sqlite"):
            self.run(monkeypatch, drop_last_sqlite_fragment,
                     ("memory", "sqlite"))

    def test_memory_roots_differing_from_naive_raise(self, monkeypatch):
        # A memory-only run (what CI's perf-smoke does) still has the naive
        # ELCA/SLCA definitions to answer to.
        with pytest.raises(AnswerParityError, match="naive_elca"):
            self.run(monkeypatch, drop_last_root, ("memory",))

    @pytest.mark.parametrize("corrupt,backends", [
        (drop_last_sqlite_fragment, ("memory", "sqlite")),
        (drop_last_root, ("memory",)),
    ], ids=["backend-parity", "naive-oracle"])
    def test_nothing_is_timed_before_the_checks_pass(self, monkeypatch,
                                                      corrupt, backends):
        import repro.bench.core_bench as core_bench

        timed = []
        monkeypatch.setattr(core_bench, "alternating_passes",
                            lambda runs, repetitions: timed.append(runs))
        with pytest.raises(AnswerParityError):
            self.run(monkeypatch, corrupt, backends)
        assert timed == []

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
