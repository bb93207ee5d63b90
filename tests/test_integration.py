"""End-to-end integration tests across subsystems.

These exercise the full stack — dataset generator → (optionally) relational
store → inverted index → LCA computation → RTF construction → pruning →
metrics — the way the examples and benchmarks use it, on small synthetic
documents so they stay fast.
"""

from __future__ import annotations

import pytest

from repro.bench import DatasetSpec, figure5_rows, run_core_bench
from repro.core import SearchEngine, effectiveness
from repro.datasets import PAPER_QUERIES, dblp_workload, xmark_workload
from repro.storage import SQLiteStore
from repro.xmltree import parse_string, to_xml_string


class TestStoreBackedSearchMatchesEngine:
    """Stage 1 via SQL must give exactly the same final fragments."""

    def test_dblp_workload_subset(self, store_engine, small_dblp):
        engine = SearchEngine(small_dblp)
        stored = store_engine(small_dblp, SQLiteStore(), "dblp")
        for workload_query in dblp_workload()[:6]:
            query = workload_query.text
            for algorithm in ("validrtf", "maxmatch"):
                from_engine = engine.search(query, algorithm)
                from_store = stored.search(query, algorithm)
                assert from_engine.roots() == from_store.roots(), query
                assert [f.kept_set() for f in from_engine] == \
                    [f.kept_set() for f in from_store], query

    def test_xmark_workload_subset(self, store_engine, small_xmark):
        engine = SearchEngine(small_xmark)
        stored = store_engine(small_xmark, SQLiteStore(), "xmark")
        for workload_query in xmark_workload()[:4]:
            from_engine = engine.search(workload_query.text, "validrtf")
            from_store = stored.search(workload_query.text, "validrtf")
            assert from_engine.roots() == from_store.roots()


class TestSerializationRoundTrip:
    """Writing a document to XML and re-parsing it preserves search results."""

    def test_figure_instance_round_trip(self, publications):
        reparsed = parse_string(to_xml_string(publications))
        original_engine = SearchEngine(publications)
        reparsed_engine = SearchEngine(reparsed)
        for query_name in ("Q1", "Q2", "Q3"):
            query = PAPER_QUERIES[query_name]
            original = original_engine.search(query, "validrtf")
            round_tripped = reparsed_engine.search(query, "validrtf")
            assert original.roots() == round_tripped.roots()
            assert [f.kept_set() for f in original] == \
                [f.kept_set() for f in round_tripped]

    def test_synthetic_round_trip(self, small_dblp):
        reparsed = parse_string(to_xml_string(small_dblp))
        assert reparsed.size() == small_dblp.size()
        original = SearchEngine(small_dblp).search("xml keyword", "validrtf")
        round_tripped = SearchEngine(reparsed).search("xml keyword", "validrtf")
        assert original.roots() == round_tripped.roots()


class TestWorkloadLevelConsistency:
    """Consistency checks across a whole (small) workload run."""

    @pytest.fixture(scope="class")
    def small_run(self, small_dblp):
        spec = DatasetSpec(name="dblp-small",
                           tree_factory=lambda: small_dblp,
                           workload=tuple(dblp_workload()[:8]))
        # Each query is timed once; `alternating_passes` keeps the collector
        # out of the timed passes, so the bound below compares the
        # algorithms, not a collection of the test session's heap.
        return run_core_bench(repetitions=1, limit=8,
                              specs={"dblp-small": spec})

    def test_summary_bounds(self, small_run):
        summary = small_run["figures"]["dblp-small"]["summary"]
        assert 0.0 <= summary["mean_cfr"] <= 1.0
        assert 0.0 <= summary["mean_max_apr"] <= 1.0
        assert summary["queries"] == 8

    def test_validrtf_never_slower_by_orders_of_magnitude(self, small_run):
        for row in figure5_rows(small_run, "dblp-small"):
            assert row["validrtf_ms"] < row["maxmatch_ms"] * 20

    def test_effectiveness_recomputable_from_results(self, small_dblp, small_run):
        engine = SearchEngine(small_dblp)
        for row in small_run["figures"]["dblp-small"]["rows"][:3]:
            validrtf = engine.search(row["keywords"], "validrtf")
            maxmatch = engine.search(row["keywords"], "maxmatch")
            report = effectiveness(maxmatch, validrtf)
            assert round(report.cfr, 4) == row["cfr"]
            assert round(report.max_apr, 4) == row["max_apr"]


class TestCrossAlgorithmRelationships:
    def test_slca_results_are_subset_of_elca_results(self, small_dblp):
        engine = SearchEngine(small_dblp)
        for workload_query in dblp_workload()[:6]:
            all_lca = engine.search(workload_query.text, "validrtf")
            slca_only = engine.search(workload_query.text, "validrtf-slca")
            assert set(slca_only.roots()) <= set(all_lca.roots())
            # SLCA-rooted fragments are identical under both root semantics.
            all_by_root = all_lca.by_root()
            for fragment in slca_only:
                assert fragment.kept_set() == all_by_root[fragment.root].kept_set()

    def test_explanations_consistent_with_metrics(self, small_xmark):
        engine = SearchEngine(small_xmark)
        for workload_query in xmark_workload()[:4]:
            comparison = engine.explain_comparison(workload_query.text)
            outcome = engine.compare(workload_query.text)
            extra_pruned_total = sum(c.extra_pruned
                                     for c in outcome.report.comparisons)
            assert len(comparison.redundancy_fixes()) == extra_pruned_total
