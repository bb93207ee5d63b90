"""Tests for the one benchmark runner and the Figure 5 / Figure 6 panels."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from repro.bench import (
    DatasetSpec,
    alternating_passes,
    default_datasets,
    engine_for_backend,
    figure5_rows,
    figure5_summary,
    format_table,
    render_figure5,
    render_figure6,
    run_core_bench,
)
from repro.bench.core_bench import _verify_answers
from repro.core import SearchEngine, effectiveness, summarize_reports
from repro.datasets import WorkloadQuery, publications_tree, team_tree

BENCH_CORE = Path(__file__).resolve().parent.parent / "BENCH_core.json"


@pytest.fixture(scope="module")
def tiny_specs():
    """Two miniature datasets so runner tests stay fast."""
    return {
        "figure-1a": DatasetSpec(
            name="figure-1a", tree_factory=publications_tree,
            workload=(WorkloadQuery("lk", ("liu", "keyword")),
                      WorkloadQuery("xks", ("xml", "keyword", "search")))),
        "figure-1b": DatasetSpec(
            name="figure-1b", tree_factory=team_tree,
            workload=(WorkloadQuery("gp", ("grizzlies", "position")),)),
    }


@pytest.fixture(scope="module")
def tiny_payload(tiny_specs):
    return run_core_bench(backends=("memory", "sqlite"), repetitions=1,
                          limit=2, specs=tiny_specs)


class TestExperimentTable:
    def test_default_datasets_registered(self):
        specs = default_datasets()
        assert set(specs) == {"dblp", "xmark-standard", "xmark-data1",
                              "xmark-data2"}
        for spec in specs.values():
            assert spec.workload

    def test_default_dataset_names(self):
        specs = default_datasets(dblp_publications=40, xmark_base_items=10)
        for name, spec in specs.items():
            assert spec.name == name
            assert callable(spec.tree_factory)
        larger = default_datasets(dblp_publications=50, xmark_base_items=12)
        for name, spec in specs.items():
            assert spec.tree_factory().size() < \
                larger[name].tree_factory().size(), name

    def test_backends_answer_alike(self):
        tree = publications_tree()
        memory = engine_for_backend(tree, "memory")
        sqlite = engine_for_backend(tree, "sqlite", document="pub")
        assert sqlite.tree is None
        for query in ("liu keyword", "xml keyword search"):
            assert [f.kept_nodes for f in sqlite.search(query)] == \
                [f.kept_nodes for f in memory.search(query)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            engine_for_backend(publications_tree(), "corpus")


class TestAlternatingPasses:
    def test_warm_up_then_rotating_first_run(self):
        calls = []
        runs = [lambda index=index: calls.append(index) for index in range(3)]
        passes = alternating_passes(runs, repetitions=3)
        # One discarded warm-up of each, then each repetition starts one
        # run later than the one before.
        assert calls == [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1]
        assert [len(seconds) for seconds in passes] == [3, 3, 3]
        assert all(value >= 0.0 for seconds in passes for value in seconds)

    def test_two_runs_alternate(self):
        calls = []
        alternating_passes([lambda: calls.append("a"),
                            lambda: calls.append("b")], repetitions=2)
        assert calls == ["a", "b", "a", "b", "b", "a"]

    def test_collector_is_off_only_while_the_runs_execute(self):
        seen = []
        alternating_passes([lambda: seen.append(gc.isenabled())],
                           repetitions=2)
        assert seen == [False, False, False]
        assert gc.isenabled()

        def failing():
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError):
            alternating_passes([failing], repetitions=1)
        assert gc.isenabled()

    def test_rejects_non_positive_repetitions(self):
        with pytest.raises(ValueError):
            alternating_passes([lambda: None], repetitions=0)


class TestRunCoreBench:
    def test_one_entry_per_dataset_backend_algorithm_query(self, tiny_payload):
        keys = [(entry["dataset"], entry["backend"], entry["algorithm"],
                 entry["query"]) for entry in tiny_payload["entries"]]
        assert len(keys) == len(set(keys)) == 3 * 2 * 2
        assert all(entry["ms"] > 0 for entry in tiny_payload["entries"])
        assert tiny_payload["protocol"] == {
            "repetitions": 1, "warmup_discarded": True, "alternating": True,
            "verified_parity": True}

    def test_totals_sum_the_entries(self, tiny_payload):
        for total in tiny_payload["summary"]:
            expected = sum(entry["ms"] for entry in tiny_payload["entries"]
                           if (entry["dataset"], entry["backend"],
                               entry["algorithm"]) ==
                           (total["dataset"], total["backend"],
                            total["algorithm"]))
            assert total["total_ms"] == pytest.approx(expected, abs=1e-3)
        assert len(tiny_payload["summary"]) == 2 * 2 * 2

    def test_figure6_rows_come_from_the_answers(self, tiny_payload,
                                                tiny_specs):
        for dataset, spec in tiny_specs.items():
            engine = SearchEngine(spec.tree_factory())
            rows = tiny_payload["figures"][dataset]["rows"]
            assert [row["query"] for row in rows] == \
                [query.label for query in spec.workload]
            for row, query in zip(rows, spec.workload):
                validrtf = engine.search(query.text, "validrtf")
                maxmatch = engine.search(query.text, "maxmatch")
                report = effectiveness(maxmatch, validrtf)
                assert row["rtfs"] == validrtf.count
                assert row["lca_roots"] == len(validrtf.lca_nodes)
                assert row["validrtf_kept"] == validrtf.total_kept_nodes()
                assert row["maxmatch_kept"] == maxmatch.total_kept_nodes()
                assert row["cfr"] == round(report.cfr, 4)
                assert row["apr_prime"] == round(report.apr_prime, 4)
                assert row["max_apr"] == round(report.max_apr, 4)

    def test_dataset_summary_is_summarize_reports(self, tiny_payload,
                                                  tiny_specs):
        spec = tiny_specs["figure-1a"]
        engine = SearchEngine(spec.tree_factory())
        reports = [effectiveness(engine.search(query.text, "maxmatch"),
                                 engine.search(query.text, "validrtf"))
                   for query in spec.workload]
        expected = {key: round(value, 4)
                    for key, value in summarize_reports(reports).items()}
        assert tiny_payload["figures"]["figure-1a"]["summary"] == expected

    def test_observability_runs_on_the_first_dataset(self, tiny_payload):
        section = tiny_payload["observability"]
        assert section["dataset"] == "figure-1a"
        assert len(section["entries"]) == 2 * 2

    def test_limit_keeps_the_first_queries(self, tiny_specs):
        payload = run_core_bench(datasets=["figure-1a"], repetitions=1,
                                 limit=1, specs=tiny_specs)
        assert list(payload["figures"]) == ["figure-1a"]
        assert [row["query"] for row in
                payload["figures"]["figure-1a"]["rows"]] == ["lk"]
        assert {entry["query"] for entry in payload["entries"]} == {"lk"}
        assert len(payload["ranking"]["entries"]) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_must_be_positive(self, tiny_specs, limit):
        with pytest.raises(ValueError, match="limit"):
            run_core_bench(repetitions=1, limit=limit, specs=tiny_specs)


class TestFigures:
    def test_figure5_rows_pair_the_two_algorithms(self, tiny_payload):
        rows = figure5_rows(tiny_payload, "figure-1a", "sqlite")
        times = {(entry["query"], entry["algorithm"]): entry["ms"]
                 for entry in tiny_payload["entries"]
                 if entry["dataset"] == "figure-1a"
                 and entry["backend"] == "sqlite"}
        assert [row["query"] for row in rows] == ["lk", "xks"]
        for row in rows:
            assert row["maxmatch_ms"] == times[row["query"], "maxmatch"]
            assert row["time_ratio"] == pytest.approx(
                times[row["query"], "validrtf"] /
                times[row["query"], "maxmatch"])
        assert rows[0]["rtfs"] == 2

    def test_figure5_summary(self, tiny_payload):
        summary = figure5_summary(tiny_payload, "figure-1a")
        assert summary["queries"] == 2
        assert summary["mean_time_ratio"] > 0.0
        assert summary["max_time_ratio"] >= summary["min_time_ratio"]

    def test_render_panels(self, tiny_payload):
        text = render_figure5(tiny_payload, "figure-1a", "sqlite")
        assert "Figure 5 — figure-1a (sqlite)" in text
        assert "lk" in text and "summary:" in text
        text = render_figure6(tiny_payload, "figure-1b")
        assert "Figure 6 — figure-1b" in text and "gp" in text
        assert "CFR<1 on" in text

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "long-value"}, {"a": 22, "b": 0.5}]
        text = format_table(rows, ("a", "b"), title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="demo")


@pytest.mark.parametrize("dataset", sorted(default_datasets()))
def test_committed_figures_match_the_answers(dataset):
    """``BENCH_core.json``'s ``figures`` section is what the engine answers
    today: a change of answers shows up as a diff of the committed file."""
    committed = json.loads(BENCH_CORE.read_text())["figures"][dataset]
    spec = default_datasets()[dataset]
    tree = spec.tree_factory()
    figures = _verify_answers(dataset, tree, spec.workload,
                              {"memory": SearchEngine(tree)})
    assert figures == committed
