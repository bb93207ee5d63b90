"""Figure 5(a) — per-query elapsed time of MaxMatch vs ValidRTF on DBLP.

``pytest benchmarks/test_figure5_dblp.py --benchmark-only`` times the two
algorithms on representative workload queries; running the file without
``--benchmark-only`` additionally prints the full Figure 5(a) table and checks
the paper's qualitative claim that ValidRTF has "competent performance" (the
two algorithms stay within a small constant factor of each other).
"""

from __future__ import annotations

import pytest

from repro.bench import figure5_summary, render_figure5

from .conftest import representative_queries

DATASET = "dblp"


def _bench_cases(dataset_specs):
    return representative_queries(dataset_specs[DATASET], count=3)


@pytest.mark.parametrize("algorithm", ["maxmatch", "validrtf"])
def test_benchmark_dblp_query_low_frequency(benchmark, engines, dataset_specs,
                                            algorithm):
    query = _bench_cases(dataset_specs)[0]
    engine = engines[DATASET]
    benchmark.group = f"figure5-dblp-{query.label}"
    benchmark.name = algorithm
    benchmark(lambda: engine.search(query.text, algorithm))


@pytest.mark.parametrize("algorithm", ["maxmatch", "validrtf"])
def test_benchmark_dblp_query_mixed_frequency(benchmark, engines, dataset_specs,
                                              algorithm):
    query = _bench_cases(dataset_specs)[1]
    engine = engines[DATASET]
    benchmark.group = f"figure5-dblp-{query.label}"
    benchmark.name = algorithm
    benchmark(lambda: engine.search(query.text, algorithm))


@pytest.mark.parametrize("algorithm", ["maxmatch", "validrtf"])
def test_benchmark_dblp_query_high_frequency(benchmark, engines, dataset_specs,
                                             algorithm):
    query = _bench_cases(dataset_specs)[2]
    engine = engines[DATASET]
    benchmark.group = f"figure5-dblp-{query.label}"
    benchmark.name = algorithm
    benchmark(lambda: engine.search(query.text, algorithm))


def test_figure5a_table_and_shape(core_payload):
    """Regenerate the Figure 5(a) panel and check its qualitative shape."""
    print()
    print(render_figure5(core_payload, DATASET))
    summary = figure5_summary(core_payload, DATASET)
    assert summary["queries"] == 20
    # "Competent performance": ValidRTF stays within a small factor of the
    # revised MaxMatch on average (the paper shows near-identical bars).
    assert summary["mean_time_ratio"] < 3.0
    # Every query produced at least one RTF.
    assert all(row["rtfs"] >= 1
               for row in core_payload["figures"][DATASET]["rows"])
