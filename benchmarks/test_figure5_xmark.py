"""Figure 5(b)–(d) — MaxMatch vs ValidRTF timing on the XMark scales.

Times the two algorithms on representative queries of each XMark scale and,
outside ``--benchmark-only`` runs, prints the three panels and checks the
scaling behaviour (RTF counts and elapsed times grow with the document size,
ValidRTF stays within a small factor of MaxMatch everywhere).
"""

from __future__ import annotations

import pytest

from repro.bench import figure5_rows, figure5_summary, render_figure5

from .conftest import representative_queries

SCALES = ("xmark-standard", "xmark-data1", "xmark-data2")


@pytest.mark.parametrize("dataset", SCALES)
@pytest.mark.parametrize("algorithm", ["maxmatch", "validrtf"])
def test_benchmark_xmark_mixed_query(benchmark, engines, dataset_specs,
                                     dataset, algorithm):
    query = representative_queries(dataset_specs[dataset], count=2)[1]
    engine = engines[dataset]
    benchmark.group = f"figure5-{dataset}-{query.label}"
    benchmark.name = algorithm
    benchmark(lambda: engine.search(query.text, algorithm))


@pytest.mark.parametrize("dataset", SCALES)
def test_figure5_panel_shape(core_payload, dataset):
    """Regenerate one XMark panel and check the qualitative claims."""
    print()
    print(render_figure5(core_payload, dataset))
    summary = figure5_summary(core_payload, dataset)
    assert summary["queries"] == 18
    assert summary["mean_time_ratio"] < 3.0
    assert all(row["rtfs"] >= 1
               for row in core_payload["figures"][dataset]["rows"])


def test_rtf_counts_grow_with_scale(core_payload):
    """The same workload finds (weakly) more RTFs on larger documents."""
    totals = {
        dataset: sum(row["rtfs"]
                     for row in core_payload["figures"][dataset]["rows"])
        for dataset in SCALES
    }
    assert totals["xmark-standard"] <= totals["xmark-data1"] <= totals["xmark-data2"]


def test_elapsed_time_grows_with_scale(core_payload):
    """Total per-workload time grows with the document size."""
    totals = {
        dataset: sum(row["validrtf_ms"]
                     for row in figure5_rows(core_payload, dataset))
        for dataset in SCALES
    }
    assert totals["xmark-standard"] < totals["xmark-data2"]
