"""Figure 6(b)–(d) — CFR / APR' / Max APR on the XMark scales.

The paper's qualitative shape on synthetic data: APR' > 0 on (most) queries —
even regular fragments contain uninteresting nodes that only ValidRTF prunes —
and Max APR values far larger than on the bibliographic data, because the
keyword distribution is "less meaningful".  The effect strengthens with the
document size.
"""

from __future__ import annotations

import pytest

from repro.bench import render_figure6

from .conftest import representative_queries

SCALES = ("xmark-standard", "xmark-data1", "xmark-data2")


@pytest.mark.parametrize("dataset", SCALES)
def test_benchmark_compare_on_scale(benchmark, engines, dataset_specs, dataset):
    """Time a full ValidRTF-vs-MaxMatch comparison per scale (one Figure 6
    data point), showing how the cost grows with the document size."""
    query = representative_queries(dataset_specs[dataset], count=2)[1]
    engine = engines[dataset]
    benchmark.group = "figure6-xmark-compare"
    benchmark.name = dataset
    benchmark(lambda: engine.compare(query.text))


@pytest.mark.parametrize("dataset", SCALES)
def test_figure6_panel_shape(core_payload, dataset):
    print()
    print(render_figure6(core_payload, dataset))
    summary = core_payload["figures"][dataset]["summary"]
    assert summary["queries"] == 18
    # ValidRTF prunes beyond MaxMatch on a substantial share of the queries.
    assert summary["queries_with_extra_pruning"] >= 6
    # Synthetic-data shape: unlike DBLP, a visible share of queries has
    # APR' > 0 (regular fragments also get extra pruning).
    assert summary["queries_with_positive_apr_prime"] >= 1


def test_extra_pruning_strengthens_with_scale(core_payload):
    """Max APR / APR' grow (weakly) as the documents get larger."""
    summaries = {dataset: core_payload["figures"][dataset]["summary"]
                 for dataset in SCALES}
    assert summaries["xmark-data2"]["mean_max_apr"] >= \
        summaries["xmark-standard"]["mean_max_apr"]
    assert summaries["xmark-data2"]["queries_with_positive_apr_prime"] >= \
        summaries["xmark-standard"]["queries_with_positive_apr_prime"]


def test_xmark_prunes_more_than_dblp(core_payload):
    """Cross-dataset shape: synthetic data shows more APR' activity than the
    bibliographic data (Figure 6(b)-(d) vs Figure 6(a))."""
    dblp = core_payload["figures"]["dblp"]["summary"]
    data2 = core_payload["figures"]["xmark-data2"]["summary"]
    assert data2["queries_with_positive_apr_prime"] >= \
        dblp["queries_with_positive_apr_prime"]
