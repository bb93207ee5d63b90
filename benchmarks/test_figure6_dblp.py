"""Figure 6(a) — CFR / APR' / Max APR of ValidRTF vs MaxMatch on DBLP.

The paper's qualitative shape on the real (bibliographic) dataset:

* APR' is zero on every query — regular publication-rooted fragments are
  "self-complete", so ValidRTF does not prune beyond MaxMatch there;
* Max APR is noticeably positive — the extreme fragment (rooted near the
  document root) still contains many uninteresting nodes that only ValidRTF
  removes;
* CFR < 1 on most queries.
"""

from __future__ import annotations

import pytest

from repro.bench import render_figure6
from repro.core import effectiveness

from .conftest import representative_queries

DATASET = "dblp"


@pytest.mark.parametrize("stage", ["search-both", "effectiveness"])
def test_benchmark_effectiveness_pipeline(benchmark, engines, dataset_specs, stage):
    """Time the two halves of a Figure 6 data point: the searches themselves
    and the CFR/APR computation on their outputs."""
    query = representative_queries(dataset_specs[DATASET], count=3)[1]
    engine = engines[DATASET]
    benchmark.group = f"figure6-dblp-{query.label}"
    benchmark.name = stage
    if stage == "search-both":
        benchmark(lambda: (engine.search(query.text, "validrtf"),
                           engine.search(query.text, "maxmatch")))
    else:
        validrtf = engine.search(query.text, "validrtf")
        maxmatch = engine.search(query.text, "maxmatch")
        benchmark(lambda: effectiveness(maxmatch, validrtf))


def test_figure6a_table_and_shape(core_payload):
    print()
    print(render_figure6(core_payload, DATASET))
    summary = core_payload["figures"][DATASET]["summary"]
    assert summary["queries"] == 20
    # Real-data shape: APR' stays at (or very near) zero on regular fragments.
    assert summary["mean_apr_prime"] <= 0.05
    # ValidRTF prunes beyond MaxMatch on a clear majority of the queries.
    assert summary["queries_with_extra_pruning"] >= summary["queries"] * 0.5
    # The extreme fragments contain a visible share of additionally pruned
    # nodes (the paper reports Max APR above 20% on every query; at our scale
    # the mean stays clearly positive).
    assert summary["mean_max_apr"] > 0.05


def test_every_cfr_below_one_has_a_reason(core_payload, engines):
    """Whenever CFR < 1, the differing fragments either lost nodes (extra
    pruning) or gained nodes (false-positive fix) — never silently."""
    engine = engines[DATASET]
    for row in core_payload["figures"][DATASET]["rows"]:
        if row["cfr"] == 1.0:
            continue
        report = effectiveness(engine.search(row["keywords"], "maxmatch"),
                               engine.search(row["keywords"], "validrtf"))
        assert round(report.cfr, 4) == row["cfr"]
        differing = [comparison for comparison in report.comparisons
                     if not comparison.identical]
        assert differing
        for comparison in differing:
            assert comparison.extra_pruned > 0 or \
                comparison.validrtf_size > comparison.maxmatch_size
