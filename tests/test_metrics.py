"""Tests for the Section 5.1 effectiveness metrics (CFR, APR, APR', Max APR)."""

from __future__ import annotations

import pytest

from repro.core import (
    PrunedFragment,
    Query,
    SearchResult,
    build_fragment,
    compare_fragments,
    effectiveness,
    summarize_reports,
    unpruned,
)
from repro.core.metrics import EffectivenessReport
from repro.xmltree import DeweyCode

D = DeweyCode.parse


def make_result(publications, algorithm, kept_by_root):
    """Build a SearchResult keeping the given node subsets per root."""
    fragments = []
    for root, (keyword_nodes, kept) in kept_by_root.items():
        fragment = build_fragment(publications, D(root), keyword_nodes)
        fragments.append(PrunedFragment(
            fragment=fragment,
            kept_nodes=tuple(D(code) for code in kept),
            algorithm=algorithm,
        ))
    return SearchResult(query=Query.parse("xml keyword"), algorithm=algorithm,
                        fragments=tuple(fragments))


class TestCompareFragments:
    def test_identical(self, publications):
        fragment = build_fragment(publications, D("0.2.0"), ["0.2.0.1"])
        comparison = compare_fragments(unpruned(fragment, "m"),
                                       unpruned(fragment, "v"))
        assert comparison.identical
        assert comparison.ratio == 0.0
        assert comparison.extra_pruned == 0

    def test_extra_pruning_ratio(self, publications):
        fragment = build_fragment(publications, D("0.2.0"),
                                  ["0.2.0.1", "0.2.0.2"])
        maxmatch = unpruned(fragment, "m")
        validrtf = PrunedFragment(fragment=fragment,
                                  kept_nodes=(D("0.2.0"), D("0.2.0.1")),
                                  algorithm="v")
        comparison = compare_fragments(maxmatch, validrtf)
        assert not comparison.identical
        assert comparison.extra_pruned == 1
        assert comparison.ratio == pytest.approx(1 / 3)

    def test_mismatched_roots_rejected(self, publications):
        first = unpruned(build_fragment(publications, D("0.2.0"), ["0.2.0.1"]))
        second = unpruned(build_fragment(publications, D("0.2.1"), ["0.2.1.1"]))
        with pytest.raises(ValueError):
            compare_fragments(first, second)


class TestEffectiveness:
    def test_cfr_and_apr(self, publications):
        maxmatch = make_result(publications, "maxmatch", {
            "0.2.0": (["0.2.0.1", "0.2.0.2"],
                      ["0.2.0", "0.2.0.1", "0.2.0.2"]),
            "0.2.1": (["0.2.1.1"], ["0.2.1", "0.2.1.1"]),
        })
        validrtf = make_result(publications, "validrtf", {
            "0.2.0": (["0.2.0.1", "0.2.0.2"], ["0.2.0", "0.2.0.1"]),
            "0.2.1": (["0.2.1.1"], ["0.2.1", "0.2.1.1"]),
        })
        report = effectiveness(maxmatch, validrtf)
        assert report.lca_count == 2
        assert report.common_fragments == 1
        assert report.differing_fragments == 1
        assert report.cfr == pytest.approx(0.5)
        assert report.apr == pytest.approx(1 / 3)
        assert report.max_apr == pytest.approx(1 / 3)
        # Only one differing fragment, so APR' has nothing left to average.
        assert report.apr_prime == 0.0

    def test_apr_prime_discards_extreme(self, publications):
        maxmatch = make_result(publications, "maxmatch", {
            "0.2.0": (["0.2.0.1", "0.2.0.2"],
                      ["0.2.0", "0.2.0.1", "0.2.0.2"]),
            "0.2.1": (["0.2.1.1", "0.2.1.2"],
                      ["0.2.1", "0.2.1.1", "0.2.1.2"]),
        })
        validrtf = make_result(publications, "validrtf", {
            # Ratio 2/3 (the extreme fragment).
            "0.2.0": (["0.2.0.1", "0.2.0.2"], ["0.2.0"]),
            # Ratio 1/3 (the regular fragment).
            "0.2.1": (["0.2.1.1", "0.2.1.2"], ["0.2.1", "0.2.1.1"]),
        })
        report = effectiveness(maxmatch, validrtf)
        assert report.max_apr == pytest.approx(2 / 3)
        assert report.apr == pytest.approx((2 / 3 + 1 / 3) / 2)
        assert report.apr_prime == pytest.approx(1 / 3)

    def test_identical_results(self, publications):
        result = make_result(publications, "x", {
            "0.2.0": (["0.2.0.1"], ["0.2.0", "0.2.0.1"]),
        })
        report = effectiveness(result, result)
        assert report.cfr == 1.0
        assert report.apr == report.apr_prime == report.max_apr == 0.0

    def test_root_present_in_only_one_result(self, publications):
        maxmatch = make_result(publications, "m", {
            "0.2.0": (["0.2.0.1"], ["0.2.0", "0.2.0.1"]),
            "0.2.1": (["0.2.1.1"], ["0.2.1", "0.2.1.1"]),
        })
        validrtf = make_result(publications, "v", {
            "0.2.0": (["0.2.0.1"], ["0.2.0", "0.2.0.1"]),
        })
        report = effectiveness(maxmatch, validrtf)
        assert report.lca_count == 2
        assert report.common_fragments == 1
        assert report.cfr == pytest.approx(0.5)

    def test_on_real_paper_queries(self, team_engine):
        outcome = team_engine.compare("grizzlies position")
        report = outcome.report
        # Two "forward" position subtrees, one pruned: 2 nodes out of 9.
        assert report.max_apr == pytest.approx(2 / 9)
        assert report.cfr == 0.0


class TestSummarizeReports:
    def test_empty(self):
        summary = summarize_reports([])
        assert summary["queries"] == 0
        assert summary["mean_cfr"] == 1.0

    def test_aggregates(self):
        reports = [
            EffectivenessReport(query="a", lca_count=2, common_fragments=1,
                                differing_fragments=1, cfr=0.5, apr=0.2,
                                apr_prime=0.0, max_apr=0.2),
            EffectivenessReport(query="b", lca_count=1, common_fragments=1,
                                differing_fragments=0, cfr=1.0, apr=0.0,
                                apr_prime=0.0, max_apr=0.0),
        ]
        summary = summarize_reports(reports)
        assert summary["queries"] == 2
        assert summary["mean_cfr"] == pytest.approx(0.75)
        assert summary["queries_with_extra_pruning"] == 1

    def test_counts_queries_with_positive_apr_prime(self):
        def report(apr_prime):
            return EffectivenessReport(query="q", lca_count=3,
                                       common_fragments=0,
                                       differing_fragments=3, cfr=0.0,
                                       apr=0.3, apr_prime=apr_prime,
                                       max_apr=0.5)

        summary = summarize_reports([report(0.0), report(0.25), report(0.1)])
        assert summary["queries_with_positive_apr_prime"] == 2
        assert summarize_reports([])["queries_with_positive_apr_prime"] == 0

    def test_report_as_row(self):
        report = EffectivenessReport(query="a", lca_count=2, common_fragments=1,
                                     differing_fragments=1, cfr=0.5, apr=0.25,
                                     apr_prime=0.1, max_apr=0.4)
        row = report.as_row()
        assert row["query"] == "a"
        assert row["cfr"] == 0.5
        assert row["max_apr"] == 0.4
