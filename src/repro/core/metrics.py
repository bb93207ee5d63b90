"""Effectiveness metrics of Section 5.1: CFR, APR, APR' and Max APR.

Given, for one query, the meaningful RTFs ``V`` computed by ValidRTF and the
fragments ``X`` computed by (revised) MaxMatch — both indexed by their common
LCA roots ``A`` — the paper defines:

* **CFR** (common fragment ratio) ``= |V ∩ X| / |A|`` where two fragments are
  "the same" when they keep exactly the same node set;
* per root ``a``: the pruning ratio ``|x_a − v_a| / |x_a|`` — the fraction of
  MaxMatch's kept nodes that ValidRTF additionally discards;
* **APR** (average pruning ratio) — the mean of the per-root ratios over the
  roots where the fragments differ (``|V − V ∩ X|``);
* **Max APR** — the largest per-root ratio (the "extreme" fragment, usually
  rooted near the document root);
* **APR'** — the APR recomputed after discarding that extreme fragment,
  highlighting the pruning behaviour on *regular* fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..xmltree import DeweyCode
from .fragments import PrunedFragment, SearchResult


@dataclass(frozen=True)
class FragmentComparison:
    """Per-root comparison between the ValidRTF and MaxMatch fragments."""

    root: DeweyCode
    maxmatch_size: int
    validrtf_size: int
    extra_pruned: int
    ratio: float
    identical: bool


@dataclass(frozen=True)
class EffectivenessReport:
    """The Figure 6 numbers for one query on one dataset."""

    query: str
    lca_count: int
    common_fragments: int
    differing_fragments: int
    cfr: float
    apr: float
    apr_prime: float
    max_apr: float
    comparisons: Tuple[FragmentComparison, ...] = ()

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary row for the reporting tables."""
        return {
            "query": self.query,
            "rtfs": self.lca_count,
            "cfr": round(self.cfr, 4),
            "apr": round(self.apr, 4),
            "apr_prime": round(self.apr_prime, 4),
            "max_apr": round(self.max_apr, 4),
        }


def compare_fragments(maxmatch: PrunedFragment,
                      validrtf: PrunedFragment) -> FragmentComparison:
    """Compare the two prunings of the same RTF."""
    if maxmatch.root != validrtf.root:
        raise ValueError(
            f"cannot compare fragments with different roots "
            f"({maxmatch.root} vs {validrtf.root})"
        )
    x_nodes = maxmatch.kept_set()
    v_nodes = validrtf.kept_set()
    extra = len(x_nodes - v_nodes)
    ratio = extra / len(x_nodes) if x_nodes else 0.0
    return FragmentComparison(
        root=maxmatch.root,
        maxmatch_size=len(x_nodes),
        validrtf_size=len(v_nodes),
        extra_pruned=extra,
        ratio=ratio,
        identical=x_nodes == v_nodes,
    )


def effectiveness(maxmatch_result: SearchResult,
                  validrtf_result: SearchResult) -> EffectivenessReport:
    """Compute CFR / APR / APR' / Max APR for one query.

    Both results must come from the same query on the same document (so the
    LCA root sets coincide); roots present in only one result (which the
    paper's setting rules out) are counted as differing fragments.
    """
    x_by_root = maxmatch_result.by_root()
    v_by_root = validrtf_result.by_root()
    all_roots = sorted(set(x_by_root) | set(v_by_root))

    comparisons: List[FragmentComparison] = []
    for root in all_roots:
        x_fragment = x_by_root.get(root)
        v_fragment = v_by_root.get(root)
        if x_fragment is None or v_fragment is None:
            size_x = x_fragment.size if x_fragment else 0
            size_v = v_fragment.size if v_fragment else 0
            comparisons.append(FragmentComparison(
                root=root, maxmatch_size=size_x, validrtf_size=size_v,
                extra_pruned=size_x, ratio=1.0 if size_x else 0.0,
                identical=False,
            ))
            continue
        comparisons.append(compare_fragments(x_fragment, v_fragment))

    lca_count = len(all_roots)
    common = sum(1 for comparison in comparisons if comparison.identical)
    differing = [comparison for comparison in comparisons if not comparison.identical]
    cfr = common / lca_count if lca_count else 1.0

    ratios = [comparison.ratio for comparison in differing]
    apr = sum(ratios) / len(ratios) if ratios else 0.0
    max_apr = max((comparison.ratio for comparison in comparisons), default=0.0)
    apr_prime = _apr_without_extreme(ratios)

    return EffectivenessReport(
        query=str(maxmatch_result.query),
        lca_count=lca_count,
        common_fragments=common,
        differing_fragments=len(differing),
        cfr=cfr,
        apr=apr,
        apr_prime=apr_prime,
        max_apr=max_apr,
        comparisons=tuple(comparisons),
    )


def _apr_without_extreme(ratios: Sequence[float]) -> float:
    """APR after discarding one occurrence of the maximum ratio (APR')."""
    if len(ratios) <= 1:
        return 0.0
    remaining = list(ratios)
    remaining.remove(max(remaining))
    return sum(remaining) / len(remaining)


def summarize_reports(reports: Sequence[EffectivenessReport]) -> Dict[str, float]:
    """Aggregate Figure 6 style numbers over a whole workload."""
    if not reports:
        return {"queries": 0, "mean_cfr": 1.0, "mean_apr_prime": 0.0,
                "mean_max_apr": 0.0, "queries_with_extra_pruning": 0,
                "queries_with_positive_apr_prime": 0}
    return {
        "queries": len(reports),
        "mean_cfr": sum(report.cfr for report in reports) / len(reports),
        "mean_apr_prime": sum(report.apr_prime for report in reports) / len(reports),
        "mean_max_apr": sum(report.max_apr for report in reports) / len(reports),
        "queries_with_extra_pruning": sum(1 for report in reports if report.cfr < 1.0),
        "queries_with_positive_apr_prime": sum(1 for report in reports
                                               if report.apr_prime > 0.0),
    }
