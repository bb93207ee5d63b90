"""MaxMatch — the baseline algorithm (Liu & Chen, VLDB 2008).

Two variants are provided:

* :class:`MaxMatchSLCA` — the original algorithm: fragments rooted at **SLCA**
  nodes only, pruned with the contributor filter.
* :class:`MaxMatch` — the paper's **revised MaxMatch**: identical filtering,
  but applied to the RTFs rooted at *all* interesting LCA (ELCA) nodes, so
  that ValidRTF and MaxMatch can be compared fragment by fragment (Section 5
  keeps the name "MaxMatch" for this revision; so do we).
"""

from __future__ import annotations

from typing import Optional

from ..index import PostingSource
from ..xmltree import XMLTree
from .contributor import prune_with_contributor
from .fragments import SearchResult
from .pipeline import FragmentPipeline, elca_roots, slca_roots
from .query import QueryLike


class MaxMatch(FragmentPipeline):
    """Revised MaxMatch over RTFs (the paper's experimental baseline)."""

    def __init__(self, tree: Optional[XMLTree], source: Optional[PostingSource] = None,
                 cid_mode: str = "minmax"):
        super().__init__(
            tree,
            pruner=lambda records: prune_with_contributor(records, "maxmatch"),
            source=source,
            lca_function=elca_roots,
            cid_mode=cid_mode,
            name="maxmatch",
        )


class MaxMatchSLCA(FragmentPipeline):
    """Original MaxMatch: SLCA-rooted fragments with the contributor filter."""

    def __init__(self, tree: Optional[XMLTree], source: Optional[PostingSource] = None,
                 cid_mode: str = "minmax"):
        super().__init__(
            tree,
            pruner=lambda records: prune_with_contributor(records, "maxmatch-slca"),
            source=source,
            lca_function=slca_roots,
            cid_mode=cid_mode,
            name="maxmatch-slca",
        )


def run_maxmatch(tree: Optional[XMLTree], query: QueryLike,
                 source: Optional[PostingSource] = None,
                 slca_only: bool = False) -> SearchResult:
    """One-shot convenience wrapper around the two MaxMatch variants."""
    algorithm = MaxMatchSLCA(tree, source) if slca_only else MaxMatch(tree, source)
    return algorithm.search(query)
