"""ValidRTF — the paper's algorithm (Algorithm 1).

Pipeline: ``getKeywordNodes`` → ``getLCA`` (Indexed Stack / ELCA semantics) →
``getRTF`` → ``pruneRTF`` where the pruning step keeps only the nodes that are
*valid contributors* to their parents (Definition 4).

The result is the set of **meaningful RTFs**: one per interesting LCA node,
containing all of the query's relevant keyword nodes for that root but none of
the uninteresting siblings the contributor filter of MaxMatch would either
wrongly keep (redundancy problem) or wrongly drop (false-positive problem).
"""

from __future__ import annotations

from typing import Optional

from ..index import PostingSource
from ..xmltree import XMLTree
from .fragments import SearchResult
from .pipeline import FragmentPipeline, elca_roots, slca_roots
from .query import QueryLike
from .valid_contributor import prune_with_valid_contributor


class ValidRTF(FragmentPipeline):
    """The paper's ValidRTF algorithm over all interesting LCA nodes."""

    def __init__(self, tree: Optional[XMLTree], source: Optional[PostingSource] = None,
                 cid_mode: str = "minmax"):
        super().__init__(
            tree,
            pruner=lambda records: prune_with_valid_contributor(records, "validrtf"),
            source=source,
            lca_function=elca_roots,
            cid_mode=cid_mode,
            name="validrtf",
        )


class ValidRTFSLCA(FragmentPipeline):
    """ValidRTF restricted to SLCA roots (used by ablation benchmarks)."""

    def __init__(self, tree: Optional[XMLTree], source: Optional[PostingSource] = None,
                 cid_mode: str = "minmax"):
        super().__init__(
            tree,
            pruner=lambda records: prune_with_valid_contributor(records,
                                                                "validrtf-slca"),
            source=source,
            lca_function=slca_roots,
            cid_mode=cid_mode,
            name="validrtf-slca",
        )


def run_validrtf(tree: Optional[XMLTree], query: QueryLike,
                 source: Optional[PostingSource] = None,
                 slca_only: bool = False,
                 cid_mode: str = "minmax") -> SearchResult:
    """One-shot convenience wrapper around the two ValidRTF variants."""
    if slca_only:
        algorithm: FragmentPipeline = ValidRTFSLCA(tree, source, cid_mode=cid_mode)
    else:
        algorithm = ValidRTF(tree, source, cid_mode=cid_mode)
    return algorithm.search(query)
