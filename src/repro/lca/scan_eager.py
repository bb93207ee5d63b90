"""Scan Eager SLCA computation (Xu & Papakonstantinou, SIGMOD 2005).

Variant of the Indexed Lookup algorithm for the case where the keyword
frequencies are of comparable size: instead of binary-searching the closest
match of every node of the smallest list, all lists are scanned with cursors
that only move forward.  The asymptotic cost is the sum of the list lengths
(times the tree depth for the Dewey prefix operations).
"""

from __future__ import annotations

from typing import List, Optional

from ..index.packed import deepest_neighbor_prefix_len
from ..xmltree import DeweyCode
from .base import (
    EmptyKeywordList,
    KeywordLists,
    prepare_lists,
    remove_ancestors_slices,
)


def scan_eager_slca(lists: KeywordLists) -> List[DeweyCode]:
    """SLCA nodes computed with forward-only cursors over every list.

    The cursors gallop over the flat packed columns.  For every anchor slice
    the per-list deepest-LCA depth is the larger common-prefix length with
    the cursor's predecessor/successor; the combined candidate is the anchor
    prefix cut at the *shallowest* of those depths (every keyword must be
    reachable below it).  Nothing is materialized until the final SLCA set.
    """
    try:
        packed = prepare_lists(lists)
    except EmptyKeywordList:
        return []
    if len(packed) == 1:
        # lint: allow(hot-loop-purity) result boundary: the final SLCA set
        return [DeweyCode._from_tuple(comps)
                for comps in remove_ancestors_slices(
                    list(packed[0].iter_slices()))]
    anchor = min(packed, key=len)
    others = [plist for plist in packed if plist is not anchor]
    cursors = [0] * len(others)

    candidates = []
    append = candidates.append
    for node in anchor.iter_slices():
        depth: Optional[int] = None
        for which, plist in enumerate(others):
            cursor = plist.gallop_left(node, cursors[which])
            cursors[which] = cursor
            best = deepest_neighbor_prefix_len(node, plist, cursor)
            if depth is None or best < depth:
                depth = best
        append(node[:depth])
    # lint: allow(hot-loop-purity) result boundary: the final SLCA set
    return [DeweyCode._from_tuple(comps)
            for comps in remove_ancestors_slices(candidates)]
