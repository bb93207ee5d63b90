"""Indexed Lookup Eager SLCA computation (Xu & Papakonstantinou, SIGMOD 2005).

The algorithm exploits two facts proved in that paper:

1. ``slca(S_1, ..., S_k) = slca(slca(S_1, ..., S_{k-1}), S_k)`` — the SLCA of
   many lists can be computed by folding the lists two at a time.
2. For a single node ``v`` and a list ``S``, the deepest ancestor of ``v``
   that is a CA of ``{v} ∪ S`` is the deeper of ``lca(v, pred(v, S))`` and
   ``lca(v, succ(v, S))`` where ``pred``/``succ`` are the closest neighbours
   of ``v`` in ``S`` in document order — found by binary search on the sorted
   Dewey list (the "indexed lookup").

The fold starts from the smallest list so the per-step work is
``O(|S_min| · log |S_max| · depth)``.
"""

from __future__ import annotations

from typing import List

from ..index.packed import deepest_neighbor_prefix_len
from ..xmltree import DeweyCode
from .base import (
    EmptyKeywordList,
    KeywordLists,
    query_lists,
    remove_ancestors_slices,
)


def indexed_lookup_eager_slca(lists: KeywordLists) -> List[DeweyCode]:
    """SLCA nodes of the posting lists via the Indexed Lookup Eager strategy.

    The fold runs on flat columns: the working set is a list of raw component
    slices, the predecessor / successor lookups bisect the packed ``offsets``
    column directly and the deepest-LCA choice is a pair of
    common-prefix-length computations.  Codes are materialized only for the
    final SLCA set.
    """
    try:
        packed = query_lists(lists).values()
    except EmptyKeywordList:
        return []
    # Fold starting from the smallest list (the paper's eager strategy).
    ordered = sorted(packed, key=len)
    current = remove_ancestors_slices(list(ordered[0].iter_slices()))
    for other in ordered[1:]:
        candidates = []
        append = candidates.append
        for node in current:
            best = deepest_neighbor_prefix_len(node, other,
                                               other.bisect_left(node))
            append(node[:best])
        current = remove_ancestors_slices(candidates)
        if not current:
            return []
    # lint: allow(hot-loop-purity) result boundary: the final SLCA set
    return [DeweyCode._from_tuple(comps) for comps in current]
