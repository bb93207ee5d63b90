"""Stack-based SLCA computation over the merged keyword-node stream.

This is the classic one-pass stack algorithm: the keyword nodes of all lists
are merged into a single document-order stream; a stack mirrors the
root-to-current-node path; every frame accumulates the keyword bitmask seen in
its subtree; a frame popped with a full mask is an SLCA unless one of its
descendants already was (tracked with a per-frame flag).

It is provided both as an additional baseline for the ablation benchmark and
as an independent implementation to cross-check the Indexed Lookup / Scan
Eager algorithms in the property-based tests.

The scan reads the query's document-order ``(components, mask)`` match
list straight off the packed posting columns
(:meth:`repro.index.packed.QueryLists.matches`, merged once per query) and
keeps the path stack as three parallel lists of unboxed values (component,
mask, descendant flag).  :class:`DeweyCode` objects are materialized only
for the reported SLCAs.
"""

from __future__ import annotations

from typing import Iterable, List

from ..index.packed import Match
from ..xmltree import DeweyCode
from .base import EmptyKeywordList, KeywordLists, full_mask, query_lists


def stack_slca(lists: KeywordLists) -> List[DeweyCode]:
    """SLCA nodes computed with the merged-stream stack algorithm."""
    try:
        packed = query_lists(lists)
    except EmptyKeywordList:
        return []
    return _scan(packed.matches(), full_mask(len(packed)))


def _scan(matches: Iterable[Match], target: int) -> List[DeweyCode]:
    """One pass over the document-order match list."""
    components: List[int] = []   # the path stack, one entry per frame
    masks: List[int] = []        # keyword bits seen in the frame's subtree
    flags: List[bool] = []       # an SLCA was already found below the frame
    results: List[DeweyCode] = []

    # An empty match after the last pops every frame still open.
    for comps, mask in [*matches, ((), 0)]:
        depth = len(components)
        limit = min(depth, len(comps))
        shared = 0
        while shared < limit and components[shared] == comps[shared]:
            shared += 1
        while depth > shared:
            # Pop the frame: it is not an ancestor of the incoming match.
            popped = masks.pop()
            flag = flags.pop()
            is_slca = popped == target and not flag
            if is_slca:
                # lint: allow(hot-loop-purity) result boundary: SLCAs survive
                results.append(DeweyCode._from_tuple(components))
            components.pop()
            depth -= 1
            if depth:
                masks[-1] |= popped
                if flag or is_slca:
                    flags[-1] = True
        if not comps:
            break
        # Push the remaining components of the new path.
        for component in comps[shared:]:
            components.append(component)
            masks.append(0)
            flags.append(False)
        masks[-1] |= mask
    return sorted(results)
