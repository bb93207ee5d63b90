"""Stack-based SLCA computation over the merged keyword-node stream.

This is the classic one-pass stack algorithm: the keyword nodes of all lists
are merged into a single document-order stream; a stack mirrors the
root-to-current-node path; every frame accumulates the keyword bitmask seen in
its subtree; a frame popped with a full mask is an SLCA unless one of its
descendants already was (tracked with a per-frame flag).

It is provided both as an additional baseline for the ablation benchmark and
as an independent implementation to cross-check the Indexed Lookup / Scan
Eager algorithms in the property-based tests.

The scan consumes a ``(components, mask)`` stream fed straight from the
packed posting columns (:func:`repro.index.packed.iter_matches` — heap merge
with galloping skips) and keeps the path stack as three parallel lists of
unboxed values (component, mask, descendant flag).  :class:`DeweyCode`
objects are materialized only for the reported SLCAs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..index.packed import iter_matches
from ..xmltree import DeweyCode
from .base import EmptyKeywordList, KeywordLists, full_mask, prepare_lists


def stack_slca(lists: KeywordLists) -> List[DeweyCode]:
    """SLCA nodes computed with the merged-stream stack algorithm."""
    try:
        packed = prepare_lists(lists)
    except EmptyKeywordList:
        return []
    return _scan(iter_matches(packed), full_mask(len(packed)))


def _scan(stream: Iterator[Tuple[Iterable[int], int]],
          target: int) -> List[DeweyCode]:
    """One pass over the document-order match stream."""
    components: List[int] = []   # the path stack, one entry per frame
    masks: List[int] = []        # keyword bits seen in the frame's subtree
    flags: List[bool] = []       # an SLCA was already found below the frame
    results: List[DeweyCode] = []

    def pop_frame() -> None:
        mask = masks.pop()
        flag = flags.pop()
        is_slca = mask == target and not flag
        if is_slca:
            # lint: allow(hot-loop-purity) result boundary: SLCAs survive
            results.append(DeweyCode._from_tuple(components))
        components.pop()
        if masks:
            masks[-1] |= mask
            if flag or is_slca:
                flags[-1] = True

    for comps, mask in stream:
        # Pop frames that are not ancestors of the incoming match.
        depth = len(components)
        limit = min(depth, len(comps))
        shared = 0
        while shared < limit and components[shared] == comps[shared]:
            shared += 1
        while len(components) > shared:
            pop_frame()
        # Push the remaining components of the new path.
        for component in comps[shared:]:
            components.append(component)
            masks.append(0)
            flags.append(False)
        masks[-1] |= mask

    while components:
        pop_frame()
    return sorted(results)
