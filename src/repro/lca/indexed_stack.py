"""ELCA computation — the role of the Indexed Stack algorithm ([12], EDBT 2008).

The paper's ``getLCA`` stage "is directly the Indexed Stack algorithm of
[12]", i.e. it returns **all interesting LCA nodes**, which is the ELCA node
set: nodes whose subtree contains every keyword after excluding the subtrees
of descendants that already contain every keyword.  This module provides an
algorithm with the same input/output contract working purely over the sorted
Dewey posting lists.

Implementation note (substitution documented in DESIGN.md): rather than
transliterating the original Indexed Stack pseudo-code, we use an equivalent
single-pass stack formulation.  The stream of keyword matches is processed in
document order with a path stack; each frame accrues two masks:

* ``subtree_mask`` — keywords anywhere in the frame's subtree (so CA nodes can
  be recognized), and
* ``exclusive_mask`` — keywords contributed by the frame's own matches plus
  the subtrees of children that are **not** CAs (CA children are excluded, as
  the ELCA definition requires).

A frame is an ELCA exactly when its ``exclusive_mask`` covers the query.  The
output equals the naive per-definition computation (property-tested in
``tests/test_lca_properties.py``) while running in
``O(total matches · depth)`` time like the original algorithm.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..index.packed import iter_matches
from ..xmltree import DeweyCode
from .base import EmptyKeywordList, KeywordLists, full_mask, prepare_lists


def indexed_stack_elca(lists: KeywordLists) -> List[DeweyCode]:
    """All ELCA ("interesting LCA") nodes of the posting lists.

    This is the drop-in ``getLCA`` of Algorithm 1: the returned Dewey codes
    are sorted in document (pre-order) order as the later stages require.

    The scan consumes a document-order ``(components, mask)`` stream fed
    from the flat packed columns (heap merge with galloping skips) and keeps
    the path stack as three parallel lists of unboxed values; only the
    reported ELCAs are materialized as :class:`DeweyCode`.
    """
    try:
        packed = prepare_lists(lists)
    except EmptyKeywordList:
        return []
    return _scan(iter_matches(packed), full_mask(len(packed)))


def _scan(stream: Iterator[Tuple[Iterable[int], int]],
          target: int) -> List[DeweyCode]:
    """One pass over the match stream, accruing the two per-frame masks."""
    components: List[int] = []      # the path stack, one entry per frame
    subtree_masks: List[int] = []   # keywords anywhere in the frame's subtree
    exclusive_masks: List[int] = [] # own matches + non-CA children's subtrees
    results: List[DeweyCode] = []

    def pop_frame() -> None:
        subtree = subtree_masks.pop()
        exclusive = exclusive_masks.pop()
        if exclusive == target:
            # lint: allow(hot-loop-purity) result boundary: ELCAs survive
            results.append(DeweyCode._from_tuple(components))
        components.pop()
        if subtree_masks:
            subtree_masks[-1] |= subtree
            if subtree != target:
                # Only non-CA children contribute to the parent's exclusive
                # ("after exclusion") keyword set.
                exclusive_masks[-1] |= subtree

    for comps, mask in stream:
        depth = len(components)
        limit = min(depth, len(comps))
        shared = 0
        while shared < limit and components[shared] == comps[shared]:
            shared += 1
        while len(components) > shared:
            pop_frame()
        for component in comps[shared:]:
            components.append(component)
            subtree_masks.append(0)
            exclusive_masks.append(0)
        subtree_masks[-1] |= mask
        exclusive_masks[-1] |= mask

    while components:
        pop_frame()
    return sorted(results)


def elca_is_slca(elcas: List[DeweyCode]) -> List[bool]:
    """For each ELCA (distinct, document order), whether it is also an SLCA.

    An ELCA is an SLCA exactly when no other ELCA is its strict descendant —
    handy for distinguishing "SLCA-related RTFs" (Section 2) without a second
    pass over the data.  A subtree is contiguous in document order, so a
    root has a strict-descendant root exactly when the next root is one: one
    look at each successor decides (:func:`~repro.lca.naive.naive_elca_is_slca`
    is the all-pairs definition).
    """
    flags = [not code.is_ancestor_of(successor)
             for code, successor in zip(elcas, elcas[1:])]
    if elcas:
        flags.append(True)
    return flags
