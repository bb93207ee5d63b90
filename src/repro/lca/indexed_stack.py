"""ELCA computation — the role of the Indexed Stack algorithm ([12], EDBT 2008).

The paper's ``getLCA`` stage "is directly the Indexed Stack algorithm of
[12]", i.e. it returns **all interesting LCA nodes**, which is the ELCA node
set: nodes whose subtree contains every keyword after excluding the subtrees
of descendants that already contain every keyword.  This module provides an
algorithm with the same input/output contract working purely over the sorted
Dewey posting lists.

Implementation note (substitution documented in DESIGN.md): rather than
transliterating the original Indexed Stack pseudo-code, we use an equivalent
single-pass stack formulation.  The query's match list, shared with ``getRTF``,
is walked in document order with a path stack; each frame accrues two masks:

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

from typing import Iterable, List

from ..index.packed import Match
from ..xmltree import DeweyCode
from .base import EmptyKeywordList, KeywordLists, full_mask, query_lists


def indexed_stack_elca(lists: KeywordLists) -> List[DeweyCode]:
    """All ELCA ("interesting LCA") nodes of the posting lists.

    This is the drop-in ``getLCA`` of Algorithm 1: the returned Dewey codes
    are sorted in document (pre-order) order as the later stages require.

    The scan reads the query's document-order match list
    (:meth:`~repro.index.packed.QueryLists.matches`, merged once per query
    and shared with ``getRTF``) and keeps the path stack as three parallel
    lists of unboxed values; only the reported ELCAs are materialized as
    :class:`DeweyCode`.
    """
    try:
        packed = query_lists(lists)
    except EmptyKeywordList:
        return []
    return _scan(packed.matches(), full_mask(len(packed)))


def _scan(matches: Iterable[Match], target: int) -> List[DeweyCode]:
    """One pass over the match list, accruing the two per-frame masks."""
    components: List[int] = []      # the path stack, one entry per frame
    subtree_masks: List[int] = []   # keywords anywhere in the frame's subtree
    exclusive_masks: List[int] = [] # own matches + non-CA children's subtrees
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
            subtree = subtree_masks.pop()
            if exclusive_masks.pop() == target:
                # lint: allow(hot-loop-purity) result boundary: ELCAs survive
                results.append(DeweyCode._from_tuple(components))
            components.pop()
            depth -= 1
            if depth:
                subtree_masks[-1] |= subtree
                if subtree != target:
                    # Only non-CA children contribute to the parent's
                    # exclusive ("after exclusion") keyword set.
                    exclusive_masks[-1] |= subtree
        if not comps:
            break
        for component in comps[shared:]:
            components.append(component)
            subtree_masks.append(0)
            exclusive_masks.append(0)
        subtree_masks[-1] |= mask
        exclusive_masks[-1] |= mask
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
