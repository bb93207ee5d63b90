"""Shared machinery for the LCA / SLCA / ELCA algorithms.

All algorithms in :mod:`repro.lca` operate purely on Dewey-code posting lists
(the ``D_i`` returned by ``getKeywordNodes``), never on the tree itself: this
mirrors the paper's setting where keyword nodes come back from the shredded
relational store and the LCA computation happens on Dewey codes.

Terminology used throughout:

* **CA** (common ancestor) — a node whose subtree contains at least one node
  from every ``D_i``.
* **SLCA** — a CA none of whose strict descendants is a CA (Xu & Pap. 2005).
* **ELCA** — a node whose subtree contains all keywords after excluding the
  subtrees of its descendants that themselves contain all keywords
  (Xu & Pap. 2008); this is the "interesting LCA node" set the paper's
  ``getLCA`` returns.  SLCA ⊆ ELCA always holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

from ..index.packed import QueryLists
from ..xmltree import DeweyCode

KeywordLists = Mapping[str, Sequence[DeweyCode]]


class EmptyKeywordList(ValueError):
    """Raised when a query keyword has no occurrence in the document.

    Per the LCA semantics a query with an unmatched keyword has an empty
    result; algorithms raise this so callers can short-circuit to an empty
    answer while still distinguishing "no result" from "bad input".
    """


@dataclass(frozen=True)
class KeywordMatch:
    """One keyword node together with the bitmask of keywords it contains."""

    dewey: DeweyCode
    mask: int


def normalize_lists(lists: KeywordLists) -> List[List[DeweyCode]]:
    """Return the posting lists as sorted, deduplicated Dewey lists.

    Raises :class:`EmptyKeywordList` when any list is empty (a keyword without
    occurrences makes every LCA-family result empty).
    """
    normalized: List[List[DeweyCode]] = []
    for keyword, deweys in lists.items():
        # lint: allow(hot-loop-purity) the naive oracle's input normalization
        unique = sorted(set(DeweyCode.coerce(code) for code in deweys))
        if not unique:
            raise EmptyKeywordList(f"keyword {keyword!r} has no occurrence")
        normalized.append(unique)
    if not normalized:
        raise EmptyKeywordList("the query has no keywords")
    return normalized


def query_lists(lists: KeywordLists) -> QueryLists:
    """The posting lists as a :class:`~repro.index.packed.QueryLists`.

    A source's lists pass through, so the scan and ``getRTF`` of one search
    share one merge; any other mapping's lists are packed once
    (:meth:`QueryLists.of`).  Raises :class:`EmptyKeywordList` like
    :func:`normalize_lists` when the query is empty or any keyword has no
    occurrence.
    """
    if not lists:
        raise EmptyKeywordList("the query has no keywords")
    packed = QueryLists.of(lists)
    for keyword, plist in packed.items():
        if not plist:
            raise EmptyKeywordList(f"keyword {keyword!r} has no occurrence")
    return packed


def remove_ancestors_slices(candidates: List) -> List:
    """:func:`remove_ancestors` over raw component sequences.

    Operates on ``array('I')`` slices (or component tuples) without
    materializing codes: sorts lexicographically, then drops any entry that is
    a strict prefix of its successor run, deduplicating along the way.
    """
    candidates.sort()
    result: List = []
    append = result.append
    for comps in candidates:
        while result:
            last = result[-1]
            if len(last) < len(comps) and comps[:len(last)] == last:
                result.pop()
            else:
                break
        if result and result[-1] == comps:
            continue
        append(comps)
    return result


def full_mask(keyword_count: int) -> int:
    """Bitmask with the lowest ``keyword_count`` bits set."""
    return (1 << keyword_count) - 1


def merge_matches(lists: Sequence[Sequence[DeweyCode]]) -> List[KeywordMatch]:
    """Merge per-keyword lists into one document-order stream of matches.

    A node occurring in several lists yields a single :class:`KeywordMatch`
    whose mask has all the corresponding bits set (keyword ``i`` sets bit
    ``i``).
    """
    masks: Dict[DeweyCode, int] = {}
    for index, deweys in enumerate(lists):
        bit = 1 << index
        for dewey in deweys:
            masks[dewey] = masks.get(dewey, 0) | bit
    return [KeywordMatch(dewey, masks[dewey]) for dewey in sorted(masks)]


def remove_ancestors(codes: Iterable[DeweyCode]) -> List[DeweyCode]:
    """Keep only the deepest codes: drop any code that is an ancestor of another.

    Runs in a single pass over the document-order sorted codes: an ancestor
    always immediately precedes (some) descendant in that order.
    """
    result: List[DeweyCode] = []
    for code in sorted(set(codes)):
        while result and result[-1].is_ancestor_of(code):
            result.pop()
        if result and result[-1] == code:
            continue
        result.append(code)
    return result


def remove_descendants(codes: Iterable[DeweyCode]) -> List[DeweyCode]:
    """Keep only the shallowest codes: drop codes that descend from another."""
    result: List[DeweyCode] = []
    for code in sorted(set(codes)):
        if result and result[-1].is_ancestor_or_self(code):
            continue
        result.append(code)
    return result


def common_ancestor_masks(matches: Sequence[KeywordMatch]) -> Dict[DeweyCode, int]:
    """Subtree keyword masks for every ancestor-or-self of any match.

    The returned mapping assigns to each node (identified by Dewey code) on a
    root-to-match path the OR of the masks of all matches in its subtree.
    Only the ancestor closure of the matches is materialized, never the whole
    document.
    """
    masks: Dict[DeweyCode, int] = {}
    for match in matches:
        for ancestor in match.dewey.ancestors(include_self=True):
            masks[ancestor] = masks.get(ancestor, 0) | match.mask
    return masks
