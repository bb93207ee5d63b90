"""Reference (naive) implementations of the LCA node families.

These work directly from the definitions and are deliberately simple; they
serve as executable specifications.  The tests check against them:

* :func:`naive_slca` — :func:`~repro.lca.indexed_lookup_eager_slca`,
  :func:`~repro.lca.scan_eager_slca` and :func:`~repro.lca.stack_slca`;
* :func:`naive_elca` — :func:`~repro.lca.indexed_stack_elca`, and the roots
  ``build_rtfs`` dispatches on; :func:`naive_elca_exhaustive`, the literal
  definition, cross-checks :func:`naive_elca` itself;
* :func:`naive_elca_is_slca` — :func:`~repro.lca.elca_is_slca`.

The benchmark runners' answer checks compare the engine's ELCA and SLCA
roots with :func:`naive_elca` and :func:`naive_slca` on every timed query.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Set, Tuple

from ..xmltree import DeweyCode, lca_of_codes
from .base import (
    EmptyKeywordList,
    KeywordLists,
    common_ancestor_masks,
    full_mask,
    merge_matches,
    normalize_lists,
    remove_ancestors,
)


def naive_lca_candidates(lists: KeywordLists) -> List[DeweyCode]:
    """All LCAs of one-node-per-keyword combinations (the raw LCA set of [4]).

    This enumerates every combination of one keyword node per list and
    collects the distinct LCA nodes, exactly the "LCA nodes" notion the
    paper's Section 1 starts from.  Exponential in principle, usable only on
    small inputs; the interesting subsets (SLCA, ELCA) have efficient
    algorithms elsewhere in this package.
    """
    try:
        normalized = normalize_lists(lists)
    except EmptyKeywordList:
        return []
    lcas: Set[DeweyCode] = set()
    for combination in product(*normalized):
        lcas.add(lca_of_codes(combination))
    return sorted(lcas)


def naive_common_ancestors(lists: KeywordLists) -> List[DeweyCode]:
    """All CA nodes: nodes whose subtree contains every keyword."""
    try:
        normalized = normalize_lists(lists)
    except EmptyKeywordList:
        return []
    matches = merge_matches(normalized)
    masks = common_ancestor_masks(matches)
    target = full_mask(len(normalized))
    return sorted(code for code, mask in masks.items() if mask == target)


def naive_slca(lists: KeywordLists) -> List[DeweyCode]:
    """SLCA nodes: the deepest common ancestors (no CA strict descendant)."""
    return remove_ancestors(naive_common_ancestors(lists))


def naive_elca(lists: KeywordLists) -> List[DeweyCode]:
    """ELCA nodes straight from the definition.

    A node ``v`` is an ELCA iff its subtree contains every keyword after
    excluding the subtrees of ``v``'s strict descendants that themselves
    contain every keyword.  Because the CA set is ancestor-closed, the
    excluded region under ``v`` is exactly the union of subtrees of ``v``'s
    *children* that are CAs, which makes the check local:

    ``v`` is an ELCA iff (own keyword occurrences) ∪ (subtree masks of non-CA
    children restricted to keyword-node ancestors) covers the query.
    """
    try:
        normalized = normalize_lists(lists)
    except EmptyKeywordList:
        return []
    matches = merge_matches(normalized)
    target = full_mask(len(normalized))
    masks = common_ancestor_masks(matches)
    match_masks: Dict[DeweyCode, int] = {m.dewey: m.mask for m in matches}

    # The non-CA nodes of the ancestor closure, their masks OR-ed under
    # their parents: one pass instead of one closure scan per candidate.
    non_ca_children: Dict[Tuple[int, ...], int] = {}
    for code, mask in masks.items():
        if mask != target and len(code) > 1:
            parent = code[:-1]
            non_ca_children[parent] = non_ca_children.get(parent, 0) | mask
    return sorted(
        code for code, mask in masks.items()
        if mask == target and (match_masks.get(code, 0)
                               | non_ca_children.get(code, 0)) == target)


def naive_elca_exhaustive(lists: KeywordLists) -> List[DeweyCode]:
    """ELCA computed by literally excluding full-subtree descendants.

    Slower than :func:`naive_elca` but textually closest to the definition;
    used to cross-check the two reference implementations in the test suite.
    """
    try:
        normalized = normalize_lists(lists)
    except EmptyKeywordList:
        return []
    matches = merge_matches(normalized)
    target = full_mask(len(normalized))
    masks = common_ancestor_masks(matches)
    common_ancestors = sorted(code for code, mask in masks.items() if mask == target)

    elcas: List[DeweyCode] = []
    for candidate in common_ancestors:
        blockers = [other for other in common_ancestors
                    if candidate.is_ancestor_of(other)]
        remaining = 0
        for match in matches:
            if not candidate.is_ancestor_or_self(match.dewey):
                continue
            if any(blocker.is_ancestor_or_self(match.dewey) for blocker in blockers):
                continue
            remaining |= match.mask
        if remaining == target:
            elcas.append(candidate)
    return sorted(elcas)


def naive_elca_is_slca(elcas: List[DeweyCode]) -> List[bool]:
    """For each root, whether no other root is its strict descendant.

    The all-pairs definition :func:`~repro.lca.indexed_stack.elca_is_slca`
    is tested against.
    """
    return [not any(code.is_ancestor_of(other) for other in elcas
                    if other != code)
            for code in elcas]
