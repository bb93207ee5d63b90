"""Executable specification of Definitions 1 and 2 (ECTQ and RTF).

Definition 1 enumerates the *extended keyword node combination set*
``ECT_Q`` — every union of one non-empty subset per keyword node list.
Definition 2 keeps exactly the combinations that form Relaxed Tightest
Fragments.  Both are exponential and only usable on small inputs; they exist
as the ground truth that the efficient pipeline (``getLCA`` + ``getRTF``) is
checked against in the test suite, mirroring the paper's Section 4.3-(1)
analysis and Examples 3–4.

Reading of Definition 2 used here (guided by Example 4):

* a combination is identified with its node-set union ``U``; the per-keyword
  slot is ``U ∩ D_i`` (a node containing several keywords belongs to several
  slots);
* condition 1 — no choice of non-empty subsets of the slots has an LCA
  different from ``LCA(U)``;
* condition 2 — ``U`` is maximal: no further node of any ``D_i`` can be added
  without changing the LCA, *among nodes not already claimed by a deeper
  partition* — this is how Example 4 treats node ``r`` when accepting
  ``{n, t, a}``;
* condition 3 — no node of ``U`` lies inside a deeper partition.

"Deeper partition" means a partition rooted strictly below ``LCA(U)``.  The
paper's Definition 2 phrases this through arbitrary keyword-node subsets, but
the partitions its own pipeline materializes are exactly those rooted at the
interesting LCA (ELCA) nodes returned by ``getLCA`` — so the executable
specification identifies "deeper partitions" with subtrees of ELCA nodes
strictly below ``LCA(U)``.

With that reading the specification agrees with ``getLCA`` + ``getRTF`` on
the figure instances (Examples 3 and 4) and on most small random inputs, but
not on all of them.  ``getRTF`` gives every keyword node to its nearest ELCA
root, so a root's partition can hold two keyword nodes, one per keyword,
whose own LCA lies below the root and is no ELCA; condition 1 rejects that
partition, and ``getRTF`` keeps it.  ``tests/test_ectq.py`` pins two such
inputs, and DESIGN.md section 9 records the departure.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, List, Mapping, Sequence

from ..lca import naive_elca
from ..xmltree import DeweyCode, lca_of_codes

NodeSet = FrozenSet[DeweyCode]


def enumerate_ectq(keyword_lists: Mapping[str, Sequence[DeweyCode]],
                   max_combinations: int = 200_000) -> List[NodeSet]:
    """The distinct node-set unions of ``ECT_Q`` (Definition 1).

    Example 3 counts these unions (11 for the "Liu keyword" query), so the
    enumeration deduplicates unions produced by different subset choices.
    ``max_combinations`` guards against accidental exponential blow-ups.
    """
    per_keyword_subsets: List[List[NodeSet]] = []
    expected = 1
    for deweys in keyword_lists.values():
        unique = sorted(set(DeweyCode.coerce(code) for code in deweys))
        if not unique:
            return []
        subsets = _non_empty_subsets(unique)
        expected *= len(subsets)
        if expected > max_combinations:
            raise ValueError(
                f"ECTQ enumeration would produce more than {max_combinations} "
                f"combinations; restrict the input"
            )
        per_keyword_subsets.append(subsets)
    unions = {frozenset().union(*choice) for choice in product(*per_keyword_subsets)}
    return sorted(unions, key=lambda nodes: (len(nodes), sorted(nodes)))


def is_rtf_combination(union_nodes: NodeSet,
                       keyword_lists: Mapping[str, Sequence[DeweyCode]]) -> bool:
    """Definition 2's three conditions for one combination (see module doc)."""
    full_lists = [
        sorted(set(DeweyCode.coerce(code) for code in deweys))
        for deweys in keyword_lists.values()
    ]
    slots = [frozenset(node for node in union_nodes if node in set(nodes))
             for nodes in full_lists]
    if any(not slot for slot in slots):
        return False
    lca = lca_of_codes(union_nodes)

    keyword_lists_by_index = {str(index): nodes
                              for index, nodes in enumerate(full_lists)}
    interesting_roots = naive_elca(keyword_lists_by_index)
    # The partition must be rooted at an interesting LCA node: Definition 2 is
    # the idealization of the partitions getRTF builds for the roots returned
    # by getLCA (Section 4.3-(1)); keyword nodes that cannot reach any
    # interesting LCA node belong to no partition.
    if lca not in interesting_roots:
        return False
    deeper_roots = [code for code in interesting_roots
                    if lca.is_ancestor_of(code)]

    # Condition 3: no keyword node of the combination belongs to a deeper
    # partition (lies under an interesting LCA node strictly below the LCA).
    for node in union_nodes:
        if any(root.is_ancestor_or_self(node) for root in deeper_roots):
            return False

    # Condition 1: every one-node-per-slot choice has the same LCA (singleton
    # choices witness any violation because adding nodes can only raise LCAs).
    for choice in product(*slots):
        if lca_of_codes(choice) != lca:
            return False

    # Condition 2: maximality among nodes not claimed by deeper partitions.
    for slot, nodes in zip(slots, full_lists):
        for extra in nodes:
            if extra in slot:
                continue
            if any(root.is_ancestor_or_self(extra) for root in deeper_roots):
                continue
            if lca_of_codes(set(union_nodes) | {extra}) == lca:
                return False
    return True


def enumerate_rtfs(keyword_lists: Mapping[str, Sequence[DeweyCode]],
                   max_combinations: int = 200_000) -> List[NodeSet]:
    """The keyword-node sets of every RTF, straight from Definitions 1 and 2."""
    unions = enumerate_ectq(keyword_lists, max_combinations=max_combinations)
    accepted = [union for union in unions
                if is_rtf_combination(union, keyword_lists)]
    return sorted(accepted, key=lambda nodes: (len(nodes), sorted(nodes)))


def rtf_roots(rtf_node_sets: Sequence[NodeSet]) -> List[DeweyCode]:
    """The LCA roots of ground-truth RTF keyword-node sets, document order."""
    return sorted(lca_of_codes(nodes) for nodes in rtf_node_sets)


def _non_empty_subsets(nodes: Sequence[DeweyCode]) -> List[NodeSet]:
    subsets: List[NodeSet] = []
    count = len(nodes)
    for mask in range(1, 1 << count):
        subsets.append(frozenset(
            nodes[index] for index in range(count) if mask & (1 << index)
        ))
    return subsets
