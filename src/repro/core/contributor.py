"""The *contributor* filtering mechanism of MaxMatch (Liu & Chen, VLDB 2008).

A node ``n`` of a fragment is a **contributor** when it has no sibling ``n2``
(within the fragment, any label) such that ``dMatch(n) ⊂ dMatch(n2)`` — i.e.
its matched-keyword set is not strictly covered by a sibling's.  MaxMatch
keeps a fragment node iff the node and all its fragment ancestors are
contributors, which the pruning below realizes with a top-down traversal
(descendants of discarded nodes are discarded too).

The paper shows this filter commits the *false positive problem* (it can
discard interesting uniquely-labelled children, e.g. a paper ``title`` whose
keywords are subsumed by the ``abstract``) and the *redundancy problem* (it
keeps same-label siblings whose matched content is identical).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .fragments import PrunedFragment
from .node_record import RecordTree


def covering_siblings(siblings: Sequence[int],
                      masks: Sequence[int]) -> List[int]:
    """For each sibling position, the first sibling (document order) whose
    keyword mask strictly covers its own, or ``-1`` when none does.

    The single cover kernel: the contributor test, Definition 4's rule 2(a)
    (over one label group) and both explanations decide through it, so the
    rule can never diverge between explaining and pruning.
    """
    sibling_masks = [masks[sibling] for sibling in siblings]
    # Siblings with equal masks share a verdict: one scan per distinct mask.
    coverer: Dict[int, int] = {}
    for mask in set(sibling_masks):
        for other, other_mask in zip(siblings, sibling_masks):
            if mask != other_mask and mask & other_mask == mask:
                coverer[mask] = other
                break
    return [coverer.get(mask, -1) for mask in sibling_masks]


def is_contributor(position: int, siblings: Sequence[int],
                   masks: Sequence[int]) -> bool:
    """MaxMatch's contributor test for one node against its siblings.

    ``siblings`` are the positions of the children of the node's parent
    within the fragment (any label, the node included) and ``masks`` the
    record tree's mask column.  The node fails iff some sibling's keyword
    mask is a strict superset of its own.
    """
    return covering_siblings(siblings, masks)[list(siblings).index(position)] < 0


def prune_with_contributor(records: RecordTree,
                           algorithm: str = "maxmatch") -> PrunedFragment:
    """Apply MaxMatch's contributor filter to one RTF / SLCA fragment.

    Top-down breadth-first traversal from the fragment root (position 0): a
    child is kept iff it is a contributor among its parent's children;
    subtrees of discarded children are never visited (so they are discarded
    wholesale), matching the pruneMatches behaviour of MaxMatch.
    """
    children, masks = records.children, records.masks
    kept = [0]
    for parent in kept:  # the kept list doubles as the breadth-first queue
        kids = children[parent]
        if len(kids) == 1:  # an only child has no sibling to cover it
            kept.append(kids[0])
        elif kids:
            kept.extend(child for child, coverer
                        in zip(kids, covering_siblings(kids, masks))
                        if coverer < 0)
    kept.sort()
    nodes = records.fragment.nodes
    return PrunedFragment(fragment=records.fragment,
                          kept_nodes=tuple([nodes[i] for i in kept]),
                          algorithm=algorithm)
