"""The *valid contributor* filtering mechanism (Definition 4) — the paper's core.

A child ``v`` of ``u`` (both in an RTF) is a **valid contributor** iff

1. ``v`` is the unique child of ``u`` carrying its label, or
2. among the same-label siblings ``v1..vm``:
   (a) no sibling's tree keyword set strictly covers ``v``'s
       (``¬∃ vi: TK_v ⊂ TK_vi``), and
   (b) among siblings with an *equal* keyword set, ``v``'s tree content is
       distinct (``TC_v ≠ TC_vi``).  Operationally (Algorithm 1, lines 21–25)
       the first sibling of each (keyword set, content feature) pair in
       document order is kept as the representative and later duplicates are
       discarded — this is how "one of them should be discarded" is realized.

Rule 1 fixes MaxMatch's false-positive problem, rule 2(a) keeps the good part
of the contributor filter and rule 2(b) fixes the redundancy problem.

Content equality uses the node record's content feature: the paper's
``(min, max)`` word pair on the search path, or the exact tree content set
in the reference record trees of the cID ablation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .contributor import covering_siblings
from .fragments import PrunedFragment
from .node_record import ContentFeature, RecordTree


def discarding_siblings(group: Sequence[int], masks: Sequence[int],
                        features: Sequence[ContentFeature]) -> List[int]:
    """Definition 4 over one label group (positions, document order): for
    each member, ``-1`` when it is a valid contributor, else the position of
    the sibling that discards it.

    That is the first sibling whose mask strictly covers its own (rule
    2(a)), or else the first sibling with its mask and content feature (rule
    2(b)).  A lone member is kept (rule 1).  The single Definition 4 kernel,
    shared by :func:`is_valid_contributor`, the pruning loop and the
    explanation, so the rules can never diverge between them.
    """
    blame = covering_siblings(group, masks)
    first: Dict[Tuple[int, ContentFeature], int] = {}
    for index, child in enumerate(group):
        if blame[index] < 0:
            earlier = first.setdefault((masks[child], features[child]), child)
            if earlier != child:
                blame[index] = earlier
    return blame


def is_valid_contributor(position: int, group: Sequence[int],
                         masks: Sequence[int],
                         features: Sequence[ContentFeature]) -> bool:
    """Definition 4 test for one node against its same-label siblings.

    ``group`` must be the positions of the children of the node's parent
    that share its label (the node included), in document order, and
    ``masks`` / ``features`` the record tree's columns.  The duplicate-content
    rule 2(b) keeps the *first* sibling of each (key number, content feature)
    pair, so the test depends on document order for exact ties.
    """
    return discarding_siblings(group, masks, features)[
        list(group).index(position)] < 0


def prune_with_valid_contributor(records: RecordTree,
                                 algorithm: str = "validrtf") -> PrunedFragment:
    """The pruning step of ``pruneRTF`` (Algorithm 1, lines 16–26).

    Breadth-first traversal of the record tree from the root (position 0);
    for every node, its children are examined per distinct label:

    * a label group with a single child keeps that child (rule 1, line 26),
    * otherwise each child is kept iff (i) its key number is not strictly
      covered by a larger key number in the group (rule 2(a)) and (ii) no
      earlier kept sibling with the same key number had the same content
      feature (rule 2(b)).

    Children that are discarded are not traversed further, so their whole
    subtrees leave the meaningful RTF.
    """
    children, masks, features = records.children, records.masks, records.features
    kept = [0]
    for parent in kept:  # the kept list doubles as the breadth-first queue
        kids = children[parent]
        if len(kids) == 1:  # a unique label (rule 1)
            kept.append(kids[0])
        elif kids:
            for group in records.label_groups(parent):
                kept.extend(child for child, blame in zip(
                    group, discarding_siblings(group, masks, features))
                    if blame < 0)
    kept.sort()
    nodes = records.fragment.nodes
    return PrunedFragment(fragment=records.fragment,
                          kept_nodes=tuple([nodes[i] for i in kept]),
                          algorithm=algorithm)
