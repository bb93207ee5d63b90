"""The node data structure of Section 4.1 and the RTF "constructing step".

For every node of an RTF the paper keeps:

* *Self Info*: Dewey code, label, keyword list ``kList`` (the tree keyword set
  ``TK_v``, stored as a bitmask whose integer value is the "key number") and
  the content id ``cID`` — the ``(min, max)`` word pair of the tree content
  set ``TC_v`` under lexical order.
* *Children Info*: the children grouped by distinct label (``chlList``); each
  label item records the child count, the children's key numbers
  (``chkList``), their cIDs (``chcIDList``) and references to the child
  records (``chList``).

A :class:`RecordTree` holds these records as columns: parallel lists indexed
by a node's position in ``fragment.nodes`` (document order, so the root is
position 0 and every parent precedes its children).  Position *i* is the
node ``fragment.nodes[i]``; ``labels[i]``, ``masks[i]`` and ``features[i]``
are its label, key number and cID; ``parents[i]`` is its parent's position
and ``children[i]`` its children's, in document order.  Grouping a node's
children by label (:meth:`RecordTree.label_groups`) gives its ``chlList``,
and reading the mask and feature columns at a group's positions gives the
group's ``chkList`` and ``chcIDList``.

The constructing step of ``pruneRTF`` (Algorithm 1, lines 1–15) fills the
columns bottom-up from the RTF's keyword nodes (:func:`fold_records`): every
keyword node's information is propagated to all its ancestors within the
fragment.  It runs as a seed and a fold on exactly what the record holds:

* **seed** — each keyword node's position takes its keyword mask from the
  fragment (the mask ``getRTF`` computed while merging the posting lists)
  and its own cID from a node lookup;
* **fold** — one pass in reverse document order folds every position into
  its parent's, once per fragment edge: bit-OR for the masks, min/max for
  the cID pairs.

:func:`build_record_tree` computes every record from its definition instead
(node contents, no fold); it is the reference the search path is tested
against.  It is also the one home of the second content-feature mode
(:data:`CID_MODES`): ``"exact"`` keeps the full tree content set instead of
the paper's approximate ``(min, max)`` pair, which the cID ablation
benchmark uses to quantify how often the approximation misidentifies
duplicate content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from ..text import EMPTY_CID, ContentAnalyzer, content_id
from ..xmltree import XMLTree
from .fragments import Fragment
from .query import Query

ContentFeature = Union[Tuple[str, str], FrozenSet[str]]

#: Content-feature modes accepted by the record builders.
CID_MODES = ("minmax", "exact")


@dataclass(frozen=True)
class RecordTree:
    """The record tree of one RTF, as columns indexed by node position."""

    fragment: Fragment
    labels: List[str]
    #: The key numbers (``kList`` bitmasks).
    masks: List[int]
    #: The ``cID``s: ``(min, max)`` word pairs, or exact word sets.
    features: List[ContentFeature]
    parents: Sequence[int]
    children: List[List[int]]

    def size(self) -> int:
        """Number of records (equals the raw fragment size)."""
        return len(self.labels)

    def label_groups(self, position: int) -> List[List[int]]:
        """The ``chlList`` of one node: its children's positions grouped by
        label, groups in order of first appearance, members in document
        order."""
        labels = self.labels
        groups: Dict[str, List[int]] = {}
        for child in self.children[position]:
            groups.setdefault(labels[child], []).append(child)
        return list(groups.values())


def build_record_tree(
    tree: XMLTree,
    analyzer: ContentAnalyzer,
    query: Query,
    fragment: Fragment,
    cid_mode: str = "minmax",
) -> RecordTree:
    """The constructing step by definition: the reference record tree.

    Every record is computed on its own from node contents, with no fold and
    no use of the fragment's masks or shape.  A node's tree content set is
    the union of the contents of the *fragment's own keyword nodes* located
    in its subtree — the restriction the paper's line 11/12 fix is about:
    keyword-node information must reach every ancestor within the RTF, but
    keyword nodes belonging to other (deeper) RTFs never contribute.  Its
    mask is the query keywords in that set and its feature the set's cID
    (``minmax``) or the set itself (``exact``); its parent is found by Dewey
    code.  Quadratic in the fragment; the search path runs
    :func:`fold_records`, and the tests compare the two column by column.
    """
    if cid_mode not in CID_MODES:
        raise ValueError(f"unknown cid_mode {cid_mode!r}; expected one of {CID_MODES}")
    contents = {dewey: analyzer.node_content(tree.node(dewey))
                for dewey in fragment.keyword_nodes}
    position = {dewey: index for index, dewey in enumerate(fragment.nodes)}
    labels: List[str] = []
    masks: List[int] = []
    features: List[ContentFeature] = []
    parents: List[int] = []
    for dewey in fragment.nodes:
        words = frozenset().union(*(
            content for keyword_node, content in contents.items()
            if dewey.is_ancestor_or_self(keyword_node)))
        labels.append(tree.node(dewey).label)
        masks.append(query.mask_of(
            keyword for keyword in query.keywords if keyword in words))
        features.append(content_id(words) if cid_mode == "minmax" else words)
        parents.append(position.get(dewey.parent(), -1))
        if parents[-1] < 0 and dewey != fragment.root:
            raise ValueError(f"fragment node {dewey} is not connected to the root")
    return RecordTree(fragment, labels, masks, features, parents,
                      child_positions(parents))


def fold_records(
    fragment: Fragment,
    labels: List[str],
    keyword_cids: Sequence[Tuple[str, str]],
) -> RecordTree:
    """The constructing step as a seed and a fold (the search path).

    ``fragment`` carries the shape ``build_rtfs`` records (``keyword_masks``,
    ``parents``, ``keyword_positions``); ``labels`` runs parallel to its
    nodes and ``keyword_cids`` to its keyword nodes (each one's own cID
    pair).  Each keyword position is seeded with its mask and cID; one pass
    in reverse document order then folds every position into its parent's:
    bit-OR for the mask, min/max for the cID pair.
    """
    parents = fragment.parents
    size = len(parents)
    masks = [0] * size
    features: List[ContentFeature] = [EMPTY_CID] * size
    for position, mask, feature in zip(fragment.keyword_positions,
                                       fragment.keyword_masks,
                                       keyword_cids):
        masks[position] = mask
        features[position] = feature
    for child in range(size - 1, 0, -1):
        parent = parents[child]
        masks[parent] |= masks[child]
        low, high = features[child]
        if not high:  # an empty pair has an empty maximum
            continue
        parent_low, parent_high = features[parent]
        if not parent_high:
            features[parent] = features[child]
        elif low < parent_low or high > parent_high:
            features[parent] = (min(low, parent_low), max(high, parent_high))
    return RecordTree(fragment, labels, masks, features, parents,
                      child_positions(parents))


def child_positions(parents: Sequence[int]) -> List[List[int]]:
    """Each position's child positions, in document order (the root, at
    position 0, is nobody's child)."""
    children: List[List[int]] = [[] for _ in parents]
    for child in range(1, len(parents)):
        children[parents[child]].append(child)
    return children
