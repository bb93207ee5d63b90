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

The constructing step of ``pruneRTF`` (Algorithm 1, lines 1–15) builds this
record tree bottom-up from the RTF's keyword nodes: every keyword node's
information is propagated to all its ancestors within the fragment.  It runs
as a seed and a fold on exactly what the record holds:

* **seed** — each keyword node's record takes its keyword mask from the
  fragment (the mask ``getRTF`` computed while merging the posting lists) and
  its own content feature from a node lookup: the node's stored cID, or its
  content word set;
* **fold** — one pass in reverse document order folds every record into its
  parent, once per fragment edge: bit-OR for the masks, min/max for cID
  pairs, union for word sets.

Two content-feature modes are supported:

* ``"minmax"`` — the paper's approximate ``(min, max)`` pair;
* ``"exact"`` — the full tree content set, read off a resident tree.  Used by
  the ablation benchmark to quantify how often the approximation
  misidentifies duplicate content.

:func:`build_record_tree` computes every record from its definition instead
(node contents, no fold); it is the reference the search path is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from ..text import EMPTY_CID, ContentAnalyzer, content_id
from ..xmltree import DeweyCode, XMLTree
from .fragments import Fragment
from .query import Query

ContentFeature = Union[Tuple[str, str], FrozenSet[str]]

#: Content-feature modes accepted by the record builders.
CID_MODES = ("minmax", "exact")


@dataclass
class LabelGroup:
    """One ``chlList`` entry: the children of a node sharing one label."""

    label: str
    children: List["NodeRecord"] = field(default_factory=list)

    @property
    def counter(self) -> int:
        """Number of children with this label."""
        return len(self.children)

    def key_numbers(self) -> List[int]:
        """The children's key numbers (``chkList``), sorted ascending."""
        return sorted(child.key_number for child in self.children)

    def content_features(self) -> List[ContentFeature]:
        """The children's content features (``chcIDList``)."""
        return [child.content_feature for child in self.children]


@dataclass
class NodeRecord:
    """The per-node record of Section 4.1."""

    dewey: DeweyCode
    label: str
    keyword_mask: int = 0
    #: The ``cID``: the ``(min, max)`` word pair, or the exact word set.
    content_feature: ContentFeature = EMPTY_CID
    is_keyword_node: bool = False
    children: List["NodeRecord"] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Self info
    # ------------------------------------------------------------------ #
    @property
    def key_number(self) -> int:
        """The integer value of ``kList`` (the paper's key number)."""
        return self.keyword_mask

    def tree_keyword_set(self, query: Query) -> FrozenSet[str]:
        """``TK_v`` decoded back into keyword strings."""
        return frozenset(query.keywords_of(self.keyword_mask))

    # ------------------------------------------------------------------ #
    # Children info
    # ------------------------------------------------------------------ #
    def label_groups(self) -> List[LabelGroup]:
        """The ``chlList``: children grouped by distinct label, document order."""
        groups: Dict[str, LabelGroup] = {}
        for child in self.children:
            groups.setdefault(child.label, LabelGroup(child.label)).children.append(child)
        return list(groups.values())

    def group_for(self, label: str) -> Optional[LabelGroup]:
        """The label group of ``label``, or ``None``."""
        for group in self.label_groups():
            if group.label == label:
                return group
        return None

    def iter_records(self):
        """Yield this record and all descendant records in document order."""
        yield self
        for child in self.children:
            yield from child.iter_records()

    def __repr__(self) -> str:
        return (f"NodeRecord({self.dewey} {self.label!r} key={self.key_number} "
                f"cid={self.content_feature!r})")


@dataclass(frozen=True)
class RecordTree:
    """The record tree of one RTF built by the constructing step."""

    fragment: Fragment
    root: NodeRecord
    by_dewey: Dict[DeweyCode, NodeRecord]

    def record(self, dewey: DeweyCode) -> NodeRecord:
        """The record of one fragment node."""
        return self.by_dewey[dewey]

    def size(self) -> int:
        """Number of records (equals the raw fragment size)."""
        return len(self.by_dewey)


def build_record_tree(
    tree: XMLTree,
    analyzer: ContentAnalyzer,
    query: Query,
    fragment: Fragment,
    cid_mode: str = "minmax",
) -> RecordTree:
    """The constructing step by definition: the reference record tree.

    Every record is computed on its own from node contents, with no fold and
    no use of the fragment's masks.  A node's tree content set is the union
    of the contents of the *fragment's own keyword nodes* located in its
    subtree — the restriction the paper's line 11/12 fix is about:
    keyword-node information must reach every ancestor within the RTF, but
    keyword nodes belonging to other (deeper) RTFs never contribute.  Its
    mask is the query keywords in that set and its feature the set's cID
    (``minmax``) or the set itself (``exact``).  Quadratic in the fragment;
    the search path runs :func:`build_record_tree_from_lookups`, and the
    tests check it against this function.
    """
    _check_cid_mode(cid_mode)
    contents = {dewey: analyzer.node_content(tree.node(dewey))
                for dewey in fragment.keyword_nodes}
    records, _, _ = _link(fragment, lambda dewey: tree.node(dewey).label,
                          EMPTY_CID)
    for dewey, record in records.items():
        words = frozenset().union(*(
            content for keyword_node, content in contents.items()
            if dewey.is_ancestor_or_self(keyword_node)))
        record.is_keyword_node = dewey in contents
        record.keyword_mask = query.mask_of(
            keyword for keyword in query.keywords if keyword in words)
        record.content_feature = (content_id(words) if cid_mode == "minmax"
                                  else words)
    return RecordTree(fragment=fragment, root=records[fragment.root],
                      by_dewey=records)


def build_record_tree_from_lookups(
    label_of: Callable[[DeweyCode], Optional[str]],
    feature_of: Callable[[DeweyCode], ContentFeature],
    fragment: Fragment,
    cid_mode: str = "minmax",
) -> RecordTree:
    """The constructing step as a seed and a fold (the search path).

    Each keyword node is seeded with its mask from ``fragment.keyword_masks``
    and with ``feature_of(node)``, the node's own content feature: its cID
    pair in ``minmax`` mode, its content word set in ``exact`` mode.  One
    pass in reverse document order then folds every record into its
    parent: bit-OR for the mask, min/max for cID pairs, union for word
    sets.  ``label_of`` resolves a node's label.  Any
    :class:`~repro.index.source.PostingSource` provides the ``minmax``
    lookups (``node_label``, ``node_cid``), which is how disk-backed
    searches run the pruning stage without the document resident.
    """
    _check_cid_mode(cid_mode)
    masks = fragment.keyword_masks
    if len(masks) != len(fragment.keyword_nodes):
        raise ValueError(
            f"fragment {fragment.root} carries {len(masks)} keyword masks for "
            f"{len(fragment.keyword_nodes)} keyword nodes; build it with "
            f"build_rtfs, or use build_record_tree")
    minmax = cid_mode == "minmax"
    empty: ContentFeature = EMPTY_CID if minmax else frozenset()
    records, order, parents = _link(fragment, label_of, empty)
    for dewey, mask in zip(fragment.keyword_nodes, masks):
        record = records[dewey]
        record.is_keyword_node = True
        record.keyword_mask = mask
        record.content_feature = feature_of(dewey)
    for record, parent in zip(reversed(order), reversed(parents)):
        if parent is None:
            continue
        parent.keyword_mask |= record.keyword_mask
        if not minmax:
            parent.content_feature = parent.content_feature | record.content_feature
            continue
        low, high = record.content_feature
        parent_low, parent_high = parent.content_feature
        if parent_high:  # an empty pair has an empty maximum
            parent.content_feature = (min(low, parent_low),
                                      max(high, parent_high))
        else:
            parent.content_feature = record.content_feature
    return RecordTree(fragment=fragment, root=records[fragment.root],
                      by_dewey=records)


def _check_cid_mode(cid_mode: str) -> None:
    if cid_mode not in CID_MODES:
        raise ValueError(f"unknown cid_mode {cid_mode!r}; expected one of {CID_MODES}")


def _link(
    fragment: Fragment,
    label_of: Callable[[DeweyCode], Optional[str]],
    empty: ContentFeature,
) -> Tuple[Dict[DeweyCode, NodeRecord], List[NodeRecord],
           List[Optional[NodeRecord]]]:
    """One record per fragment node, wired to its parent record.

    Returns the records by Dewey code, the records in document order and
    each one's parent record (``None`` for the root).  ``fragment.nodes``
    is sorted, so a node's nearest fragment ancestor is on the path stack
    when the node arrives (prefix compares on raw component tuples — no
    ``parent()`` chains, no per-step code materialization), and children
    are appended in document order, so no per-parent sort is needed.
    """
    records: Dict[DeweyCode, NodeRecord] = {}
    order: List[NodeRecord] = []
    parents: List[Optional[NodeRecord]] = []
    stack: List[Tuple[Tuple[int, ...], NodeRecord]] = []
    root = fragment.root
    for dewey in fragment.nodes:
        # lint: allow(hot-loop-purity) fragment nodes arrive boxed; unbox once
        comps = dewey.components
        record = NodeRecord(dewey=dewey, label=label_of(dewey) or "",
                            content_feature=empty)
        records[dewey] = record
        while stack:
            top = stack[-1][0]
            if len(top) < len(comps) and comps[:len(top)] == top:
                break
            stack.pop()
        if stack:
            parent: Optional[NodeRecord] = stack[-1][1]
            parent.children.append(record)
        elif dewey != root:
            raise ValueError(f"fragment node {dewey} is not connected to the root")
        else:
            parent = None
        order.append(record)
        parents.append(parent)
        stack.append((comps, record))
    return records, order, parents
