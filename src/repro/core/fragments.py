"""Result fragments: SLCA-based fragments, RTFs and their pruned forms.

A fragment is identified by its root (an interesting LCA node) and carries

* the keyword nodes assigned to that root (the partition of Definitions 1/2),
  and, when ``getRTF`` built it, each keyword node's keyword mask and the
  fragment's shape as node positions,
* the full node set — the union of root-to-keyword-node paths, i.e.
  ``I(ECT_Q,j)`` of Definition 2,
* after pruning, the subset of nodes kept by the filtering mechanism.

Fragments are plain immutable data; the pipeline in
:mod:`repro.core.pipeline` produces them and the metrics in
:mod:`repro.core.metrics` compare them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..xmltree import DeweyCode, XMLTree
from .errors import FragmentError
from .query import Query


@dataclass(frozen=True)
class Fragment:
    """A raw (unpruned) result fragment rooted at an interesting LCA node.

    :func:`~repro.core.rtf.build_rtfs` also records the fragment's shape,
    as positions in ``nodes`` (document order, so the root is position 0):

    * ``keyword_masks`` runs parallel to ``keyword_nodes``: bit *i* of a
      mask is set iff the node is in the *i*-th posting list, i.e. contains
      the *i*-th query keyword;
    * ``parents`` runs parallel to ``nodes``: each node's parent position,
      ``-1`` for the root;
    * ``keyword_positions`` runs parallel to ``keyword_nodes``: each keyword
      node's position.

    Fragments built from codes alone (:func:`build_fragment`) carry none of
    the three.  They are derived data, so they take no part in equality.
    """

    root: DeweyCode
    keyword_nodes: Tuple[DeweyCode, ...]
    nodes: Tuple[DeweyCode, ...]
    is_slca: bool = True
    keyword_masks: Tuple[int, ...] = field(default=(), compare=False)
    parents: Tuple[int, ...] = field(default=(), compare=False)
    keyword_positions: Tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        for keyword_node in self.keyword_nodes:
            if not self.root.is_ancestor_or_self(keyword_node):
                raise FragmentError(
                    f"keyword node {keyword_node} is outside fragment root {self.root}"
                )
        node_set = set(self.nodes)
        if self.root not in node_set:
            raise FragmentError(f"fragment root {self.root} missing from node set")
        missing = [kn for kn in self.keyword_nodes if kn not in node_set]
        if missing:
            raise FragmentError(f"keyword nodes {missing} missing from node set")

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes in the raw fragment."""
        return len(self.nodes)

    def node_set(self) -> FrozenSet[DeweyCode]:
        """The raw node set as a frozen set."""
        return frozenset(self.nodes)

    def contains(self, dewey: DeweyCode) -> bool:
        """True iff the node belongs to the raw fragment."""
        return dewey in set(self.nodes)

    def __repr__(self) -> str:
        kind = "SLCA" if self.is_slca else "LCA"
        return (f"Fragment(root={self.root}, {kind}, "
                f"keyword_nodes={len(self.keyword_nodes)}, nodes={len(self.nodes)})")


@dataclass(frozen=True)
class PrunedFragment:
    """A fragment together with the node subset kept by a filtering mechanism."""

    fragment: Fragment
    kept_nodes: Tuple[DeweyCode, ...]
    algorithm: str = ""

    def __post_init__(self):
        raw = self.fragment.node_set()
        stray = [node for node in self.kept_nodes if node not in raw]
        if stray:
            raise FragmentError(f"kept nodes {stray} are not part of the raw fragment")
        if self.fragment.root not in set(self.kept_nodes):
            raise FragmentError("pruning removed the fragment root")

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> DeweyCode:
        """The fragment root (never pruned)."""
        return self.fragment.root

    @property
    def is_slca(self) -> bool:
        """Whether the root is an SLCA node."""
        return self.fragment.is_slca

    @property
    def size(self) -> int:
        """Number of kept nodes."""
        return len(self.kept_nodes)

    def kept_set(self) -> FrozenSet[DeweyCode]:
        """The kept nodes as a frozen set."""
        return frozenset(self.kept_nodes)

    def pruned_nodes(self) -> Tuple[DeweyCode, ...]:
        """The nodes of the raw fragment that the filter discarded."""
        kept = self.kept_set()
        return tuple(node for node in self.fragment.nodes if node not in kept)

    def kept_keyword_nodes(self) -> Tuple[DeweyCode, ...]:
        """The keyword nodes of the fragment that survived pruning."""
        kept = self.kept_set()
        return tuple(node for node in self.fragment.keyword_nodes if node in kept)

    def __repr__(self) -> str:
        return (f"PrunedFragment(root={self.root}, kept={len(self.kept_nodes)}/"
                f"{self.fragment.size}, algorithm={self.algorithm!r})")


@dataclass(frozen=True)
class SearchResult:
    """The complete answer of one algorithm run for one query."""

    query: Query
    algorithm: str
    fragments: Tuple[PrunedFragment, ...]
    elapsed_seconds: float = 0.0
    lca_nodes: Tuple[DeweyCode, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of result fragments."""
        return len(self.fragments)

    def roots(self) -> Tuple[DeweyCode, ...]:
        """The fragment roots in document order."""
        return tuple(fragment.root for fragment in self.fragments)

    def by_root(self) -> Dict[DeweyCode, PrunedFragment]:
        """Mapping root Dewey code -> fragment."""
        return {fragment.root: fragment for fragment in self.fragments}

    def total_kept_nodes(self) -> int:
        """Total number of kept nodes across all fragments."""
        return sum(fragment.size for fragment in self.fragments)

    def with_timing(self, elapsed_seconds: float) -> "SearchResult":
        """A copy of the result carrying a measured elapsed time."""
        return replace(self, elapsed_seconds=elapsed_seconds)

    def __iter__(self):
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)


def build_fragment(tree: Optional[XMLTree], root, keyword_nodes,
                   is_slca: bool = True) -> Fragment:
    """Construct the raw fragment ``I(root, keyword nodes)``.

    ``root`` and ``keyword_nodes`` accept Dewey codes in any coercible form
    (code objects, dotted strings, int sequences).  The node set is the union
    of the paths from the root to every keyword node, sorted in document order
    (Definition 2).

    ``tree`` may be ``None``: a root-to-node path is fully determined by the
    Dewey codes themselves (every prefix of a node's code is an ancestor), so
    disk-backed searches build fragments without a resident tree.  When a
    tree *is* given it is used to resolve the paths, which also validates
    that every code exists in the document.
    """
    root_code = DeweyCode.coerce(root)
    keyword_list: List[DeweyCode] = sorted(
        {DeweyCode.coerce(code) for code in keyword_nodes})
    if tree is not None:
        node_codes = [node.dewey
                      for node in tree.fragment_nodes(root_code, keyword_list)]
        if root_code not in node_codes:
            node_codes.insert(0, root_code)
    else:
        node_codes = list(dewey_fragment_nodes(root_code, keyword_list))
    return Fragment(
        root=root_code,
        keyword_nodes=tuple(keyword_list),
        nodes=tuple(sorted(set(node_codes))),
        is_slca=is_slca,
    )


def dewey_fragment_nodes(root: DeweyCode,
                         keyword_nodes: Iterable[DeweyCode]) -> List[DeweyCode]:
    """The fragment node set computed from Dewey codes alone.

    The union of root-to-keyword-node paths, where each path is the set of
    Dewey prefixes of the keyword node at least as deep as the root —
    identical to :meth:`XMLTree.fragment_nodes` on any tree containing the
    codes, but usable when no tree is resident.
    """
    codes = {root}
    root_depth = len(root)
    for keyword_node in keyword_nodes:
        if not root.is_ancestor_or_self(keyword_node):
            raise FragmentError(
                f"keyword node {keyword_node} is outside fragment root {root}")
        for size in range(root_depth, len(keyword_node) + 1):
            # Prefix slices of a validated code are valid; skip re-validation
            # on this per-fragment inner loop.
            codes.add(DeweyCode._from_tuple(keyword_node[:size]))
    return sorted(codes)


def unpruned(fragment: Fragment, algorithm: str = "raw") -> PrunedFragment:
    """Wrap a raw fragment as a "pruning" that keeps every node."""
    return PrunedFragment(fragment=fragment, kept_nodes=fragment.nodes,
                          algorithm=algorithm)


def fragments_equal(left: Sequence[PrunedFragment],
                    right: Sequence[PrunedFragment]) -> bool:
    """True iff two result lists keep exactly the same nodes per root."""
    left_map = {fragment.root: fragment.kept_set() for fragment in left}
    right_map = {fragment.root: fragment.kept_set() for fragment in right}
    return left_map == right_map
