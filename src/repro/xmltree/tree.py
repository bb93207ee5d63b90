"""The XML tree model used across the library.

An :class:`XMLTree` is an immutable-ish container of :class:`XMLNode` objects
indexed by their Dewey codes.  It provides the navigation primitives the
paper's algorithms need: node lookup by Dewey code, LCA of node sets, path
extraction (the function ``I(u, v)`` in Definition 2), and copy-with-insertion
used by the axiomatic property checkers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from .dewey import DeweyCode, DeweyLike, lca_of_codes
from .errors import DuplicateNode, NodeNotFound
from .node import XMLNode


class XMLTree:
    """A rooted, ordered, labelled tree with Dewey-coded nodes."""

    def __init__(self, root: XMLNode, name: str = ""):
        self.name = name
        self._root = root
        self._nodes: Dict[DeweyCode, XMLNode] = {}
        self._register_subtree(root)

    def _register_subtree(self, node: XMLNode) -> None:
        for member in node.iter_subtree():
            if member.dewey in self._nodes:
                raise DuplicateNode(f"duplicate Dewey code {member.dewey}")
            self._nodes[member.dewey] = member

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> XMLNode:
        """The root node."""
        return self._root

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, dewey: DeweyLike) -> bool:
        return DeweyCode.coerce(dewey) in self._nodes

    def __iter__(self) -> Iterator[XMLNode]:
        return self.iter_preorder()

    def node(self, dewey: DeweyLike) -> XMLNode:
        """Return the node with the given Dewey code.

        Raises :class:`NodeNotFound` when the code is absent.
        """
        code = DeweyCode.coerce(dewey)
        try:
            return self._nodes[code]
        except KeyError:
            raise NodeNotFound(f"no node with Dewey code {code}") from None

    def get(self, dewey: DeweyLike) -> Optional[XMLNode]:
        """Like :meth:`node` but returns ``None`` instead of raising."""
        return self._nodes.get(DeweyCode.coerce(dewey))

    @property
    def node_table(self) -> Mapping[DeweyCode, XMLNode]:
        """Every node by its :class:`DeweyCode`, without coercion: the
        lookup per-node hot paths read."""
        return self._nodes

    def iter_preorder(self) -> Iterator[XMLNode]:
        """Yield every node in pre-order (document order)."""
        return self._root.iter_subtree()

    def iter_leaves(self) -> Iterator[XMLNode]:
        """Yield every leaf node in document order."""
        return (node for node in self.iter_preorder() if node.is_leaf)

    def labels(self) -> List[str]:
        """The distinct labels appearing in the tree, sorted."""
        return sorted({node.label for node in self.iter_preorder()})

    def size(self) -> int:
        """Total number of nodes."""
        return len(self._nodes)

    def max_depth(self) -> int:
        """The maximum zero-based node depth."""
        return max(node.depth for node in self.iter_preorder())

    # ------------------------------------------------------------------ #
    # LCA and path helpers
    # ------------------------------------------------------------------ #
    def lca(self, deweys: Iterable[DeweyLike]) -> XMLNode:
        """The LCA node of a non-empty set of nodes (by Dewey prefix)."""
        code = lca_of_codes(deweys)
        return self.node(code)

    def path_nodes(self, ancestor: DeweyLike, descendant: DeweyLike) -> List[XMLNode]:
        """The nodes on the path from ``ancestor`` down to ``descendant``.

        This is the paper's ``I(u, v)`` (Definition 2, footnote 3): the path
        node set between two nodes when a path exists.  Both endpoints are
        included.  Raises :class:`NodeNotFound` if either code is absent and
        ``ValueError`` if ``ancestor`` is not an ancestor-or-self of
        ``descendant``.
        """
        top = DeweyCode.coerce(ancestor)
        bottom = DeweyCode.coerce(descendant)
        if not top.is_ancestor_or_self(bottom):
            raise ValueError(f"{top} is not an ancestor of {bottom}")
        nodes = []
        for size in range(len(top), len(bottom) + 1):
            nodes.append(self.node(DeweyCode(bottom[:size])))
        return nodes

    def fragment_nodes(
        self, root_dewey: DeweyLike, keyword_nodes: Iterable[DeweyLike]
    ) -> List[XMLNode]:
        """All nodes of the fragment rooted at ``root_dewey``.

        The fragment is the union of the paths from the fragment root to every
        keyword node — the ``I(ECT_Q,j)`` construction of Definition 2.  The
        result is sorted in document order and contains no duplicates.
        """
        seen: Dict[DeweyCode, XMLNode] = {}
        for keyword_dewey in keyword_nodes:
            for node in self.path_nodes(root_dewey, keyword_dewey):
                seen[node.dewey] = node
        return [seen[code] for code in sorted(seen)]

    # ------------------------------------------------------------------ #
    # Structural statistics
    # ------------------------------------------------------------------ #
    def label_histogram(self) -> Dict[str, int]:
        """Mapping label -> number of nodes carrying it."""
        histogram: Dict[str, int] = {}
        for node in self.iter_preorder():
            histogram[node.label] = histogram.get(node.label, 0) + 1
        return histogram

    # ------------------------------------------------------------------ #
    # Copy / mutation used by the axiomatic property checkers
    # ------------------------------------------------------------------ #
    def copy(self) -> "XMLTree":
        """A deep structural copy of the tree."""
        new_root = _copy_subtree(self._root)
        return XMLTree(new_root, name=self.name)

    def with_inserted_subtree(
        self, parent_dewey: DeweyLike, subtree_spec: "SubtreeSpec"
    ) -> "XMLTree":
        """Return a new tree with ``subtree_spec`` appended under a parent.

        The new subtree is appended as the last child of the parent; the new
        child receives the next free ordinal so existing Dewey codes are
        unchanged — exactly the "data insertion" operation the axiomatic
        properties (data monotonicity / data consistency) quantify over.
        """
        parent_code = DeweyCode.coerce(parent_dewey)
        copied = self.copy()
        parent = copied.node(parent_code)
        ordinal = parent.child_count()
        new_child = _materialize_spec(subtree_spec, parent_code.child(ordinal))
        parent.attach_child(new_child)
        copied._register_subtree(new_child)
        return copied

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"XMLTree({label} nodes={len(self._nodes)})"


class SubtreeSpec:
    """A declarative description of a subtree to insert into a tree.

    Used by the axiomatic property checkers and the dataset generators, where
    subtrees must be described before their Dewey codes are known.
    """

    __slots__ = ("label", "text", "attributes", "children")

    def __init__(
        self,
        label: str,
        text: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[Sequence["SubtreeSpec"]] = None,
    ):
        self.label = label
        self.text = text
        self.attributes = dict(attributes) if attributes else {}
        self.children = list(children) if children else []

    def add(self, child: "SubtreeSpec") -> "SubtreeSpec":
        """Append a child spec and return ``self`` for chaining."""
        self.children.append(child)
        return self

    def node_count(self) -> int:
        """Number of nodes this spec will materialize into."""
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def __repr__(self) -> str:
        return f"SubtreeSpec({self.label!r}, children={len(self.children)})"


def _copy_subtree(node: XMLNode) -> XMLNode:
    """A deep copy of ``node``'s subtree, Dewey codes kept.

    An explicit stack walks it, so a tree as deep as the parser reads
    copies without recursion; children are popped, and attached, in order.
    """
    root = XMLNode(node.dewey, node.label, node.text, node.attributes)
    stack = [(child, root) for child in reversed(node.children)]
    while stack:
        original, parent = stack.pop()
        clone = XMLNode(original.dewey, original.label, original.text,
                        original.attributes)
        parent.attach_child(clone)
        stack.extend((child, clone) for child in reversed(original.children))
    return root


def _materialize_spec(spec: SubtreeSpec, dewey: DeweyCode) -> XMLNode:
    """The nodes of ``spec`` rooted at ``dewey``, built with an explicit
    stack like :func:`_copy_subtree`; child ``i`` gets ``dewey.child(i)``."""
    root = XMLNode(dewey, spec.label, spec.text, spec.attributes)
    stack = [(child, dewey.child(index), root)
             for index, child in reversed(list(enumerate(spec.children)))]
    while stack:
        child_spec, code, parent = stack.pop()
        node = XMLNode(code, child_spec.label, child_spec.text,
                       child_spec.attributes)
        parent.attach_child(node)
        stack.extend((grandchild, code.child(index), node)
                     for index, grandchild
                     in reversed(list(enumerate(child_spec.children))))
    return root
