"""The node model of the XML tree substrate.

The paper models an XML document as a tree ``T = (r, V, E, Sigma, lambda)``
where every node carries a label, leaf nodes carry a text value, and nodes may
carry attributes.  The *content* ``C_v`` of a node is the word set implied by
its label, text and attributes (Section 1), which is what keyword matching is
evaluated against.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from .dewey import DeweyCode

#: The attribute mapping of every node built without attributes: one
#: shared read-only mapping instead of an empty ``dict`` per node.
NO_ATTRIBUTES: Mapping[str, str] = MappingProxyType({})


class XMLNode:
    """A single node of an :class:`~repro.xmltree.tree.XMLTree`.

    Nodes are created and wired by :class:`~repro.xmltree.builder.TreeBuilder`
    or the parser; user code normally only reads them.

    Attributes
    ----------
    dewey:
        The node's Dewey code (unique within its tree).
    label:
        The element name ("tag") of the node.
    text:
        The text value of the node, or ``None``.  In the paper's model only
        leaf nodes carry text, but mixed content is tolerated.
    attributes:
        Attribute name/value mapping: the node's own ``dict`` copy, or the
        shared read-only :data:`NO_ATTRIBUTES` when it has none.

    A leaf holds the shared empty tuple as its children until
    :meth:`attach_child` gives it a list, so a resident tree pays for
    containers only where they hold something.
    """

    __slots__ = ("dewey", "label", "text", "attributes", "_parent", "_children")

    def __init__(
        self,
        dewey: DeweyCode,
        label: str,
        text: Optional[str] = None,
        attributes: Optional[Mapping[str, str]] = None,
    ):
        self.dewey = dewey
        self.label = label
        self.text = text
        self.attributes: Mapping[str, str] = (dict(attributes) if attributes
                                              else NO_ATTRIBUTES)
        self._parent: Optional["XMLNode"] = None
        self._children: Union[Tuple[()], List["XMLNode"]] = ()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def parent(self) -> Optional["XMLNode"]:
        """The parent node, or ``None`` for the root."""
        return self._parent

    @property
    def children(self) -> List["XMLNode"]:
        """The node's children in document order (read-only copy)."""
        return list(self._children)

    @property
    def is_leaf(self) -> bool:
        """True iff the node has no children."""
        return not self._children

    @property
    def is_root(self) -> bool:
        """True iff the node has no parent."""
        return self._parent is None

    @property
    def depth(self) -> int:
        """Zero-based depth (the root is at depth 0)."""
        return self.dewey.level

    def child_count(self) -> int:
        """Number of children."""
        return len(self._children)

    def attach_child(self, child: "XMLNode") -> None:
        """Wire ``child`` as the last child of this node (builder use only)."""
        child._parent = self
        if isinstance(self._children, list):
            self._children.append(child)
        else:
            self._children = [child]

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node and every descendant in pre-order."""
        stack: List[XMLNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def iter_descendants(self) -> Iterator["XMLNode"]:
        """Yield every strict descendant in pre-order."""
        iterator = self.iter_subtree()
        next(iterator)  # skip self
        return iterator

    def iter_ancestors(self, include_self: bool = False) -> Iterator["XMLNode"]:
        """Yield ancestors from the parent (or self) up to the root."""
        node = self if include_self else self._parent
        while node is not None:
            yield node
            node = node._parent

    def find_children(self, label: str) -> List["XMLNode"]:
        """All direct children carrying ``label``."""
        return [child for child in self._children if child.label == label]

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    def raw_strings(self) -> List[str]:
        """The raw strings that define this node's content ``C_v``.

        Following the paper (Section 1 and 5.2) the content of a node is the
        word set implied by its *label*, its *text* and its *attributes*
        (both names and values).
        """
        pieces = [self.label]
        if self.text:
            pieces.append(self.text)
        for name, value in self.attributes.items():
            pieces.append(name)
            if value:
                pieces.append(value)
        return pieces

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        text = f" text={self.text!r}" if self.text else ""
        return f"XMLNode({self.dewey} {self.label!r}{text})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XMLNode):
            return self.dewey == other.dewey and self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dewey, self.label))
