"""Programmatic construction of :class:`~repro.xmltree.tree.XMLTree` objects.

Two construction styles are provided:

* :class:`TreeBuilder` — an imperative builder with ``element`` /
  ``text_element`` / ``up`` calls, convenient for dataset generators that emit
  large documents node by node.
* :func:`tree_from_spec` — build a whole tree from a nested
  :class:`~repro.xmltree.tree.SubtreeSpec`, convenient for compact test
  fixtures and the paper's figure instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .dewey import DeweyCode
from .errors import XMLTreeError
from .node import XMLNode
from .tree import SubtreeSpec, XMLTree, _materialize_spec


class TreeBuilder:
    """Incrementally build an XML tree in document order.

    Example
    -------
    >>> builder = TreeBuilder("publications")
    >>> builder.element("article")
    >>> builder.text_element("title", "XML keyword search")
    >>> builder.up()
    >>> tree = builder.build()
    """

    def __init__(self, root_label: str, root_text: Optional[str] = None,
                 attributes: Optional[Dict[str, str]] = None, name: str = ""):
        self._name = name
        self._root = XMLNode(DeweyCode.root(), root_label, root_text, attributes)
        self._stack: List[XMLNode] = [self._root]
        self._built = False

    # ------------------------------------------------------------------ #
    @property
    def current(self) -> XMLNode:
        """The node new elements are currently appended under."""
        return self._stack[-1]

    @property
    def depth(self) -> int:
        """Current nesting depth (the root is depth 1)."""
        return len(self._stack)

    def element(self, label: str, text: Optional[str] = None,
                attributes: Optional[Dict[str, str]] = None) -> XMLNode:
        """Open a new child element and descend into it."""
        self._ensure_open()
        parent = self._stack[-1]
        dewey = parent.dewey.child(parent.child_count())
        node = XMLNode(dewey, label, text, attributes)
        parent.attach_child(node)
        self._stack.append(node)
        return node

    def text_element(self, label: str, text: str,
                     attributes: Optional[Dict[str, str]] = None) -> XMLNode:
        """Add a leaf child element carrying ``text`` without descending."""
        node = self.element(label, text, attributes)
        self._stack.pop()
        return node

    def up(self, levels: int = 1) -> None:
        """Close the ``levels`` innermost open elements."""
        self._ensure_open()
        if levels < 1:
            raise XMLTreeError("up() needs a positive number of levels")
        if levels >= len(self._stack):
            raise XMLTreeError("cannot move above the root element")
        del self._stack[-levels:]

    def build(self) -> XMLTree:
        """Finish and return the tree.  The builder cannot be reused after."""
        self._ensure_open()
        self._built = True
        return XMLTree(self._root, name=self._name)

    def _ensure_open(self) -> None:
        if self._built:
            raise XMLTreeError("this builder has already produced its tree")


def tree_from_spec(spec: SubtreeSpec, name: str = "") -> XMLTree:
    """Materialize a nested :class:`SubtreeSpec` into a full tree."""
    return XMLTree(_materialize_spec(spec, DeweyCode.root()), name=name)


def spec(label: str, text: Optional[str] = None, *children: SubtreeSpec,
         attributes: Optional[Dict[str, str]] = None) -> SubtreeSpec:
    """Shorthand factory for :class:`SubtreeSpec` literals in fixtures."""
    node = SubtreeSpec(label, text, attributes, list(children))
    return node
