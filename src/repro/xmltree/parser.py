"""Parsing XML documents into :class:`~repro.xmltree.tree.XMLTree` objects.

The paper's system parses documents with Xerces; this substrate uses the
standard-library :mod:`xml.etree.ElementTree` parser, assigning Dewey codes in
one walk of the element tree with an explicit stack.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Union

from .dewey import DeweyCode
from .errors import ParseError
from .node import XMLNode
from .tree import XMLTree


def parse_string(document: str, name: str = "") -> XMLTree:
    """Parse an XML document given as a string."""
    try:
        element = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML document: {exc}") from exc
    return _convert(element, name)


def parse_file(path: Union[str, Path], name: str = "") -> XMLTree:
    """Parse an XML document stored in a file."""
    file_path = Path(path)
    try:
        element = ET.parse(str(file_path)).getroot()
    except (ET.ParseError, OSError) as exc:
        raise ParseError(f"cannot parse {file_path}: {exc}") from exc
    return _convert(element, name or file_path.stem)


def to_xml_string(tree: XMLTree, indent: str = "  ") -> str:
    """Serialize a whole tree back to an XML string (round-trip helper).

    ElementTree's writer recurses once per level, so, unlike parsing, this
    is bounded by Python's recursion limit: a tree nested about a thousand
    levels deep raises ``RecursionError``.
    """
    element = _to_element(tree.root)
    _indent_element(element, indent)
    return ET.tostring(element, encoding="unicode")


def write_xml_file(tree: XMLTree, path: Union[str, Path], indent: str = "  ") -> None:
    """Write a tree to a file as XML."""
    Path(path).write_text(to_xml_string(tree, indent=indent), encoding="utf-8")


# ---------------------------------------------------------------------- #
# Internal conversion helpers
# ---------------------------------------------------------------------- #
def _convert(element: ET.Element, name: str) -> XMLTree:
    """Convert an ElementTree walked with an explicit stack, so a document's
    depth is not bounded by Python's recursion limit."""
    root = _new_node(element, DeweyCode.root())
    stack = [(element, root)]
    while stack:
        parent, node = stack.pop()
        for index, child in enumerate(parent):
            child_node = _new_node(child, node.dewey.child(index))
            node.attach_child(child_node)
            stack.append((child, child_node))
            tail = (child.tail or "").strip()
            if tail:
                # Mixed content: append the tail text to the parent's text so
                # no words are lost for keyword matching.
                node.text = f"{node.text} {tail}" if node.text else tail
    return XMLTree(root, name=name)


def _new_node(element: ET.Element, dewey: DeweyCode) -> XMLNode:
    text = (element.text or "").strip() or None
    return XMLNode(dewey, _local_name(element.tag), text, element.attrib)


def _local_name(tag: str) -> str:
    # Strip any XML namespace prefix of the form "{uri}local".
    if tag.startswith("{"):
        return tag.split("}", 1)[1]
    return tag


def _to_element(node: XMLNode) -> ET.Element:
    element = ET.Element(node.label, dict(node.attributes))
    if node.text:
        element.text = node.text
    for child in node.children:
        element.append(_to_element(child))
    return element


def _indent_element(element: ET.Element, indent: str, level: int = 0) -> None:
    pad = "\n" + indent * (level + 1)
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad
        for child in element:
            _indent_element(child, indent, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad
        last = element[-1]
        last.tail = "\n" + indent * level
