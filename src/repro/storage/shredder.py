"""Shredding XML trees into the relational schema of Section 5.2.

A document becomes ``label`` rows, one ``element`` row per node (its label,
Dewey code, label number sequence and cID) and one ``posting`` row per
keyword (its packed Dewey list).  Section 5.2's ``value`` table, one row per
(node, word) pair, is not written: the posting blobs answer every keyword
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..index import InvertedIndex
from ..xmltree import XMLNode, XMLTree
from .schema import ElementRow, LabelRow, encode_dewey

#: One ``posting`` row: ``(keyword, cardinality, blob, max_depth)``.
PostingRow = Tuple[str, int, bytes, int]


@dataclass(frozen=True)
class ShreddedDocument:
    """All rows produced by shredding one document."""

    name: str
    labels: Tuple[LabelRow, ...]
    elements: Tuple[ElementRow, ...]
    postings: Tuple[PostingRow, ...]

    @property
    def node_count(self) -> int:
        return len(self.elements)


def shred_tree(tree: XMLTree, name: str = "") -> ShreddedDocument:
    """Shred a tree into ``label`` / ``element`` / ``posting`` rows.

    Each node is tokenized once, by the :class:`~repro.index.InvertedIndex`
    the memory backend serves, and both its stored cID and the posting rows
    come from that one word set, so the disk and memory backends cannot
    tokenize apart.  A ``posting`` row is ``(keyword, cardinality, blob,
    max_depth)``: the keyword's document-order Dewey list as one
    prefix-truncated packed blob, and its impact (posting count and deepest
    Dewey level, root = 0), the shred-time metadata the corpus ranking
    derives its score bounds from.
    """
    document = name or tree.name or "document"
    index = InvertedIndex(tree)
    node_cid = index.analyzer.node_cid
    label_ids: Dict[str, int] = {}
    elements: List[ElementRow] = []
    for node in tree.iter_preorder():
        label_ids.setdefault(node.label, len(label_ids))
        low, high = node_cid(node)
        elements.append(ElementRow(
            document=document,
            label=node.label,
            dewey=encode_dewey(node.dewey),
            label_number_sequence=_label_number_sequence(node, label_ids),
            content_feature_min=low,
            content_feature_max=high,
        ))
    postings = tuple((word, len(packed), packed.to_blob(),
                      index.impact(word).max_depth)
                     for word, packed in index.packed_postings())
    labels = tuple(LabelRow(label=label, label_id=label_id)
                   for label, label_id in sorted(label_ids.items(),
                                                 key=lambda item: item[1]))
    return ShreddedDocument(name=document, labels=labels,
                            elements=tuple(elements), postings=postings)


def _label_number_sequence(node: XMLNode, label_ids: Dict[str, int]) -> str:
    """Label numbers of the ancestors from the root down to the node itself."""
    chain = list(node.iter_ancestors(include_self=True))
    chain.reverse()
    numbers = []
    for member in chain:
        numbers.append(str(label_ids.setdefault(member.label, len(label_ids))))
    return ".".join(numbers)
