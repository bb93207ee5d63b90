"""Shredding XML trees into the relational schema of Section 5.2.

A document becomes one ``element`` row per node (its label, Dewey code and
cID) and one ``posting`` row per keyword (its packed Dewey list).  Section
5.2's ``value`` table, one row per (node, word) pair, is not written: the
posting blobs answer every keyword lookup.  Nor are its ``label`` table and
label number sequences: no query reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..index import InvertedIndex
from ..xmltree import XMLTree
from .schema import ElementRow, encode_dewey

#: One ``posting`` row: ``(keyword, cardinality, blob, max_depth)``.
PostingRow = Tuple[str, int, bytes, int]


@dataclass(frozen=True)
class ShreddedDocument:
    """All rows produced by shredding one document."""

    name: str
    elements: Tuple[ElementRow, ...]
    postings: Tuple[PostingRow, ...]

    @property
    def node_count(self) -> int:
        return len(self.elements)


def shred_tree(tree: XMLTree, name: str = "") -> ShreddedDocument:
    """Shred a tree into ``element`` / ``posting`` rows.

    Each node is tokenized once, by the :class:`~repro.index.InvertedIndex`
    the memory backend serves: its stored cID is the one the index recorded
    and the posting rows are the index's lists, so the disk and memory
    backends cannot tokenize apart.  A ``posting`` row is ``(keyword,
    cardinality, blob, max_depth)``: the keyword's document-order Dewey list
    as one prefix-truncated packed blob, and its impact (posting count and
    deepest Dewey level, root = 0), the shred-time metadata the corpus
    ranking derives its score bounds from.
    """
    index = InvertedIndex(tree)
    node_cid = index.node_cid
    elements = tuple(ElementRow(node.label, encode_dewey(node.dewey),
                                *node_cid(node.dewey))
                     for node in tree.iter_preorder())
    postings = tuple((word, len(packed), packed.to_blob(),
                      index.impact(word).max_depth)
                     for word, packed in index.packed_postings())
    return ShreddedDocument(name=name or tree.name or "document",
                            elements=elements, postings=postings)
