"""Shredding XML trees into the relational schema of Section 5.2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ..index.packed import pack_component_tuples
from ..text import DEFAULT_TOKENIZER, content_id
from ..xmltree import XMLNode, XMLTree
from .schema import ElementRow, LabelRow, ValueRow, decode_dewey, encode_dewey


@dataclass(frozen=True)
class ShreddedDocument:
    """All rows produced by shredding one document."""

    name: str
    labels: Tuple[LabelRow, ...]
    elements: Tuple[ElementRow, ...]
    values: Tuple[ValueRow, ...]

    @property
    def node_count(self) -> int:
        return len(self.elements)

    @property
    def value_count(self) -> int:
        return len(self.values)


def shred_tree(tree: XMLTree, name: str = "") -> ShreddedDocument:
    """Shred a tree into ``label`` / ``element`` / ``value`` rows.

    Words are normalized by :data:`~repro.text.DEFAULT_TOKENIZER`, as the
    memory index and :meth:`Query.parse` normalize them.

    The ``value`` table receives one row per (node, word) pair, split by
    origin: the node's label words carry ``attribute=""``, attribute words
    carry the attribute name and text words carry ``attribute="#text"`` — this
    mirrors the paper's value table with its ``(node's label, Dewey,
    attribute, keyword)`` columns.
    """
    document = name or tree.name or "document"
    label_ids: Dict[str, int] = {}
    elements: List[ElementRow] = []
    values: List[ValueRow] = []

    for node in tree.iter_preorder():
        label_id = label_ids.setdefault(node.label, len(label_ids))
        dewey_text = encode_dewey(node.dewey.components)
        sequence = _label_number_sequence(node, label_ids)
        feature = content_id(DEFAULT_TOKENIZER.word_set(node.raw_strings()))
        elements.append(ElementRow(
            document=document,
            label=node.label,
            dewey=dewey_text,
            level=node.dewey.level,
            label_number_sequence=sequence,
            content_feature_min=feature[0],
            content_feature_max=feature[1],
        ))
        values.extend(_value_rows(document, node, dewey_text))

    labels = tuple(LabelRow(label=label, label_id=label_id)
                   for label, label_id in sorted(label_ids.items(),
                                                 key=lambda item: item[1]))
    return ShreddedDocument(name=document, labels=labels,
                            elements=tuple(elements), values=tuple(values))


def packed_posting_rows(shredded: ShreddedDocument
                        ) -> List[Tuple[str, int, bytes, int]]:
    """Derive the ``posting`` table rows of one shredded document.

    Groups the value rows by keyword, deduplicates and document-order sorts
    the Dewey codes (the padded string encoding sorts like document order) and
    serializes each list as one prefix-truncated packed blob — the
    ingestion-time counterpart of the per-row decode the packed read path
    skips.  Returns ``(keyword, cardinality, blob, max_depth)`` tuples, where
    ``max_depth`` is the deepest Dewey level (root = 0) of the keyword's
    nodes — the shred-time impact metadata the corpus ranking derives its
    score bounds from (``cardinality`` doubles as the posting count).
    """
    by_keyword: Dict[str, Set[str]] = {}
    for row in shredded.values:
        by_keyword.setdefault(row.keyword, set()).add(row.dewey)
    rows: List[Tuple[str, int, bytes, int]] = []
    for keyword in sorted(by_keyword):
        deweys = sorted(by_keyword[keyword])
        components = [decode_dewey(text) for text in deweys]
        packed = pack_component_tuples(components, presorted=True)
        max_depth = max(len(parts) for parts in components) - 1
        rows.append((keyword, len(packed), packed.to_blob(), max_depth))
    return rows


def _label_number_sequence(node: XMLNode, label_ids: Dict[str, int]) -> str:
    """Label numbers of the ancestors from the root down to the node itself."""
    chain = list(node.iter_ancestors(include_self=True))
    chain.reverse()
    numbers = []
    for member in chain:
        numbers.append(str(label_ids.setdefault(member.label, len(label_ids))))
    return ".".join(numbers)


def _value_rows(document: str, node: XMLNode,
                dewey_text: str) -> Iterator[ValueRow]:
    for word in DEFAULT_TOKENIZER.tokenize(node.label):
        yield ValueRow(document=document, label=node.label, dewey=dewey_text,
                       attribute="", keyword=word)
    if node.text:
        for word in set(DEFAULT_TOKENIZER.tokenize(node.text)):
            yield ValueRow(document=document, label=node.label, dewey=dewey_text,
                           attribute="#text", keyword=word)
    for attribute, value in node.attributes.items():
        attribute_words = set(DEFAULT_TOKENIZER.tokenize(attribute))
        attribute_words |= set(DEFAULT_TOKENIZER.tokenize(value or ""))
        for word in attribute_words:
            yield ValueRow(document=document, label=node.label, dewey=dewey_text,
                           attribute=attribute, keyword=word)
