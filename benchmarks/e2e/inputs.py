"""Workload inputs, all derived from the run's ``--seed``.

The seed drives the arrangement of the generated documents, the query order
of every pass and the update schedule; the program only ever sees the
generated inputs.  Queries are the paper's fixed ``dblp_workload()`` /
``xmark_workload()``.

The documents' *content* comes from the generators at the fixed
``CONTENT_SEED``; ``--seed`` shuffles the order of siblings at every level
(and, for a partitioned corpus, which block of records becomes which
document).  Every seed therefore gives different bytes, different Dewey ids
and different list orders, but the same amount of work per query.  Drawing
the content itself from the seed would not: whether a query's keywords
happen to meet inside one record decides whether its answer is one record
or the whole document, and disk-cold's throughput ranged from 21 to 42
queries/s over ten seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import DBLPConfig, generate_dblp
from repro.xmltree import TreeBuilder, XMLNode, XMLTree, to_xml_string

#: Seed of the generators that make the documents' content.
CONTENT_SEED = 2009

# Independent random streams derived from the seed, so that repeating a
# set-up (or skipping a phase) never shifts another input.
STREAM_ORDER = 1
STREAM_WRITES = 2
STREAM_LAYOUT = 3


def stream(seed: int, purpose: int) -> random.Random:
    return random.Random(seed * 1000 + purpose)


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``full`` is what the benchmark measures; ``tiny`` only
    exercises every code path for the self-tests."""

    paper_publications: int
    paper_keyword_scale: float
    xmark_base_items: int
    disk_publications: int
    disk_keyword_scale: float
    rank_documents: int
    rank_publications: int
    served_documents: int
    served_publications: int
    spare_publications: int


SIZES: Dict[str, Sizes] = {
    # paper-mem and disk-cold are sized so that every request takes at most
    # about 20 ms and each gets about 45 runs or more in a 20-second phase.  At
    # five times these sizes (18k DBLP + 9k XMark nodes; a 9.1k-node disk
    # document, whose two slowest queries took 1.3 s each) requests took up
    # to 150 ms and 1.3 s, had three to seven runs each, and their
    # percentiles varied 20 to 35% between runs.  Served: 24 documents.
    # With 48, each set-up took more than twice as long and served-rw's p90
    # varied 14% between runs (interquartile range over the median, eight
    # runs) against 9%.
    "full": Sizes(400, 0.01, 40, 200, 0.005, 60, 100, 24, 50, 200),
    "tiny": Sizes(120, 0.005, 8, 80, 0.005, 6, 15, 4, 8, 16),
}


def arranged(tree: XMLTree, seed: int) -> XMLTree:
    """``tree`` with the siblings at every level in a seeded order."""
    rng = stream(seed, STREAM_LAYOUT)
    root = tree.root
    builder = TreeBuilder(root.label, root.text, dict(root.attributes or {}),
                          name=tree.name)
    for child in _shuffled(root.children, rng):
        _copy(builder, child, rng)
    return builder.build()


def partitioned_dblp(doc_count: int, per_doc: int, seed: int,
                     spare: int = 0
                     ) -> Tuple[Dict[str, List[XMLNode]], List[XMLNode]]:
    """One DBLP bibliography split into ``doc_count`` documents.

    Partitioning one bibliography (rather than generating each document
    alone) keeps rare terms rare across the corpus, so per-document keyword
    impacts differ.  The blocks of records are fixed; the seed decides which
    block becomes which doc id and the record order inside each.  Returns
    the record nodes per doc id plus ``spare`` further records that updates
    swap in.
    """
    whole = generate_dblp(DBLPConfig(publications=doc_count * per_doc + spare,
                                     seed=CONTENT_SEED))
    records = list(whole.root.children)
    rng = stream(seed, STREAM_LAYOUT)
    blocks = _shuffled([records[index * per_doc:(index + 1) * per_doc]
                        for index in range(doc_count)], rng)
    documents = {doc_id(index): _shuffled(block, rng)
                 for index, block in enumerate(blocks)}
    return documents, records[doc_count * per_doc:]


def doc_id(index: int) -> str:
    return f"dblp-{index:02d}"


def build_document(name: str, records: Sequence[XMLNode]) -> XMLTree:
    """A ``dblp`` document holding copies of ``records``."""
    builder = TreeBuilder("dblp", name=name)
    for record in records:
        _copy(builder, record)
    return builder.build()


def document_xml(name: str, records: Sequence[XMLNode]) -> str:
    return to_xml_string(build_document(name, records))


def _shuffled(items: Sequence, rng: random.Random) -> List:
    order = list(items)
    rng.shuffle(order)
    return order


def _copy(builder: TreeBuilder, node: XMLNode,
          rng: Optional[random.Random] = None) -> None:
    """Copy ``node``'s subtree; with ``rng``, children in a shuffled order."""
    builder.element(node.label, text=node.text,
                    attributes=dict(node.attributes or {}))
    children = node.children if rng is None else _shuffled(node.children, rng)
    for child in children:
        _copy(builder, child, rng)
    builder.up()


def update_schedule(documents: Dict[str, List[XMLNode]],
                    spares: Sequence[XMLNode], count: int,
                    seed: int) -> List[Tuple[str, str]]:
    """``count`` seeded ``(doc id, new XML)`` updates.

    Each update replaces one record of one document with a spare record;
    updates compound, so every XML is a complete new version of its
    document.
    """
    rng = stream(seed, STREAM_WRITES)
    current = {name: list(records) for name, records in documents.items()}
    names = sorted(current)
    updates = []
    for index in range(count):
        name = rng.choice(names)
        records = current[name]
        records[rng.randrange(len(records))] = spares[index % len(spares)]
        updates.append((name, document_xml(name, records)))
    return updates
