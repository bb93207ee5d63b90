"""Corpus statistics: keyword frequencies and document profiles.

Section 5.1 of the paper reports, for each dataset, the frequency of every
keyword used to build the query workload (e.g. ``keyword (90)`` in DBLP,
``particle (12, 33, 69)`` across the three XMark scales).  This module
regenerates that table for any document and also provides general document
profiles used in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..text import DEFAULT_TOKENIZER
from ..xmltree import XMLTree
from .inverted import InvertedIndex


@dataclass(frozen=True)
class KeywordFrequency:
    """Frequency of one keyword in one dataset."""

    keyword: str
    frequency: int


@dataclass(frozen=True)
class DocumentProfile:
    """Structural and lexical profile of one document."""

    name: str
    node_count: int
    max_depth: int
    distinct_labels: int
    vocabulary_size: int
    total_postings: int
    label_histogram: Mapping[str, int] = field(default_factory=dict)

    def as_row(self) -> Tuple:
        return (self.name, self.node_count, self.max_depth, self.distinct_labels,
                self.vocabulary_size, self.total_postings)


def _frequency(index: InvertedIndex, keyword: str) -> int:
    """The posting count of one raw workload keyword, normalized once."""
    return index.impact(DEFAULT_TOKENIZER.normalize_keyword(keyword)).count


def keyword_frequencies(index: InvertedIndex,
                        keywords: Iterable[str]) -> List[KeywordFrequency]:
    """Frequencies of the given keywords in the indexed document."""
    return [KeywordFrequency(keyword, _frequency(index, keyword))
            for keyword in keywords]


def keyword_frequency_table(indexes: Mapping[str, InvertedIndex],
                            keywords: Sequence[str]
                            ) -> List[Dict[str, object]]:
    """The Section 5.1 style table: one row per keyword, one column per dataset."""
    rows: List[Dict[str, object]] = []
    for keyword in keywords:
        row: Dict[str, object] = {"keyword": keyword}
        for dataset_name, index in indexes.items():
            row[dataset_name] = _frequency(index, keyword)
        rows.append(row)
    return rows


def document_profile(tree: XMLTree, index: InvertedIndex,
                     name: str = "") -> DocumentProfile:
    """Profile a document: size, depth, labels, vocabulary."""
    histogram = tree.label_histogram()
    return DocumentProfile(
        name=name or tree.name or "document",
        node_count=tree.size(),
        max_depth=tree.max_depth(),
        distinct_labels=len(histogram),
        vocabulary_size=index.vocabulary_size(),
        total_postings=index.total_postings(),
        label_histogram=histogram,
    )


def top_keywords(index: InvertedIndex, limit: int = 20) -> List[KeywordFrequency]:
    """The ``limit`` most frequent indexed words (useful to design workloads)."""
    pairs = [(word, index.impact(word).count) for word in index.vocabulary()]
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return [KeywordFrequency(word, freq) for word, freq in pairs[:limit]]
