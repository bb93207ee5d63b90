"""Inverted index substrate: keyword posting lists and corpus statistics."""

from .inverted import InvertedIndex
from .packed import (
    EMPTY_PACKED,
    PackedDeweyList,
    QueryLists,
    as_packed,
    match_list,
    pack_component_tuples,
    pack_deweys,
)
from .source import (
    EMPTY_IMPACT,
    KeywordImpact,
    PostingSource,
    impact_from_postings,
    keyword_impact,
)
from .statistics import (
    DocumentProfile,
    KeywordFrequency,
    document_profile,
    keyword_frequency_table,
    keyword_frequencies,
    top_keywords,
)

__all__ = [
    "EMPTY_IMPACT",
    "EMPTY_PACKED",
    "InvertedIndex",
    "KeywordImpact",
    "impact_from_postings",
    "keyword_impact",
    "PackedDeweyList",
    "PostingSource",
    "QueryLists",
    "as_packed",
    "match_list",
    "pack_component_tuples",
    "pack_deweys",
    "KeywordFrequency",
    "DocumentProfile",
    "keyword_frequencies",
    "keyword_frequency_table",
    "document_profile",
    "top_keywords",
]
