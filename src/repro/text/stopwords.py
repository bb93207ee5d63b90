"""English stop-word list.

The paper filters stop words with Lucene's English stop-word filter plus the
list published at syger.com (reference [22]).  We bundle the classic Lucene
``StandardAnalyzer`` English list extended with a few common function words so
no network access is required.
"""

from __future__ import annotations

from typing import FrozenSet

# The Lucene StandardAnalyzer English stop set ...
_LUCENE_ENGLISH = (
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in",
    "into", "is", "it", "no", "not", "of", "on", "or", "such", "that", "the",
    "their", "then", "there", "these", "they", "this", "to", "was", "will",
    "with",
)

# ... extended with frequent English function words from public stop lists.
_EXTENDED = (
    "about", "above", "after", "again", "all", "also", "am", "any", "because",
    "been", "before", "being", "below", "between", "both", "can", "cannot",
    "could", "did", "do", "does", "doing", "down", "during", "each", "few",
    "from", "further", "had", "has", "have", "having", "he", "her", "here",
    "hers", "him", "his", "how", "i", "its", "itself", "me", "more", "most",
    "my", "nor", "off", "once", "only", "other", "our", "ours", "out", "over",
    "own", "same", "she", "should", "so", "some", "than", "them", "through",
    "too", "under", "until", "up", "very", "we", "were", "what", "when",
    "where", "which", "while", "who", "whom", "why", "would", "you", "your",
)

DEFAULT_STOPWORDS: FrozenSet[str] = frozenset(_LUCENE_ENGLISH) | frozenset(_EXTENDED)
