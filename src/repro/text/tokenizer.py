"""Tokenization of element names, text values and attribute strings.

Keyword matching in the paper is word based: the content ``C_v`` of a node is
a *word set*, and a node is a keyword node when its content intersects the
query.  The tokenizer therefore lower-cases, splits on non-alphanumeric
boundaries and removes stop words.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Set

from .stopwords import DEFAULT_STOPWORDS

_WORD_PATTERN = re.compile(r"[A-Za-z0-9]+")


class Tokenizer:
    """Split raw strings into the word tokens used for keyword matching.

    One fixed rule: lower-case (the paper's matching is case-insensitive),
    split on non-alphanumeric boundaries and drop
    :data:`~repro.text.stopwords.DEFAULT_STOPWORDS` (the paper filters stop
    words with Lucene).  A database file records no tokenizer setting, so
    the index and :meth:`~repro.core.query.Query.parse` agree only because
    there is no other.
    """

    def tokenize(self, text: str) -> List[str]:
        """Tokenize one string into a list of tokens (order preserved)."""
        if not text:
            return []
        return [token for token in map(str.lower, _WORD_PATTERN.findall(text))
                if token not in DEFAULT_STOPWORDS]

    def tokenize_many(self, texts: Iterable[str]) -> List[str]:
        """Tokenize several strings and concatenate the token lists, in one
        pass over the strings joined by a space (no word spans one)."""
        return self.tokenize(" ".join(texts))

    def word_set(self, texts: Iterable[str]) -> Set[str]:
        """The set of distinct tokens across several strings."""
        return set(self.tokenize_many(texts))

    def normalize_keyword(self, keyword: str) -> str:
        """Normalize a query keyword the same way document words are.

        A keyword with no letter or digit (``"&"``) normalizes to ``""``,
        which :meth:`normalize_query` drops: no indexed word could match
        it.  A word outside the indexed alphabet (``"Москва"``) is kept, so
        an AND query holding it still matches nothing.
        """
        tokens = self.tokenize(keyword)
        if not tokens:
            if not any(char.isalnum() for char in keyword):
                return ""
            # A keyword that is entirely a stop word still needs a canonical
            # form so queries like "the" do not silently vanish.
            fallback = _WORD_PATTERN.findall(keyword)
            return fallback[0].lower() if fallback else keyword.strip().lower()
        return tokens[0]

    def normalize_query(self, keywords: Iterable[str]) -> List[str]:
        """Normalize a whole keyword query, dropping duplicates in order."""
        seen: Set[str] = set()
        result: List[str] = []
        for keyword in keywords:
            normalized = self.normalize_keyword(keyword)
            if normalized and normalized not in seen:
                seen.add(normalized)
                result.append(normalized)
        return result


DEFAULT_TOKENIZER = Tokenizer()
