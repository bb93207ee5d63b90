"""Keyword query representation.

A query ``Q = {w1, ..., wk}`` is an ordered list of normalized keywords.  The
order matters operationally (keyword ``i`` owns bit ``i`` of every keyword
bitmask / "key number" in the node records) even though the result semantics
is order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Union

from ..text import DEFAULT_TOKENIZER
from .errors import EmptyQueryError

QueryLike = Union["Query", str, Sequence[str]]


@dataclass(frozen=True)
class Query:
    """A normalized keyword query.

    Use :meth:`Query.parse` to build one from user input; the constructor
    expects already-normalized, duplicate-free keywords.
    """

    keywords: Tuple[str, ...]

    def __post_init__(self):
        if not self.keywords:
            raise EmptyQueryError("a query needs at least one keyword")
        if len(set(self.keywords)) != len(self.keywords):
            raise EmptyQueryError(f"duplicate keywords in query {self.keywords}")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, raw: QueryLike) -> "Query":
        """Build a query from a string ("xml keyword search") or keyword list.

        Keywords are normalized by :data:`~repro.text.DEFAULT_TOKENIZER`,
        the tokenizer every index and store is built with.
        """
        if isinstance(raw, Query):
            return raw
        if isinstance(raw, str):
            keywords = DEFAULT_TOKENIZER.normalize_query(raw.split())
        else:
            keywords = DEFAULT_TOKENIZER.normalize_query(raw)
        if not keywords:
            raise EmptyQueryError(f"query {raw!r} normalizes to zero keywords")
        return cls(tuple(keywords))

    def extended(self, keyword: str) -> "Query":
        """A new query with one more keyword appended (query-monotonicity tests)."""
        normalized = DEFAULT_TOKENIZER.normalize_keyword(keyword)
        if not normalized:
            raise EmptyQueryError(f"keyword {keyword!r} normalizes to no word")
        if normalized in self.keywords:
            return self
        return Query(self.keywords + (normalized,))

    # ------------------------------------------------------------------ #
    # Bitmask helpers (the "key number" machinery of Section 4.1)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of keywords ``k``."""
        return len(self.keywords)

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit per keyword, all set."""
        return (1 << len(self.keywords)) - 1

    def mask_of(self, keywords: Iterable[str]) -> int:
        """Bitmask ("key number") of a keyword subset; unknown words ignored."""
        mask = 0
        for keyword in keywords:
            if keyword in self.keywords:
                mask |= 1 << self.keywords.index(keyword)
        return mask

    def keywords_of(self, mask: int) -> Set[str]:
        """The keyword set encoded by a bitmask."""
        return {keyword for index, keyword in enumerate(self.keywords)
                if mask & (1 << index)}

    def covers(self, mask: int) -> bool:
        """True iff the mask has every keyword bit set."""
        return mask == self.full_mask

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[str]:
        return iter(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self.keywords

    def __str__(self) -> str:
        return " ".join(self.keywords)


def subset_masks(mask: int) -> List[int]:
    """All non-empty submasks of ``mask`` (used by the ECTQ specification)."""
    submasks: List[int] = []
    sub = mask
    while sub:
        submasks.append(sub)
        sub = (sub - 1) & mask
    return submasks
