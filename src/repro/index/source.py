"""The backend-agnostic posting-source seam.

Every retrieval path of the library — the search pipelines, the corpus
ranking, the benchmarks — fetches keyword posting lists through the
:class:`PostingSource` protocol instead of talking to a concrete index.  The
in-memory :class:`~repro.index.inverted.InvertedIndex` is the reference
implementation; the disk-backed sources of :mod:`repro.storage` implement the
same surface, which is what lets one :class:`~repro.core.engine.SearchEngine`
run over any of them and what the backend-parity test suite
(``tests/test_backend_parity.py``) enforces: any new backend must produce
posting lists — and therefore search results — identical to the memory
backend.

The protocol has two layers:

* the retrieval methods (``keyword_nodes``, ``impact``, ``vocabulary``):
  one query's ``D_i`` lists, one keyword's ranking metadata and the
  indexed words.  Keywords arrive normalized: :meth:`Query.parse
  <repro.core.query.Query.parse>` is the one place a query is tokenized.
* two node lookups (``node_label``, ``node_cid``) that let the later
  pipeline stages (record-tree construction, degraded rendering) run
  without a resident :class:`~repro.xmltree.tree.XMLTree`.  A record tree
  needs only labels and the paper's ``(min, max)`` cIDs, which a store
  reads from one element row per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    runtime_checkable,
    Protocol,
)

from ..xmltree import DeweyCode
from .packed import QueryLists, as_packed


@runtime_checkable
class PostingSource(Protocol):
    """What every posting-list backend must provide.

    Implementations promise that posting lists are
    :class:`~repro.index.packed.PackedDeweyList` columns, **strictly sorted
    in document (Dewey) order and duplicate-free**, that words are indexed
    with the tokenizer the query side normalizes with, and that
    ``impact(w).count == len(keyword_nodes([w])[w])`` — the invariants the
    property suite (``tests/test_posting_properties.py``) checks across
    backends.
    """

    @property
    def source_id(self) -> str:
        """Stable identity of the backend (used in query-cache keys)."""
        ...

    def keyword_nodes(self, keywords: Iterable[str]) -> QueryLists:
        """The ``D_i`` lists of a whole query (``getKeywordNodes``).

        ``keywords`` are taken as given: normalized and duplicate-free, as
        every :attr:`Query.keywords <repro.core.query.Query.keywords>` is.
        Maps each keyword, in query order, to its sorted Dewey list in the
        one posting form, :class:`~repro.index.packed.PackedDeweyList`;
        keywords with no match map to an empty list.  The order matters:
        ``getRTF`` gives list *i* bit *i* of the keyword masks.  The mapping
        is a fresh :class:`~repro.index.packed.QueryLists` per call, so
        ``getLCA`` and ``getRTF`` of one search share its one merge.  A
        store-backed source fetches a query's lists in one round-trip.
        """
        ...

    def impact(self, keyword: str) -> KeywordImpact:
        """The ranking metadata of one normalized keyword: its posting
        count and deepest node level."""
        ...

    def vocabulary(self) -> List[str]:
        """Every indexed word, sorted."""
        ...

    def node_label(self, dewey: DeweyCode) -> Optional[str]:
        """The label of one document node, or ``None`` when absent."""
        ...

    def node_cid(self, dewey: DeweyCode) -> Tuple[str, str]:
        """The cID of one document node: the ``(min, max)`` of its content
        word set ``C_v`` in lexical order, ``("", "")`` when absent."""
        ...


@dataclass(frozen=True)
class KeywordImpact:
    """Per-(document, normalized keyword) ranking metadata.

    ``count`` is the keyword's posting-list length (its document frequency
    within one document) and ``max_depth`` the deepest Dewey **level** (root
    = 0) of any node containing the keyword.  Both are exact integers derived
    from the posting list alone, so every backend — posting rows written at
    shred time, in-memory indexes — agrees bit for bit,
    which is what lets the corpus ranking derive score bounds from them
    without consulting the posting lists themselves.

    An absent keyword has ``count == 0`` (its ``max_depth`` is meaningless
    and pinned to 0).
    """

    count: int
    max_depth: int

    @property
    def empty(self) -> bool:
        """True when the keyword does not occur at all."""
        return self.count == 0


#: The impact of a keyword with no postings.
EMPTY_IMPACT = KeywordImpact(count=0, max_depth=0)


def impact_from_postings(deweys: Sequence[DeweyCode]) -> KeywordImpact:
    """Compute a :class:`KeywordImpact` directly from a posting list.

    The memory backend derives every impact this way, and it is the
    definition the shred-time ``posting`` columns must agree with.
    Non-packed input (a sequence of Dewey codes) is packed once first; the
    depths then come straight off the offset table — no DeweyCode objects
    are materialized (depth = component count = level + 1).
    """
    packed = as_packed(deweys)
    count = len(packed)
    if not count:
        return EMPTY_IMPACT
    deepest = max(packed.depth(index) for index in range(count)) - 1
    return KeywordImpact(count=count, max_depth=deepest)


def keyword_impact(source: PostingSource, keyword: str) -> KeywordImpact:
    """The impact metadata of one normalized keyword on any posting source.

    The corpus ranking reads every impact through this one function.
    """
    return source.impact(keyword)
