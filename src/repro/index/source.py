"""The backend-agnostic posting-source seam.

Every retrieval path of the library — the search pipelines, the engine's
batch API, the benchmark drivers — fetches keyword posting lists through the
:class:`PostingSource` protocol instead of talking to a concrete index.  The
in-memory :class:`~repro.index.inverted.InvertedIndex` is the reference
implementation; the disk-backed sources of :mod:`repro.storage` implement the
same surface, which is what lets one :class:`~repro.core.engine.SearchEngine`
run over any of them and what the backend-parity test suite
(``tests/test_backend_parity.py``) enforces: any new backend must produce
posting lists — and therefore search results — identical to the memory
backend.

The protocol has two layers:

* the four retrieval methods (``postings``, ``keyword_nodes``, ``frequency``,
  ``vocabulary``) every stage-1 caller needs, and
* two node lookups (``node_label``, ``node_cid``) that let the later
  pipeline stages (record-tree construction, degraded rendering) run
  without a resident :class:`~repro.xmltree.tree.XMLTree`.  A record tree
  needs only labels and the paper's ``(min, max)`` cIDs, which a store
  reads from one element row per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
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

if TYPE_CHECKING:  # inverted.py imports this module at run time
    from .inverted import PostingList


@runtime_checkable
class PostingSource(Protocol):
    """What every posting-list backend must provide.

    Implementations promise that posting lists are
    :class:`~repro.index.packed.PackedDeweyList` columns (``postings`` wraps
    them in a :class:`~repro.index.inverted.PostingList`), **strictly sorted
    in document (Dewey) order and duplicate-free**, that keywords are normalized
    with the same tokenizer the query side uses, and that ``frequency(w) ==
    len(postings(w))`` — the invariants the property suite
    (``tests/test_posting_properties.py``) checks across backends.
    """

    @property
    def source_id(self) -> str:
        """Stable identity of the backend (used in query-cache keys)."""
        ...

    def postings(self, keyword: str) -> PostingList:
        """The posting list of one (raw, un-normalized) keyword."""
        ...

    def keyword_nodes(self, query: Iterable[str]) -> QueryLists:
        """The ``D_i`` lists of a whole query (``getKeywordNodes``).

        Maps each *normalized* keyword, in query order, to its sorted Dewey
        list in the one posting form,
        :class:`~repro.index.packed.PackedDeweyList`; keywords with no match
        map to an empty list.  The order matters: ``getRTF`` gives list *i*
        bit *i* of the keyword masks.  The mapping is a fresh
        :class:`~repro.index.packed.QueryLists` per call, so ``getLCA`` and
        ``getRTF`` of one search share its one merge.  Backends are
        encouraged to batch this (one round-trip for the whole query) — the
        engine's ``search_many`` fast path funnels the union of a batch's
        keywords through one call.
        """
        ...

    def frequency(self, keyword: str) -> int:
        """Number of keyword nodes containing ``keyword``."""
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

    This is the lazy fallback every source without precomputed metadata
    shares, and the definition the precomputed paths must agree with.
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

    ``keyword`` is taken as normalized, as every ``Query.keywords`` entry
    is, and so is the optional ``impact(keyword)`` method that sources
    precomputing (or cheaply deriving) the metadata expose; everything else
    falls back to a posting-list scan.  ``impact`` is deliberately *not*
    part of the :class:`PostingSource` protocol — backends opt in, and the
    fallback keeps every existing source rankable.
    """
    impact = getattr(source, "impact", None)
    if impact is not None:
        return impact(keyword)
    return impact_from_postings(source.postings(keyword).deweys)
