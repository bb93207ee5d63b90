"""Ranking of meaningful RTFs — the paper's stated future-work extension.

Section 7 notes that "the ranking of the retrieved meaningful RTFs is still
needed" and leaves it as future work.  This module provides a simple,
explainable ranking so downstream users can order results:

* **specificity** — deeper fragment roots rank higher (a tighter context is
  usually more meaningful than the document root);
* **compactness** — smaller fragments rank higher;
* **coverage** — fragments whose kept keyword nodes match more distinct query
  keywords directly (rather than through shared nodes) rank higher.  It is
  read off ``getRTF``'s keyword masks, so ranking needs no document tree.

The score is a weighted sum of the three components.  Every component is an
**absolute** quantity in ``[0, 1]``:

* ``specificity = root.level / bounds.max_depth``, normalized against
  :class:`ScoreBounds` — the deepest keyword-node level over the whole
  corpus (derived from the per-keyword impact metadata, see
  :func:`repro.index.source.keyword_impact`), not against the local result;
* ``compactness = 1 / size`` — no normalization needed;
* ``coverage = popcount(OR of the kept keyword nodes' masks) / query size``.

Normalizing against shared bounds (rather than each result's own maxima, as
an earlier revision did) is what makes scores **comparable across
documents**: :func:`merge_ranked` interleaves per-document scores, which is
only meaningful when every document was scored on the same scale.  It is
also what enables threshold-style early termination — an upper bound on any
document's best score can be computed from impact metadata alone
(:func:`combine_score` with each component replaced by its upper bound),
without running the search pipeline on the document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import merge as _heap_merge
from itertools import islice
from typing import Iterable, List, Mapping, Optional, Sequence

from .fragments import PrunedFragment, SearchResult
from .query import Query


@dataclass(frozen=True)
class RankingWeights:
    """Weights of the three ranking components (normalized internally)."""

    specificity: float = 1.0
    compactness: float = 1.0
    coverage: float = 1.0

    def normalized(self) -> "RankingWeights":
        for name in ("specificity", "compactness", "coverage"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"ranking weight {name!r} must be finite and "
                    f"non-negative, got {value!r} (a negative weight would "
                    f"silently invert the component it scales, a NaN or "
                    f"infinite one makes every score NaN)")
        total = self.specificity + self.compactness + self.coverage
        if total <= 0:
            raise ValueError("ranking weights must sum to a positive value")
        return RankingWeights(self.specificity / total, self.compactness / total,
                              self.coverage / total)


@dataclass(frozen=True)
class ScoreBounds:
    """Corpus-global normalization bounds shared by every scored fragment.

    ``max_depth`` is the deepest Dewey level (root = 0, floor 1) of any
    query-keyword node across the documents being ranked together — derived
    from impact metadata, **never** from the fragments themselves, so the
    exhaustive and early-terminated ranking paths normalize identically.
    """

    max_depth: int

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(
                f"ScoreBounds.max_depth must be >= 1, got {self.max_depth}")


def bounds_from_impacts(impacts: Iterable) -> ScoreBounds:
    """Build :class:`ScoreBounds` from per-keyword impact metadata.

    ``impacts`` iterates :class:`~repro.index.source.KeywordImpact` entries
    (any mix of documents and keywords); absent keywords contribute nothing.
    """
    deepest = max((impact.max_depth for impact in impacts if impact.count),
                  default=0)
    return ScoreBounds(max_depth=max(deepest, 1))


def combine_score(normalized: RankingWeights, specificity: float,
                  compactness: float, coverage: float) -> float:
    """The weighted score, in one canonical float-operation order.

    Real scores and threshold-algorithm upper bounds must flow through this
    same expression: IEEE-754 addition and multiplication by a non-negative
    weight are monotone, so a bound computed here from component-wise upper
    bounds is guaranteed ``>=`` any score computed here from the true
    component values.
    """
    return (normalized.specificity * specificity
            + normalized.compactness * compactness
            + normalized.coverage * coverage)


@dataclass(frozen=True)
class RankedFragment:
    """One fragment together with its score and component breakdown."""

    fragment: PrunedFragment
    score: float
    specificity: float
    compactness: float
    coverage: float


def rank_fragments(query: Query,
                   fragments: Sequence[PrunedFragment],
                   weights: RankingWeights = RankingWeights(),
                   bounds: Optional[ScoreBounds] = None
                   ) -> List[RankedFragment]:
    """Rank fragments by the weighted specificity/compactness/coverage score.

    ``bounds`` carries the shared normalization scale; corpus callers derive
    it from impact metadata so scores are comparable across documents.  When
    omitted (standalone single-result use) the fragments' own deepest root
    stands in — scores are then only comparable within this one call.
    """
    if not fragments:
        return []
    normalized = weights.normalized()
    if bounds is None:
        bounds = ScoreBounds(max_depth=max(
            max(fragment.root.level for fragment in fragments), 1))

    ranked: List[RankedFragment] = []
    for fragment in fragments:
        specificity = fragment.root.level / bounds.max_depth
        compactness = 1.0 / max(fragment.size, 1)
        coverage = _coverage(query, fragment)
        score = combine_score(normalized, specificity, compactness, coverage)
        ranked.append(RankedFragment(fragment, score, specificity, compactness,
                                     coverage))
    ranked.sort(key=lambda item: (-item.score, item.fragment.root))
    return ranked


@dataclass(frozen=True)
class DocumentRankedFragment:
    """One ranked fragment tagged with the corpus document it came from."""

    doc_id: str
    ranked: RankedFragment

    @property
    def score(self) -> float:
        """The ranked fragment's score (passthrough)."""
        return self.ranked.score

    @property
    def fragment(self) -> PrunedFragment:
        """The underlying pruned fragment (passthrough)."""
        return self.ranked.fragment


def merge_ranked(per_document: Mapping[str, Sequence[RankedFragment]],
                 top_k: Optional[int] = None) -> List[DocumentRankedFragment]:
    """Corpus-level top-k merge of per-document rankings.

    Each document's list is already sorted best-first (the
    :func:`rank_fragments` order), so the corpus ranking is a k-way heap
    merge keyed on ``(-score, doc id, root)`` — deterministic across runs and
    backends, and with ``top_k`` only the first ``k`` entries are ever pulled
    off the merge.  The per-document scores must share one
    :class:`ScoreBounds` scale for this interleaving to be meaningful.
    """
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")

    def keyed(doc_id: str, ranked: Sequence[RankedFragment]):
        for entry in ranked:
            yield ((-entry.score, doc_id, entry.fragment.root),
                   DocumentRankedFragment(doc_id, entry))

    streams = [keyed(doc_id, ranked)
               for doc_id, ranked in sorted(per_document.items())]
    merged = _heap_merge(*streams, key=lambda pair: pair[0])
    if top_k is not None:
        merged = islice(merged, top_k)
    return [entry for _, entry in merged]


def rank_result(result: SearchResult,
                weights: RankingWeights = RankingWeights(),
                bounds: Optional[ScoreBounds] = None) -> List[RankedFragment]:
    """Rank the fragments of a whole :class:`SearchResult`."""
    return rank_fragments(result.query, result.fragments, weights,
                          bounds=bounds)


def _coverage(query: Query, fragment: PrunedFragment) -> float:
    """Distinct query keywords in the kept keyword nodes, over ``|Q|``: bit
    *i* of a node's mask (``Fragment.keyword_masks``) is set exactly when
    query keyword *i* is in its content."""
    raw = fragment.fragment
    masks = raw.keyword_masks
    if len(masks) != len(raw.keyword_nodes):
        raise ValueError(
            f"fragment {raw.root} carries {len(masks)} keyword masks for "
            f"{len(raw.keyword_nodes)} keyword nodes; build it with build_rtfs")
    kept = fragment.kept_set()
    matched = 0
    for dewey, mask in zip(raw.keyword_nodes, masks):
        if dewey in kept:
            matched |= mask
    return bin(matched).count("1") / query.size
