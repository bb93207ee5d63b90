"""Explanations of pruning decisions.

The paper's discussion revolves around *why* a node is kept or discarded:
MaxMatch discards a node when a sibling's keyword set strictly covers its own
(sometimes wrongly — the false-positive problem) and keeps same-label siblings
with identical matched content (the redundancy problem); ValidRTF keeps
uniquely-labelled children and deduplicates same-content siblings.

This module makes those decisions inspectable: for one RTF it produces a
per-node decision record (kept / discarded, under which rule, because of which
sibling), and for a ValidRTF-vs-MaxMatch pair it classifies every differing
node as a *false-positive fix* (kept by ValidRTF, dropped by MaxMatch) or a
*redundancy fix* (dropped by ValidRTF, kept by MaxMatch).  The CLI ``explain``
command and the examples build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..xmltree import DeweyCode
from .contributor import covering_siblings
from .fragments import SearchResult
from .node_record import RecordTree
from .query import Query
from .valid_contributor import discarding_siblings


class Decision(str, Enum):
    """Why a node was kept in, or removed from, a meaningful RTF."""

    ROOT = "root"
    UNIQUE_LABEL = "kept: unique label among siblings (rule 1)"
    NOT_COVERED = "kept: keyword set not covered by a same-label sibling (rule 2a)"
    DISTINCT_CONTENT = "kept: same keyword set but distinct content (rule 2b)"
    CONTRIBUTOR = "kept: no sibling strictly covers its keyword set (contributor)"
    COVERED = "discarded: keyword set strictly covered by a sibling"
    DUPLICATE_CONTENT = "discarded: duplicates an earlier sibling's matched content"
    ANCESTOR_DISCARDED = "discarded: an ancestor was discarded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DifferenceKind(str, Enum):
    """How ValidRTF's meaningful RTF differs from MaxMatch's on one node."""

    FALSE_POSITIVE_FIX = "false-positive fix (ValidRTF keeps, MaxMatch drops)"
    REDUNDANCY_FIX = "redundancy fix (ValidRTF drops, MaxMatch keeps)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class NodeDecision:
    """The pruning decision for one fragment node."""

    dewey: DeweyCode
    label: str
    kept: bool
    decision: Decision
    keywords: Tuple[str, ...] = ()
    because_of: Optional[DeweyCode] = None


@dataclass(frozen=True)
class FragmentExplanation:
    """All decisions of one fragment under one filtering mechanism."""

    root: DeweyCode
    algorithm: str
    decisions: Tuple[NodeDecision, ...]

    def kept(self) -> List[NodeDecision]:
        return [decision for decision in self.decisions if decision.kept]

    def discarded(self) -> List[NodeDecision]:
        return [decision for decision in self.decisions if not decision.kept]

    def decision_for(self, dewey: DeweyCode) -> NodeDecision:
        for decision in self.decisions:
            if decision.dewey == dewey:
                return decision
        raise KeyError(f"no decision recorded for {dewey}")

    def summary(self) -> Dict[str, int]:
        """Histogram of decision kinds."""
        histogram: Dict[str, int] = {}
        for decision in self.decisions:
            key = decision.decision.name
            histogram[key] = histogram.get(key, 0) + 1
        return histogram


@dataclass(frozen=True)
class NodeDifference:
    """One node on which ValidRTF and MaxMatch disagree."""

    dewey: DeweyCode
    label: str
    kind: DifferenceKind
    keywords: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ComparisonExplanation:
    """Classified differences between the two algorithms on one query."""

    query: str
    differences: Tuple[NodeDifference, ...]

    def false_positive_fixes(self) -> List[NodeDifference]:
        return [difference for difference in self.differences
                if difference.kind is DifferenceKind.FALSE_POSITIVE_FIX]

    def redundancy_fixes(self) -> List[NodeDifference]:
        return [difference for difference in self.differences
                if difference.kind is DifferenceKind.REDUNDANCY_FIX]

    def summary(self) -> Dict[str, int]:
        return {
            "false_positive_fixes": len(self.false_positive_fixes()),
            "redundancy_fixes": len(self.redundancy_fixes()),
        }


# ---------------------------------------------------------------------- #
# Per-fragment explanations
# ---------------------------------------------------------------------- #
def explain_valid_contributor(records: RecordTree,
                              query: Query) -> FragmentExplanation:
    """Per-node decisions of the valid-contributor filter (Definition 4)."""
    masks, features = records.masks, records.features

    def decide(parent: int) -> Iterator[Tuple[int, Decision, int]]:
        for group in records.label_groups(parent):
            blamed = discarding_siblings(group, masks, features)
            for child, sibling in zip(group, blamed):
                if len(group) == 1:
                    yield child, Decision.UNIQUE_LABEL, -1
                elif sibling >= 0:
                    yield child, (Decision.COVERED
                                  if masks[sibling] != masks[child]
                                  else Decision.DUPLICATE_CONTENT), sibling
                elif any(masks[other] == masks[child]
                         for other in group if other != child):
                    yield child, Decision.DISTINCT_CONTENT, -1
                else:
                    yield child, Decision.NOT_COVERED, -1

    return _explain(records, query, "validrtf", decide)


def explain_contributor(records: RecordTree,
                        query: Query) -> FragmentExplanation:
    """Per-node decisions of MaxMatch's contributor filter."""
    def decide(parent: int) -> Iterator[Tuple[int, Decision, int]]:
        children = records.children[parent]
        for child, coverer in zip(children,
                                  covering_siblings(children, records.masks)):
            yield child, (Decision.CONTRIBUTOR if coverer < 0
                          else Decision.COVERED), coverer

    return _explain(records, query, "maxmatch", decide)


def _explain(records: RecordTree, query: Query, algorithm: str,
             decide: Callable[[int], Iterator[Tuple[int, Decision, int]]]
             ) -> FragmentExplanation:
    """Every node's decision, top-down in document order (parents precede
    their children).  ``decide`` rules on a kept node's children as
    ``(child, decision, blamed sibling)`` triples, the sibling ``-1`` for a
    kept child; every child of a discarded node is discarded with it."""
    nodes, labels, masks = records.fragment.nodes, records.labels, records.masks

    def decision(position: int, verdict: Decision,
                 blamed: int = -1) -> NodeDecision:
        return NodeDecision(
            dewey=nodes[position], label=labels[position],
            kept=blamed < 0, decision=verdict,
            keywords=tuple(sorted(query.keywords_of(masks[position]))),
            because_of=nodes[blamed] if blamed >= 0 else None)

    # Every entry after the root's is overwritten when its parent is reached.
    decisions: List[NodeDecision] = [decision(0, Decision.ROOT)] * len(nodes)
    for parent in range(len(nodes)):
        if decisions[parent].kept:
            for child, verdict, blamed in decide(parent):
                decisions[child] = decision(child, verdict, blamed)
        else:
            for child in records.children[parent]:
                decisions[child] = decision(child, Decision.ANCESTOR_DISCARDED,
                                            parent)
    return FragmentExplanation(root=records.fragment.root,
                               algorithm=algorithm, decisions=tuple(decisions))


# ---------------------------------------------------------------------- #
# ValidRTF vs MaxMatch differences
# ---------------------------------------------------------------------- #
def classify_differences(query: Query, validrtf_result: SearchResult,
                         maxmatch_result: SearchResult,
                         labels: Dict[DeweyCode, str]) -> ComparisonExplanation:
    """Classify every node the two algorithms disagree on.

    ``labels`` maps Dewey codes to element labels (callers usually pass
    ``{node.dewey: node.label for node in tree.iter_preorder()}`` or derive it
    lazily via :func:`explain_comparison`).
    """
    differences: List[NodeDifference] = []
    maxmatch_by_root = maxmatch_result.by_root()
    for fragment in validrtf_result:
        other = maxmatch_by_root.get(fragment.root)
        if other is None:
            continue
        v_nodes = fragment.kept_set()
        m_nodes = other.kept_set()
        for dewey in sorted(v_nodes - m_nodes):
            differences.append(NodeDifference(
                dewey=dewey, label=labels.get(dewey, ""),
                kind=DifferenceKind.FALSE_POSITIVE_FIX))
        for dewey in sorted(m_nodes - v_nodes):
            differences.append(NodeDifference(
                dewey=dewey, label=labels.get(dewey, ""),
                kind=DifferenceKind.REDUNDANCY_FIX))
    return ComparisonExplanation(query=str(query), differences=tuple(differences))


def render_explanation(explanation: FragmentExplanation,
                       show_kept: bool = True) -> str:
    """Human-readable rendering of one fragment's decisions."""
    lines = [f"fragment rooted at {explanation.root} ({explanation.algorithm}):"]
    for decision in explanation.decisions:
        if decision.kept and not show_kept:
            continue
        keywords = f" keywords={sorted(decision.keywords)}" if decision.keywords else ""
        blame = f" (because of {decision.because_of})" if decision.because_of else ""
        lines.append(f"  {decision.dewey} <{decision.label}> — "
                     f"{decision.decision.value}{keywords}{blame}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Score explanations (Lucene-``explain``-style component breakdown)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScoreComponent:
    """One additive term of a ranked fragment's score.

    ``contribution`` is exactly ``weight * value`` — the float the scoring
    expression added for this component.
    """

    name: str
    value: float
    weight: float
    contribution: float


@dataclass(frozen=True)
class ScoreExplanation:
    """A served score reconstructed from its components.

    The components appear in scoring order (specificity, compactness,
    coverage); summing their contributions left to right reproduces
    ``score`` bit for bit, because :func:`explain_score` computes them with
    the same expression :func:`~repro.core.ranking.combine_score` uses.
    """

    score: float
    components: Tuple[ScoreComponent, ...]


def explain_score(ranked: "RankedFragment",
                  weights: Optional["RankingWeights"] = None
                  ) -> ScoreExplanation:
    """Break one ranked fragment's score into verifiable components."""
    from .ranking import RankingWeights
    normalized = (weights or RankingWeights()).normalized()
    components = tuple(
        ScoreComponent(name=name, value=value, weight=weight,
                       contribution=weight * value)
        for name, value, weight in (
            ("specificity", ranked.specificity, normalized.specificity),
            ("compactness", ranked.compactness, normalized.compactness),
            ("coverage", ranked.coverage, normalized.coverage),
        ))
    return ScoreExplanation(score=ranked.score, components=components)


def render_score_explanation(explanation: ScoreExplanation,
                             indent: str = "") -> str:
    """Human-readable rendering of one score breakdown."""
    lines = [f"{indent}score = {explanation.score:.6f}"]
    for component in explanation.components:
        lines.append(f"{indent}  {component.contribution:.6f} = "
                     f"{component.weight:.4f} (weight) x "
                     f"{component.value:.6f} ({component.name})")
    return "\n".join(lines)
