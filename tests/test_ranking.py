"""Tests for the RTF ranking extension (the paper's future-work item)."""

from __future__ import annotations

import pytest

from repro.core import (
    Query,
    RankingWeights,
    ScoreBounds,
    bounds_from_impacts,
    build_fragment,
    combine_score,
    explain_score,
    rank_fragments,
    rank_result,
    unpruned,
)
from repro.corpus import CorpusSearchEngine
from repro.datasets import PAPER_QUERIES
from repro.index import EMPTY_IMPACT, KeywordImpact
from repro.xmltree import SubtreeSpec, tree_from_spec


def _deep_shallow_trees():
    """Two documents whose best fragments sit at very different depths.

    The doc ids are chosen so the *shallow* document wins any score tie
    (ties break on doc id): under the old per-document normalization both
    documents' best fragments scored a perfect 1.0 — each was the deepest
    fragment *of its own document* — and the shallow document was served
    first.  Corpus-global bounds make depth absolute, so the genuinely
    deeper fragment must win.
    """
    deep = SubtreeSpec("a")
    branch = SubtreeSpec("b")
    middle = SubtreeSpec("c")
    middle.add(SubtreeSpec("d", "apple banana"))
    branch.add(middle)
    deep.add(branch)
    deep.add(SubtreeSpec("e", "apple"))
    deep.add(SubtreeSpec("f", "banana"))
    shallow = SubtreeSpec("r")
    shallow.add(SubtreeSpec("x", "apple banana"))
    return {"z-deep": tree_from_spec(deep, name="z-deep"),
            "a-shallow": tree_from_spec(shallow, name="a-shallow")}


def _document_ranking(tree, query, weights=RankingWeights()):
    """The ranked fragments of ``tree`` alone: a one-document corpus, so
    the scores are normalized by the document's own impact bounds."""
    engine = CorpusSearchEngine.from_trees({"doc": tree})
    return [entry.ranked for entry in
            engine.rank_search(query, weights=weights).ranked]


def _three_doc_trees():
    """The deep/shallow pair plus a document missing the query keywords."""
    trees = _deep_shallow_trees()
    unrelated = SubtreeSpec("u")
    unrelated.add(SubtreeSpec("v", "cherry"))
    unrelated.add(SubtreeSpec("w", "apple"))
    trees["m-partial"] = tree_from_spec(unrelated, name="m-partial")
    return trees


class TestRankingWeights:
    def test_normalized_sums_to_one(self):
        weights = RankingWeights(2.0, 1.0, 1.0).normalized()
        assert weights.specificity + weights.compactness + weights.coverage == \
            pytest.approx(1.0)
        assert weights.specificity == pytest.approx(0.5)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            RankingWeights(0.0, 0.0, 0.0).normalized()

    def test_negative_weight_rejected_even_when_sum_positive(self):
        # (2, 2, -1) sums to 3 > 0 and used to slip through; a negative
        # weight silently *inverts* the component it scales.
        with pytest.raises(ValueError, match="coverage.*non-negative"):
            RankingWeights(2.0, 2.0, -1.0).normalized()

    @pytest.mark.parametrize("weights", [(-1.0, 3.0, 3.0), (3.0, -0.5, 3.0),
                                         (3.0, 3.0, -2.0)])
    def test_every_position_checked_for_negativity(self, weights):
        with pytest.raises(ValueError, match="non-negative"):
            RankingWeights(*weights).normalized()

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weight_rejected_at_every_position(self, position,
                                                          value):
        # NaN passed the negativity test and an infinite weight normalized
        # to (nan, 0.0, 0.0); either way every score came out NaN.
        weights = [1.0, 1.0, 1.0]
        weights[position] = value
        name = ("specificity", "compactness", "coverage")[position]
        with pytest.raises(ValueError, match=f"{name}.*finite"):
            RankingWeights(*weights).normalized()


class TestScoreBounds:
    def test_max_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ScoreBounds(max_depth=0)

    def test_bounds_from_impacts_takes_deepest_nonempty(self):
        impacts = [KeywordImpact(count=3, max_depth=2),
                   KeywordImpact(count=1, max_depth=5),
                   EMPTY_IMPACT]
        assert bounds_from_impacts(impacts).max_depth == 5

    def test_bounds_from_no_impacts_floor_at_one(self):
        assert bounds_from_impacts([]).max_depth == 1
        assert bounds_from_impacts([EMPTY_IMPACT]).max_depth == 1

    def test_combine_score_matches_explain_sum(self):
        normalized = RankingWeights(2.0, 1.0, 1.0).normalized()
        score = combine_score(normalized, 0.75, 0.5, 1.0)
        expected = (normalized.specificity * 0.75 +
                    normalized.compactness * 0.5 +
                    normalized.coverage * 1.0)
        assert score == expected


class TestCorpusComparableScores:
    def test_deeper_document_wins_across_documents(self):
        # Regression: per-document normalization scored both documents'
        # best fragments 1.0 and the tie-break served the shallow document
        # first.  Global bounds must rank the deeper fragment on top.
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        ranked = engine.rank_search("apple banana", top_k=2).ranked
        assert ranked[0].doc_id == "z-deep"
        assert str(ranked[0].fragment.root) == "0.0.0.0"
        assert ranked[0].score > ranked[1].score

    def test_scores_independent_of_doc_filter(self):
        # Bounds are corpus-global, never filter-relative: a document's
        # fragments score identically alone and corpus-wide.
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        alone = engine.rank_search("apple banana",
                                   doc_filter=["a-shallow"]).ranked
        corpus_wide = [entry for entry
                       in engine.rank_search("apple banana").ranked
                       if entry.doc_id == "a-shallow"]
        assert [(str(e.fragment.root), e.score) for e in alone] == \
            [(str(e.fragment.root), e.score) for e in corpus_wide]

    def test_specificity_is_absolute_depth_over_corpus_max(self):
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        by_doc = {entry.doc_id: entry.ranked
                  for entry in engine.rank_search("apple banana",
                                                  top_k=2).ranked}
        # Corpus max depth is 3 (the deep leaf); the shallow fragment root
        # sits at level 1.
        assert by_doc["z-deep"].specificity == pytest.approx(1.0)
        assert by_doc["a-shallow"].specificity == pytest.approx(1.0 / 3.0)


class TestThresholdDriver:
    def test_early_terminate_requires_top_k(self):
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        with pytest.raises(ValueError, match="top_k"):
            engine.rank_search("apple banana", early_terminate=True)

    def test_top_k_zero_returns_empty_without_visiting(self):
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        outcome = engine.rank_search("apple banana", top_k=0,
                                     early_terminate=True)
        assert outcome.ranked == ()
        assert outcome.docs_visited == 0

    def test_missing_keyword_document_never_visited(self):
        engine = CorpusSearchEngine.from_trees(_three_doc_trees())
        outcome = engine.rank_search("apple banana", top_k=10,
                                     early_terminate=True)
        assert outcome.docs_selected == 3
        assert outcome.docs_visited <= 2  # m-partial lacks "banana"
        assert all(entry.doc_id != "m-partial" for entry in outcome.ranked)

    def test_top_one_stops_after_best_bounded_document(self):
        engine = CorpusSearchEngine.from_trees(_deep_shallow_trees())
        outcome = engine.rank_search("apple banana", top_k=1,
                                     early_terminate=True)
        # The deep document's bound (1.0) is visited first and its perfect
        # score strictly beats the shallow document's bound, so one visit
        # suffices.
        assert outcome.docs_visited == 1
        assert outcome.ranked[0].doc_id == "z-deep"

    @pytest.mark.parametrize("top_k", [1, 2, 3, 10])
    def test_early_equals_exhaustive(self, top_k):
        engine = CorpusSearchEngine.from_trees(_three_doc_trees())
        exhaustive = engine.rank_search("apple banana", top_k=top_k)
        early = engine.rank_search("apple banana", top_k=top_k,
                                   early_terminate=True)
        assert [(e.doc_id, str(e.fragment.root), e.score)
                for e in exhaustive.ranked] == \
            [(e.doc_id, str(e.fragment.root), e.score)
             for e in early.ranked]

    def test_rank_of_search_equals_rank_search(self):
        engine = CorpusSearchEngine.from_trees(_three_doc_trees())
        via_rank = engine.rank(engine.search("apple banana"))
        direct = engine.rank_search("apple banana").ranked
        assert [(e.doc_id, str(e.fragment.root), e.score)
                for e in via_rank] == \
            [(e.doc_id, str(e.fragment.root), e.score) for e in direct]


class TestScoreExplanation:
    def test_contributions_reproduce_score(self, publications):
        for item in _document_ranking(publications, PAPER_QUERIES["Q2"]):
            explanation = explain_score(item)
            assert sum(c.contribution for c in explanation.components) == \
                pytest.approx(explanation.score)
            assert explanation.score == item.score
            assert [c.name for c in explanation.components] == \
                ["specificity", "compactness", "coverage"]


class TestRankResult:
    def test_empty_result_ranks_empty(self):
        assert rank_fragments(Query.parse("xml"), []) == []

    def test_fragment_without_masks_is_refused(self, publications_engine):
        """Coverage reads getRTF's keyword masks; a fragment rebuilt from
        its codes alone carries none, and ranking says so."""
        result = publications_engine.search(PAPER_QUERIES["Q2"], "validrtf")
        raw = result.fragments[0].fragment
        bare = unpruned(build_fragment(None, raw.root, raw.keyword_nodes))
        with pytest.raises(ValueError, match="keyword masks"):
            rank_fragments(result.query, [bare])

    def test_deeper_root_ranks_first_for_q2(self, publications_engine):
        result = publications_engine.search(PAPER_QUERIES["Q2"], "validrtf")
        ranked = rank_result(result)
        assert len(ranked) == 2
        # The self-contained ref fragment is deeper and more compact than the
        # article fragment, so it comes first.
        assert str(ranked[0].fragment.root) == "0.2.0.3.0"
        assert ranked[0].score >= ranked[1].score

    def test_scores_monotone_in_order(self, publications):
        ranked = _document_ranking(publications, PAPER_QUERIES["Q3"])
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_components_in_unit_range(self, publications):
        for item in _document_ranking(publications, PAPER_QUERIES["Q2"]):
            assert 0.0 <= item.specificity <= 1.0
            assert 0.0 <= item.coverage <= 1.0
            assert item.compactness <= 1.0

    def test_coverage_counts_all_keywords(self, publications):
        ranked = _document_ranking(publications, PAPER_QUERIES["Q2"])
        assert all(item.coverage == pytest.approx(1.0) for item in ranked)

    def test_weights_change_order(self, team):
        default_ranked = _document_ranking(team, PAPER_QUERIES["Q4"])
        compact_only = _document_ranking(team, PAPER_QUERIES["Q4"],
                                         RankingWeights(0.0001, 1.0, 0.0001))
        assert len(default_ranked) == len(compact_only) == 1
