"""Tests for the Query value object and its bitmask helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import EmptyQueryError, Query, subset_masks


class TestParsing:
    def test_parse_string(self):
        query = Query.parse("XML Keyword Search")
        assert query.keywords == ("xml", "keyword", "search")
        assert str(query) == "xml keyword search"

    def test_parse_list(self):
        assert Query.parse(["Liu", "keyword"]).keywords == ("liu", "keyword")

    def test_parse_query_passthrough(self):
        query = Query.parse("xml keyword")
        assert Query.parse(query) is query

    def test_duplicates_removed(self):
        assert Query.parse("xml XML xml keyword").keywords == ("xml", "keyword")

    def test_stop_words_do_not_vanish_entirely(self):
        # A query that is nothing but stop words still keeps a keyword form.
        query = Query.parse("the of")
        assert len(query) >= 1

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyQueryError):
            Query.parse("   ")
        with pytest.raises(EmptyQueryError):
            Query(())
        with pytest.raises(EmptyQueryError):
            Query(("xml", "xml"))

    @pytest.mark.parametrize("raw, keywords", [
        ("xml & keyword search", ("xml", "keyword", "search")),
        ("xml - keyword", ("xml", "keyword")),
        (["xml", "&&", "keyword"], ("xml", "keyword")),
        # A word outside the indexed alphabet is kept, and matches nothing.
        ("xml \u041c\u043e\u0441\u043a\u0432\u0430",
         ("xml", "\u043c\u043e\u0441\u043a\u0432\u0430")),
    ])
    def test_wordless_keywords_dropped(self, raw, keywords):
        assert Query.parse(raw).keywords == keywords

    def test_wordless_query_rejected(self):
        with pytest.raises(EmptyQueryError):
            Query.parse("& -")


class TestBitmasks:
    def test_full_mask_and_size(self):
        query = Query.parse("a1 b2 c3")
        assert query.size == 3
        assert query.full_mask == 0b111

    def test_mask_of(self):
        query = Query.parse("xml keyword search")
        assert query.mask_of(["keyword", "search"]) == 0b110
        assert query.mask_of(["missing"]) == 0

    def test_keywords_of_and_covers(self):
        query = Query.parse("xml keyword search")
        assert query.keywords_of(0b101) == {"xml", "search"}
        assert query.covers(0b111)
        assert not query.covers(0b011)

    def test_contains_and_iter(self):
        query = Query.parse("xml keyword")
        assert "xml" in query and "missing" not in query
        assert list(query) == ["xml", "keyword"]


class TestExtension:
    def test_extended_adds_keyword(self):
        query = Query.parse("xml keyword")
        extended = query.extended("Search")
        assert extended.keywords == ("xml", "keyword", "search")
        # The original is unchanged (frozen dataclass).
        assert query.size == 2

    def test_extended_rejects_wordless_keyword(self):
        with pytest.raises(EmptyQueryError):
            Query.parse("xml keyword").extended("&")

    def test_extended_ignores_existing(self):
        query = Query.parse("xml keyword")
        assert query.extended("XML") is query


class TestSubsetMasks:
    def test_enumerates_non_empty_submasks(self):
        assert sorted(subset_masks(0b101)) == [0b001, 0b100, 0b101]
        assert subset_masks(0) == []

    @given(st.integers(min_value=1, max_value=255))
    def test_count_matches_powerset(self, mask):
        submasks = subset_masks(mask)
        bits = bin(mask).count("1")
        assert len(submasks) == 2 ** bits - 1
        assert all(sub & mask == sub for sub in submasks)
        assert len(set(submasks)) == len(submasks)
