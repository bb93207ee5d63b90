"""Tests for tokenization, stop words and node-content extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.text import ContentAnalyzer, DEFAULT_STOPWORDS, Tokenizer
from repro.xmltree import parse_string


class TestStopwords:
    def test_common_words_are_stopwords(self):
        for word in ("the", "and", "of", "is", "with"):
            assert word in DEFAULT_STOPWORDS
            assert Tokenizer().tokenize(word.upper()) == []

    def test_content_words_are_not(self):
        for word in ("xml", "keyword", "skyline", "database"):
            assert word not in DEFAULT_STOPWORDS


class TestTokenizer:
    def test_lowercase_and_split(self):
        tokenizer = Tokenizer()
        assert tokenizer.tokenize("XML Keyword-Search!") == \
            ["xml", "keyword", "search"]

    def test_stopwords_removed_by_default(self):
        tokenizer = Tokenizer()
        assert tokenizer.tokenize("the keyword of the search") == \
            ["keyword", "search"]

    def test_numbers_are_tokens(self):
        tokenizer = Tokenizer()
        assert "2008" in tokenizer.tokenize("VLDB 2008")

    def test_empty_input(self):
        tokenizer = Tokenizer()
        assert tokenizer.tokenize("") == []
        assert tokenizer.tokenize("   ...   ") == []

    def test_word_set_and_tokenize_many(self):
        tokenizer = Tokenizer()
        words = tokenizer.word_set(["xml keyword", "keyword search"])
        assert words == {"xml", "keyword", "search"}
        tokens = tokenizer.tokenize_many(["xml keyword", "keyword search"])
        assert tokens == ["xml", "keyword", "keyword", "search"]
        # Words at the ends of two strings stay two words.
        assert tokenizer.tokenize_many(["xml", "keyword"]) == ["xml", "keyword"]

    def test_normalize_keyword(self):
        tokenizer = Tokenizer()
        assert tokenizer.normalize_keyword("  XML ") == "xml"
        assert tokenizer.normalize_keyword("Keyword-Search") == "keyword"
        # A pure stop word still normalizes to itself rather than vanishing.
        assert tokenizer.normalize_keyword("The") == "the"

    def test_normalize_query_deduplicates(self):
        tokenizer = Tokenizer()
        assert tokenizer.normalize_query(["XML", "xml", "Keyword"]) == \
            ["xml", "keyword"]

    @given(st.text(max_size=80))
    def test_tokens_are_lowercase_alnum(self, text):
        tokenizer = Tokenizer()
        for token in tokenizer.tokenize(text):
            assert token == token.lower()
            assert token.isalnum()
            assert token not in DEFAULT_STOPWORDS


DOCUMENT = """
<article key="a1">
  <title>Dynamic Skyline Query</title>
  <abstract>skyline evaluation with user preferences</abstract>
  <authors><author><name>Ada Fu</name></author></authors>
</article>
"""


class TestContentAnalyzer:
    @pytest.fixture
    def analyzer(self):
        tree = parse_string(DOCUMENT)
        return ContentAnalyzer(tree), tree

    def test_node_content_includes_label_text_attributes(self, analyzer):
        content_analyzer, tree = analyzer
        root_content = content_analyzer.node_content(tree.root)
        assert {"article", "key", "a1"} <= root_content
        title_content = content_analyzer.node_content(tree.node("0.0"))
        assert title_content == {"title", "dynamic", "skyline", "query"}

    def test_matched_keywords(self, analyzer):
        content_analyzer, tree = analyzer
        title = tree.node("0.0")
        assert content_analyzer.matched_keywords(title, ["skyline", "query", "user"]) \
            == {"skyline", "query"}

    def test_keyword_nodes_in_document_order(self, analyzer):
        content_analyzer, tree = analyzer
        nodes = content_analyzer.keyword_nodes("skyline")
        assert [str(node.dewey) for node in nodes] == ["0.0", "0.1"]

    def test_cache_cleared(self, analyzer):
        content_analyzer, tree = analyzer
        content_analyzer.node_content(tree.root)
        content_analyzer.clear_cache()
        assert content_analyzer.node_content(tree.root)
