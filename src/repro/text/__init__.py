"""Text analysis substrate: tokenization, stop words, node content extraction."""

from .stopwords import DEFAULT_STOPWORDS, filter_stopwords, is_stopword
from .tokenizer import DEFAULT_TOKENIZER, Tokenizer, TokenizerConfig
from .analyzer import EMPTY_CID, ContentAnalyzer, content_id

__all__ = [
    "DEFAULT_STOPWORDS",
    "is_stopword",
    "filter_stopwords",
    "Tokenizer",
    "TokenizerConfig",
    "DEFAULT_TOKENIZER",
    "ContentAnalyzer",
    "EMPTY_CID",
    "content_id",
]
