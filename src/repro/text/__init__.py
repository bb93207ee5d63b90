"""Text analysis substrate: tokenization, stop words, node content extraction."""

from .stopwords import DEFAULT_STOPWORDS
from .tokenizer import DEFAULT_TOKENIZER, Tokenizer
from .analyzer import EMPTY_CID, ContentAnalyzer, content_id

__all__ = [
    "DEFAULT_STOPWORDS",
    "Tokenizer",
    "DEFAULT_TOKENIZER",
    "ContentAnalyzer",
    "EMPTY_CID",
    "content_id",
]
