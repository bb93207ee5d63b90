"""repro — reproduction of "Retrieving Meaningful Relaxed Tightest Fragments
for XML Keyword Search" (Kong, Gilleron, Lemay; EDBT 2009).

The package implements the paper's ValidRTF algorithm, the MaxMatch baseline,
the Relaxed Tightest Fragment result model and every substrate they need
(Dewey-coded XML trees, tokenization, inverted indexes, SLCA/ELCA algorithms,
a relational shredding store, dataset generators) plus the benchmark harness
that regenerates the paper's Figures 5 and 6.

Quickstart
----------
>>> from repro import SearchEngine, publications_tree
>>> engine = SearchEngine(publications_tree())
>>> result = engine.search("xml keyword search")
>>> for fragment in result:
...     print(fragment.root, fragment.size)
"""

from .core import (
    ALGORITHM_NAMES,
    CacheStats,
    ComparisonOutcome,
    Fragment,
    QueryResultCache,
    PrunedFragment,
    Query,
    SearchEngine,
    SearchResult,
    effectiveness,
)
from .corpus import (
    CorpusPostingSource,
    CorpusSearchEngine,
    CorpusSearchResult,
)
from .datasets import (
    PAPER_QUERIES,
    publications_tree,
    team_tree,
)
from .index import InvertedIndex
from .xmltree import (
    DeweyCode,
    XMLNode,
    XMLTree,
    parse_file,
    parse_string,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SearchEngine",
    "CorpusSearchEngine",
    "CorpusSearchResult",
    "CorpusPostingSource",
    "ComparisonOutcome",
    "ALGORITHM_NAMES",
    "QueryResultCache",
    "CacheStats",
    "Query",
    "Fragment",
    "PrunedFragment",
    "SearchResult",
    "effectiveness",
    "InvertedIndex",
    "DeweyCode",
    "XMLNode",
    "XMLTree",
    "parse_string",
    "parse_file",
    "publications_tree",
    "team_tree",
    "PAPER_QUERIES",
]
