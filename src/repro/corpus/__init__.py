"""Multi-document corpus retrieval: many XML documents, one searchable index.

The ROADMAP's north star is a system serving a *corpus* — all of DBLP's
records, many uploaded documents — in one request, not one XML document per
index.  This package layers that workload onto the existing stack without
forking it:

* :mod:`repro.corpus.source` — :class:`CorpusPostingSource`, the
  doc-partitioned posting organisation (one per-document posting source per
  doc id, in sorted doc-id order), honouring the
  :class:`~repro.index.source.PostingSource` protocol corpus-wide through
  doc-ordinal-prefixed Dewey codes;
* :mod:`repro.corpus.engine` — :class:`CorpusSearchEngine`, which runs the
  SLCA/ELCA/RTF pipeline per document and unions the doc-id-tagged answers,
  with cross-document top-k rank merging;
* :mod:`repro.corpus.result` — the doc-tagged result model.

The correctness contract — **corpus results equal the union of per-document
single-document results** — is enforced by the differential fuzz harness
(``tests/test_corpus_fuzz.py``) across backends and all four algorithms.
"""

from .engine import CorpusComparisonOutcome, CorpusSearchEngine
from .result import CorpusSearchResult, DocumentResult
from .source import (
    CORPUS_DOC_BACKENDS,
    CorpusPostingSource,
    corpus_from_store,
    corpus_from_trees,
)

__all__ = [
    "CORPUS_DOC_BACKENDS",
    "CorpusComparisonOutcome",
    "CorpusPostingSource",
    "CorpusSearchEngine",
    "CorpusSearchResult",
    "DocumentResult",
    "corpus_from_store",
    "corpus_from_trees",
]
