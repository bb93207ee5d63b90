"""Multi-document corpus retrieval: many XML documents, one searchable index.

The ROADMAP's north star is a system serving a *corpus* — all of DBLP's
records, many uploaded documents — in one request, not one XML document per
index.  A single document is a corpus of one, so the serving stack and the
CLI query every backend through this package:

* :mod:`repro.corpus.source` — :class:`CorpusPostingSource`, the
  doc-partitioned posting organisation: one per-document posting source per
  doc id, in sorted doc-id order;
* :mod:`repro.corpus.engine` — :class:`CorpusSearchEngine`, which runs the
  per-document SLCA/ELCA/RTF pipeline
  (:class:`~repro.core.engine.SearchEngine`) on each document and unions the
  doc-id-tagged answers, with cross-document top-k rank merging;
* :mod:`repro.corpus.result` — the doc-tagged result model;
* :mod:`repro.corpus.opener` — :func:`open_corpus`, the one opener of a
  served corpus: the CLI and the engine pool check what a backend may serve
  there, once.

The correctness contract — **corpus results equal the union of per-document
single-document results** — is enforced by the differential fuzz harness
(``tests/test_corpus_fuzz.py``) across backends and all four algorithms.
"""

from .engine import CorpusComparisonOutcome, CorpusSearchEngine
from .opener import CORPUS_BACKENDS, open_corpus
from .result import CorpusSearchResult, DocumentResult
from .source import CorpusPostingSource, corpus_from_store, corpus_from_trees

__all__ = [
    "CORPUS_BACKENDS",
    "CorpusComparisonOutcome",
    "CorpusPostingSource",
    "CorpusSearchEngine",
    "CorpusSearchResult",
    "DocumentResult",
    "corpus_from_store",
    "corpus_from_trees",
    "open_corpus",
]
