"""The one opener of a served corpus.

:func:`open_corpus` holds every rule about what a backend serves, so the
CLI's ``search``, ``compare`` and ``serve`` and the service's
:class:`~repro.service.engine_pool.EnginePool` open through it and each
rule is checked once:

* ``memory`` serves ``tree`` as a corpus of one; ``corpus`` without a
  database serves ``trees`` (or ``tree``).  Every engine the factory builds
  shares one set of memory indexes.
* ``sqlite`` serves one document: ``document`` of the database at
  ``db_path`` (by default its only document), or ``tree`` shredded into an
  in-process store.
* ``corpus`` with ``db_path`` serves ``documents`` of the database, or every
  document, and takes live writes only when it serves every document.

A ``db_path`` is opened only if the file exists, so no read creates a
database, and an empty store or an unknown document name fails here, once,
rather than inside a worker's lazily built engine.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Tuple

from ..faults import FaultPlan
from ..storage import SQLiteStore, existing_database
from ..storage.errors import DocumentNotFound
from ..xmltree import XMLTree
from .engine import CorpusSearchEngine
from .source import corpus_from_store, corpus_from_trees

#: The backends :func:`open_corpus` serves.
CORPUS_BACKENDS = ("memory", "sqlite", "corpus")


def open_corpus(backend: str, *, db_path: Optional[str] = None,
                document: Optional[str] = None,
                documents: Optional[Sequence[str]] = None,
                tree: Optional[XMLTree] = None,
                trees: Optional[Mapping[str, XMLTree]] = None,
                fault_plan: Optional[FaultPlan] = None,
                cache_size: int = 0
                ) -> Tuple[Callable[[], CorpusSearchEngine],
                           Optional[SQLiteStore]]:
    """Open what ``backend`` serves: ``(engine factory, mutable store)``.

    Each call of the factory builds one engine, with a ``cache_size``-entry
    result cache, over the shared indexes or store.  The mutable store is
    the one live writes go to, or ``None``.  A document stored in memory is
    named ``document``, or after its tree.  A fault plan is installed on the
    store and needs one.  Every refusal is a ``ValueError``, except a
    database file that is missing or unreadable
    (:class:`~repro.storage.errors.DatabaseFileError`,
    :class:`~repro.storage.errors.SchemaVersionError`).
    """
    if backend not in CORPUS_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected memory, "
                         f"sqlite or corpus")
    if cache_size < 0:
        raise ValueError(f"cache size must be >= 0 (0 disables caching), "
                         f"got {cache_size}")
    if not db_path and backend != "sqlite":
        if fault_plan is not None:
            raise ValueError("a fault plan needs a store: the sqlite "
                             "backend, or corpus with a database")
        if backend == "corpus" and trees:
            corpus_trees = dict(trees)
        elif tree is not None:
            corpus_trees = {document or tree.name: tree}
        else:
            raise ValueError(f"the {backend} backend needs a tree"
                             + (", trees or a database"
                                if backend == "corpus" else ""))
        snapshot = corpus_from_trees(corpus_trees)
        return (lambda: CorpusSearchEngine(snapshot, trees=corpus_trees,
                                           cache_size=cache_size)), None
    served: Optional[Sequence[str]]
    if not db_path:
        if tree is None:
            raise ValueError("the sqlite backend needs a tree or a database")
        name = document or tree.name
        store = SQLiteStore()
        store.store_tree(tree, name)
        served = [name]
    else:
        if backend == "memory":
            raise ValueError("a database is served by the sqlite or corpus "
                             "backend, not 'memory'")
        store = SQLiteStore(existing_database(db_path))
        try:
            if backend == "sqlite":
                served = [document] if document else store.documents()
                if len(served) > 1:
                    raise ValueError(f"the store holds several documents "
                                     f"({', '.join(served)}); pick one "
                                     f"with --doc")
            else:
                served = list(documents) if documents else None
            corpus_from_store(store, served)
        except (ValueError, DocumentNotFound) as error:
            store.close()
            raise ValueError(f"{db_path}: {error}") from None
    if fault_plan is not None:
        store.set_fault_plan(fault_plan)
    # A pinned subset cannot absorb adds and deletes coherently, so only a
    # corpus serving every document of its database takes live writes.
    mutable = store if backend == "corpus" and served is None else None
    return (lambda: CorpusSearchEngine.from_store(
        store, documents=served, cache_size=cache_size)), mutable
