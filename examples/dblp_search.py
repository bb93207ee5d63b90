#!/usr/bin/env python3
"""Bibliographic search over the synthetic DBLP-like dataset, disk-backed.

Generates the DBLP stand-in corpus, shreds it into the relational (sqlite3)
store the way the paper's system does (Section 5.2), and answers a handful of
bibliographic keyword queries **through the disk-backed posting source** — the
search engine runs without the XML tree resident in memory, exactly like the
CLI workflow::

    repro-xks index doc.xml --db doc.db
    repro-xks search --db doc.db --backend sqlite "xml keyword retrieval"

A memory-backend engine runs alongside to show the two backends agree
fragment for fragment (the invariant `tests/test_backend_parity.py` enforces
for every backend).

Run with::

    python examples/dblp_search.py [publications]
"""

from __future__ import annotations

import sys

from repro.core import SearchEngine
from repro.datasets import DBLPConfig, DBLP_PAPER_FREQUENCIES, generate_dblp
from repro.index import document_profile
from repro.storage import SQLitePostingSource, SQLiteStore

QUERIES = (
    "xml keyword retrieval",
    "probabilistic similarity",
    "dynamic algorithm efficient",
    "tree pattern query",
)


def main() -> None:
    publications = int(sys.argv[1]) if len(sys.argv) > 1 else 400

    # 1. Generate the corpus and profile it (reusing the engine's index).
    tree = generate_dblp(DBLPConfig(publications=publications))
    memory_engine = SearchEngine(tree)
    profile = document_profile(tree, memory_engine.source, name="dblp-synthetic")
    print(f"corpus: {profile.node_count} nodes, {profile.distinct_labels} labels, "
          f"{profile.vocabulary_size} distinct words")

    # 2. Shred it into the relational store (label / element / posting tables).
    store = SQLiteStore()
    store.store_tree(tree, "dblp")
    stats = store.document_stats("dblp")
    print(f"shredded into sqlite: {stats['nodes']} element rows, "
          f"{stats['keywords']} keywords, {stats['labels']} labels\n")

    # 3. The disk-backed counterpart never touches `tree` again.
    disk_engine = SearchEngine(source=SQLitePostingSource(store, "dblp"))
    print(f"backends: {memory_engine.backend_id!r} vs {disk_engine.backend_id!r}\n")

    # 4. Keyword frequencies of the workload keywords (Section 5.1 table).
    print("workload keyword frequencies (scaled-down corpus):")
    for keyword in ("data", "algorithm", "xml", "keyword", "vldb"):
        paper = DBLP_PAPER_FREQUENCIES[keyword]
        here = disk_engine.source.frequency(keyword)
        print(f"  {keyword:<10} paper={paper:<6} here={here}")
    print()

    # 5. Run queries disk-backed, compare algorithms, and check parity.
    for query in QUERIES:
        validrtf = disk_engine.search(query, "validrtf")
        maxmatch = disk_engine.search(query, "maxmatch")
        reference = memory_engine.search(query, "validrtf")
        agrees = [f.kept_set() for f in validrtf] == \
            [f.kept_set() for f in reference]
        print(f"query {query!r}")
        print(f"  RTFs: {validrtf.count}   kept nodes: "
              f"ValidRTF={validrtf.total_kept_nodes()} "
              f"MaxMatch={maxmatch.total_kept_nodes()}   "
              f"parity with memory backend: {'ok' if agrees else 'MISMATCH'}")
        if validrtf.fragments:
            top = validrtf.fragments[0]
            title_nodes = [code for code in top.kept_nodes
                           if disk_engine.source.node_label(code) == "title"]
            if title_nodes:
                print(f"  first fragment root {top.root}: title node "
                      f"{title_nodes[0]} "
                      f"\"{tree.node(title_nodes[0]).text}\"")
        print()


if __name__ == "__main__":
    main()
