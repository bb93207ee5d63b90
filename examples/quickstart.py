#!/usr/bin/env python3
"""Quickstart: index an XML document and run an XML keyword search.

Builds a small bibliography, runs one keyword query with ValidRTF (the
paper's algorithm) and with the MaxMatch baseline, prints the resulting
meaningful fragments side by side, and ranks them through the corpus engine
(one document is a corpus of one).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import CorpusSearchEngine, SearchEngine, parse_string

DOCUMENT = """
<bibliography>
  <conference>
    <name>EDBT 2009</name>
    <paper>
      <title>Retrieving Meaningful Relaxed Tightest Fragments for XML Keyword Search</title>
      <authors>
        <author>Lingbo Kong</author>
        <author>Remi Gilleron</author>
        <author>Aurelien Lemay</author>
      </authors>
      <abstract>valid contributors prune relaxed tightest fragments for xml keyword search</abstract>
    </paper>
    <paper>
      <title>Efficient Keyword Search for Smallest LCAs in XML Databases</title>
      <authors>
        <author>Yu Xu</author>
        <author>Yannis Papakonstantinou</author>
      </authors>
      <abstract>indexed lookup eager computes smallest lowest common ancestors</abstract>
    </paper>
  </conference>
  <journal>
    <name>TKDE</name>
    <paper>
      <title>Keyword Proximity Search in XML Trees</title>
      <authors><author>Vagelis Hristidis</author></authors>
    </paper>
  </journal>
</bibliography>
"""


def main() -> None:
    # 1. Parse the document and build a search engine (the engine indexes the
    #    document once; every query after that reuses the index).
    tree = parse_string(DOCUMENT, name="quickstart")
    engine = SearchEngine(tree)

    query = "xml keyword search"
    print(f"document: {tree.name} ({tree.size()} nodes)")
    print(f"query   : {query!r}\n")

    # 2. Run the paper's ValidRTF algorithm.
    validrtf_result = engine.search(query, algorithm="validrtf")
    print(f"ValidRTF returns {validrtf_result.count} meaningful RTF(s):")
    print(engine.render_result(validrtf_result))
    print()

    # 3. Run the MaxMatch baseline on the same RTFs and compare.
    outcome = engine.compare(query)
    report = outcome.report
    print("ValidRTF vs MaxMatch on the same query:")
    print(f"  interesting LCA roots : {report.lca_count}")
    print(f"  identical fragments   : {report.common_fragments} (CFR = {report.cfr:.2f})")
    print(f"  Max APR               : {report.max_apr:.2f}")
    for comparison in report.comparisons:
        marker = "same" if comparison.identical else "differs"
        print(f"    root {comparison.root}: MaxMatch keeps {comparison.maxmatch_size} "
              f"nodes, ValidRTF keeps {comparison.validrtf_size} ({marker})")

    # 4. Rank the meaningful RTFs (the paper's future-work extension).  The
    #    corpus engine ranks across documents; here the corpus holds one.
    corpus = CorpusSearchEngine.from_trees({tree.name: tree})
    ranking = corpus.rank_search(query, algorithm="validrtf")
    print("\nRanked fragments (most specific / compact first):")
    for position, ranked in enumerate(ranking.ranked, start=1):
        print(f"  {position}. root {ranked.fragment.root} score={ranked.score:.3f}")


if __name__ == "__main__":
    main()
