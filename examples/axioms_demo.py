#!/usr/bin/env python3
"""Demonstrate the four axiomatic XKS properties on live data mutations.

The paper argues (Section 4.3-(2)) that ValidRTF satisfies the axiomatic
properties deduced by Liu & Chen: data/query monotonicity and data/query
consistency.  This example inserts a new article into the Figure 1(a)
document and extends a query by one keyword, showing how the result set
reacts and checking each property.

Run with::

    python examples/axioms_demo.py
"""

from __future__ import annotations

from repro.core import SearchEngine, check_all_axioms
from repro.datasets import publications_tree
from repro.xmltree import DeweyCode, SubtreeSpec


def validrtf_factory(tree):
    return SearchEngine(tree).algorithm("validrtf").search


def main() -> None:
    tree = publications_tree()
    query = "xml keyword"
    extra_keyword = "search"
    insertion = SubtreeSpec("article", None, children=[
        SubtreeSpec("title", "Adaptive XML Keyword Search with Ranked Fragments"),
        SubtreeSpec("abstract",
                    "ranking keyword search fragments over xml collections"),
    ])
    parent = DeweyCode.parse("0.2")

    search = validrtf_factory(tree)
    before = search(query)
    print(f"query {query!r} on the original document: {before.count} RTF(s) "
          f"rooted at {[str(code) for code in before.roots()]}")

    mutated = tree.with_inserted_subtree(parent, insertion)
    after_data = validrtf_factory(mutated)(query)
    print(f"after inserting a new <article> under {parent}: "
          f"{after_data.count} RTF(s) rooted at "
          f"{[str(code) for code in after_data.roots()]}")

    extended = f"{query} {extra_keyword}"
    after_query = search(extended)
    print(f"after adding the keyword {extra_keyword!r}: {after_query.count} RTF(s)")
    print()

    report = check_all_axioms(validrtf_factory, tree, query, parent, insertion,
                              extra_keyword)
    print("axiomatic property checks for ValidRTF:")
    for check in report.checks:
        status = "satisfied" if check.satisfied else f"VIOLATED ({check.detail})"
        print(f"  {check.property_name:<20} {check.before_count} -> "
              f"{check.after_count} results   {status}")
    print()
    print("all four properties satisfied:", report.all_satisfied)


if __name__ == "__main__":
    main()
