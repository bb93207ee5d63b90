#!/usr/bin/env python
"""Profile one benchmark query: cProfile + top-20 cumulative report.

The companion of ``repro.cli bench``: where BENCH_core.json tells you
*whether* a path got faster, this tells you *where the time goes*.  Runs one
workload query through a fresh engine for the chosen dataset / backend
(``memory`` or ``sqlite``, built like the bench builds them) and
prints the top functions by cumulative time, twice: once for the first,
cold run (posting and node caches empty; with ``--backend sqlite`` the only
run that reaches the node fetches and existence checks) and once for the
``--repeat`` warm runs after it.

cProfile sees Python frames only.  The time sqlite spends stepping a cursor
is charged, as own time, to the Python function iterating that cursor, so a
large own time in ``prefetch_nodes`` can be a sqlite full scan rather than
Python work: check the statement's ``EXPLAIN QUERY PLAN`` before optimizing
the loop around it.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/profile_query.py
    PYTHONPATH=src python scripts/profile_query.py --dataset dblp --query QD3 \\
        --algorithm maxmatch --backend sqlite
    PYTHONPATH=src python scripts/profile_query.py --top 40 --repeat 10

``--query`` accepts a workload label (e.g. ``QD3``), a paper query name
(``Q1``..``Q5``) or free keyword text; the default is the dataset's first
workload query.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import BACKEND_NAMES, default_datasets, engine_for_backend
from repro.core import ALGORITHM_NAMES
from repro.datasets import PAPER_QUERIES


def _resolve_query(spec, raw: str | None) -> str:
    if raw is None:
        return spec.workload[0].text
    for query in spec.workload:
        if query.label.upper() == raw.upper():
            return query.text
    return PAPER_QUERIES.get(raw.upper(), raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one benchmark query (top cumulative report)")
    parser.add_argument("--dataset", default="dblp",
                        choices=sorted(default_datasets()))
    parser.add_argument("--query", default=None,
                        help="workload label, paper query name, or keyword "
                             "text (default: the dataset's first query)")
    parser.add_argument("--algorithm", default="validrtf",
                        choices=ALGORITHM_NAMES)
    parser.add_argument("--backend", default="memory", choices=BACKEND_NAMES)
    parser.add_argument("--repeat", type=int, default=5,
                        help="profiled warm repetitions (after the cold "
                             "first run, which is reported on its own)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative report")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"))
    arguments = parser.parse_args(argv)

    spec = default_datasets()[arguments.dataset]
    query = _resolve_query(spec, arguments.query)
    engine = engine_for_backend(spec.tree_factory(), arguments.backend,
                                document=arguments.dataset)

    print(f"dataset={arguments.dataset} backend={arguments.backend} "
          f"algorithm={arguments.algorithm} repeat={arguments.repeat}")
    print(f"query: {query!r}")
    for title, runs in (("cold: the first run", 1),
                        (f"warm: {arguments.repeat} runs after it",
                         arguments.repeat)):
        print(f"\n== {title} ==")
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(runs):
            engine.search(query, arguments.algorithm)
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats(arguments.sort).print_stats(arguments.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
