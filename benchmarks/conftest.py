"""Shared fixtures for the benchmark suite.

The benchmark datasets are scaled-down stand-ins for the paper's DBLP and
XMark documents (see DESIGN.md).  Engines and the one verified Figure 5 + 6
run are built once per session and shared between the Figure 5 and Figure 6
tests so the whole suite stays laptop-friendly.
"""

from __future__ import annotations

import pytest

from repro.bench import DatasetSpec, default_datasets, run_core_bench
from repro.core import SearchEngine

#: Sizes of the benchmark documents (publications / base items).
DBLP_PUBLICATIONS = 500
XMARK_BASE_ITEMS = 60

#: Timing repetitions per query (the first run is discarded, like the paper).
REPETITIONS = 2


def pytest_collection_modifyitems(items):
    """Mark every benchmark test ``bench`` so the suite is selectable
    (``pytest -m bench benchmarks``) and deselectable (``-m 'not bench'``)."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def _specs():
    return default_datasets(dblp_publications=DBLP_PUBLICATIONS,
                            xmark_base_items=XMARK_BASE_ITEMS)


@pytest.fixture(scope="session")
def dataset_specs():
    return _specs()


@pytest.fixture(scope="session")
def engines(dataset_specs):
    """One SearchEngine per benchmark dataset, built once."""
    return {name: SearchEngine(spec.tree_factory())
            for name, spec in dataset_specs.items()}


@pytest.fixture(scope="session")
def core_payload(dataset_specs):
    """The Figure 5 + Figure 6 run over every dataset, computed once."""
    return run_core_bench(repetitions=REPETITIONS, specs=dataset_specs)


def representative_queries(spec: DatasetSpec, count: int = 2):
    """A short, frequency-diverse sample of a workload for micro-benchmarks."""
    workload = list(spec.workload)
    if len(workload) <= count:
        return workload
    step = max(1, len(workload) // count)
    return workload[::step][:count]
