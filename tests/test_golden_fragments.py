"""Golden regression: paper-example fragments diff against stored truth.

Unlike the parity suite (which compares backends *against each other*), these
tests compare every backend, and every store input of the parity matrix,
against the fragment sets checked in under ``tests/golden/`` — so a
refactor that breaks all backends identically still fails here.  The golden
files were generated from the memory backend at the point the paper-example
tests (``tests/test_paper_examples.py``) last held.
"""

from __future__ import annotations

import pytest

from golden_loader import golden_datasets, load_golden, result_payload
from repro.core import ALGORITHM_NAMES
from repro.datasets import publications_tree, team_tree
from test_backend_parity import (
    BACKENDS,
    LAYOUT_INPUTS,
    SHARED_STORE_INPUTS,
    build_engine,
)

_TREES = {"publications": publications_tree, "team": team_tree}
GOLDEN_INPUTS = BACKENDS + LAYOUT_INPUTS + SHARED_STORE_INPUTS


def test_golden_files_exist():
    assert golden_datasets() == ["corpus3", "corpus_ranked",
                                 "corpus_updated", "publications", "team"]


@pytest.fixture(scope="module")
def golden_engines():
    return {(dataset, backend): build_engine(_TREES[dataset](), backend, dataset)
            for dataset in _TREES
            for backend in GOLDEN_INPUTS}


@pytest.mark.parametrize("backend", GOLDEN_INPUTS)
@pytest.mark.parametrize("dataset", sorted(_TREES))
def test_fragments_match_stored_truth(golden_engines, dataset, backend):
    golden = load_golden(dataset)
    engine = golden_engines[(dataset, backend)]
    for query_name, entry in golden["queries"].items():
        for algorithm in ALGORITHM_NAMES:
            expected = entry["algorithms"][algorithm]
            result = engine.search(entry["text"], algorithm)
            assert result_payload(result) == expected, \
                (dataset, query_name, algorithm, backend)


def test_golden_covers_every_algorithm():
    for dataset in golden_datasets():
        for entry in load_golden(dataset)["queries"].values():
            assert sorted(entry["algorithms"]) == sorted(ALGORITHM_NAMES)
