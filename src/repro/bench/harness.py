"""The experiment table of the paper's evaluation, and the engines it times.

:func:`default_datasets` is the table :func:`~repro.bench.core_bench.
run_core_bench` reads: the four documents of Figures 5 and 6 (DBLP and the
three XMark scales), each a tree factory plus its query workload.
:func:`engine_for_backend` builds the engine one posting backend times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..core import SearchEngine
from ..storage import SQLitePostingSource, SQLiteStore
from ..datasets import (
    DBLPConfig,
    WorkloadQuery,
    XMarkConfig,
    dblp_workload,
    generate_dblp,
    generate_xmark,
    xmark_workload,
)
from ..xmltree import XMLTree


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: a tree factory plus its query workload."""

    name: str
    tree_factory: Callable[[], XMLTree]
    workload: Tuple[WorkloadQuery, ...]
    description: str = ""


# ---------------------------------------------------------------------- #
# Default dataset registry (sizes chosen for laptop-scale runs; DESIGN.md
# documents the down-scaling from the paper's multi-hundred-MB documents).
# ---------------------------------------------------------------------- #
def default_datasets(dblp_publications: int = 600,
                     xmark_base_items: int = 80) -> Dict[str, DatasetSpec]:
    """The four datasets of the paper's evaluation, scaled down."""
    dblp_spec = DatasetSpec(
        name="dblp",
        tree_factory=lambda: generate_dblp(
            DBLPConfig(publications=dblp_publications)),
        workload=tuple(dblp_workload()),
        description="synthetic DBLP-like bibliography (real-data stand-in)",
    )
    xmark_specs = {
        scale: DatasetSpec(
            name=f"xmark-{scale}",
            tree_factory=lambda scale=scale: generate_xmark(
                XMarkConfig(scale=scale, base_items=xmark_base_items)),
            workload=tuple(xmark_workload()),
            description=f"synthetic XMark-like auction site ({scale})",
        )
        for scale in ("standard", "data1", "data2")
    }
    return {"dblp": dblp_spec, **{spec.name: spec for spec in xmark_specs.values()}}


#: Backends accepted by :func:`engine_for_backend`.
BACKEND_NAMES = ("memory", "sqlite")


def engine_for_backend(tree: XMLTree, backend: str = "memory",
                       document: str = "bench") -> SearchEngine:
    """Build a :class:`SearchEngine` over ``tree`` for one posting backend.

    ``memory`` builds the in-memory inverted index (tree resident).
    ``sqlite`` shreds the document into an in-process :class:`SQLiteStore`
    and searches purely through the disk-backed posting source, with no
    tree resident, so the measured times include SQL posting retrieval and
    SQL-backed record construction.
    """
    if backend == "memory":
        return SearchEngine(tree)
    if backend == "sqlite":
        store = SQLiteStore(":memory:")
        store.store_tree(tree, document)
        return SearchEngine(source=SQLitePostingSource(store, document))
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
