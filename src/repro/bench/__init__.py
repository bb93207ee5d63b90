"""Benchmark runner for the paper's Figures 5 and 6 (``BENCH_core.json``)."""

from .harness import (
    BACKEND_NAMES,
    DatasetSpec,
    default_datasets,
    engine_for_backend,
)
from .core_bench import (
    AnswerParityError,
    RankingEquivalenceError,
    alternating_passes,
    require_verified_payload,
    run_core_bench,
    run_ranking_bench,
    write_core_bench,
)
from .figures import (
    FIGURE5_COLUMNS,
    FIGURE6_COLUMNS,
    figure5_rows,
    figure5_summary,
    format_table,
    render_figure5,
    render_figure6,
)

__all__ = [
    "AnswerParityError",
    "BACKEND_NAMES",
    "DatasetSpec",
    "RankingEquivalenceError",
    "alternating_passes",
    "default_datasets",
    "engine_for_backend",
    "require_verified_payload",
    "run_core_bench",
    "run_ranking_bench",
    "write_core_bench",
    "FIGURE5_COLUMNS",
    "FIGURE6_COLUMNS",
    "figure5_rows",
    "figure5_summary",
    "format_table",
    "render_figure5",
    "render_figure6",
]
