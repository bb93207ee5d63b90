"""LCA-family algorithms over Dewey posting lists (SLCA, ELCA, references)."""

from .base import (
    EmptyKeywordList,
    KeywordLists,
    KeywordMatch,
    common_ancestor_masks,
    full_mask,
    merge_matches,
    normalize_lists,
    query_lists,
    remove_ancestors,
    remove_ancestors_slices,
    remove_descendants,
)
from .naive import (
    naive_common_ancestors,
    naive_elca,
    naive_elca_exhaustive,
    naive_elca_is_slca,
    naive_lca_candidates,
    naive_slca,
)
from .indexed_lookup import indexed_lookup_eager_slca
from .scan_eager import scan_eager_slca
from .stack_slca import stack_slca
from .indexed_stack import elca_is_slca, indexed_stack_elca

__all__ = [
    "EmptyKeywordList",
    "KeywordLists",
    "KeywordMatch",
    "normalize_lists",
    "query_lists",
    "remove_ancestors_slices",
    "full_mask",
    "merge_matches",
    "remove_ancestors",
    "remove_descendants",
    "common_ancestor_masks",
    "naive_lca_candidates",
    "naive_common_ancestors",
    "naive_slca",
    "naive_elca",
    "naive_elca_exhaustive",
    "naive_elca_is_slca",
    "indexed_lookup_eager_slca",
    "scan_eager_slca",
    "stack_slca",
    "indexed_stack_elca",
    "elca_is_slca",
]
