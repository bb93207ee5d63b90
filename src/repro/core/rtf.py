"""RTF construction — the ``getRTF`` stage of Algorithm 1.

Given the interesting LCA nodes (ELCAs, in document order) and the keyword
posting lists ``D_1..D_k``, every keyword node is dispatched to the *last* LCA
node in document order that is its ancestor-or-self — i.e. its nearest
enclosing interesting LCA node.  The keyword nodes collected for one LCA node,
together with the paths from that node down to them, form one Relaxed Tightest
Fragment (Definition 2; see the analysis in Section 4.3-(1)).

Keyword nodes that are not descendants of any interesting LCA node belong to
no partition and are dropped (they cannot complete a fragment covering the
query).  :func:`build_rtfs` dispatches the query's match list with a stack of
open roots; :func:`assign_keyword_nodes` is its per-code reference.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, List, Mapping, Sequence, Tuple

from ..index.packed import QueryLists
from ..lca import elca_is_slca
from ..xmltree import DeweyCode
from .fragments import Fragment


def assign_keyword_nodes(
    lca_nodes: Sequence[DeweyCode],
    keyword_lists: Mapping[str, Sequence[DeweyCode]],
) -> Dict[DeweyCode, List[DeweyCode]]:
    """Dispatch every keyword node to its nearest enclosing LCA node.

    Returns a mapping ``lca -> sorted keyword nodes``; LCA nodes with no
    assigned keyword node (possible only when the input lists are
    inconsistent) map to an empty list so callers see every requested root.
    This is the readable per-code reference for :func:`build_rtfs`: with
    :func:`~repro.core.fragments.build_fragment` it rebuilds the same
    fragments, which the property suites check.
    """
    sorted_lcas = sorted(lca_nodes)
    assignment: Dict[DeweyCode, List[DeweyCode]] = {code: [] for code in sorted_lcas}
    seen: set = set()
    for deweys in keyword_lists.values():
        for dewey in deweys:
            # lint: allow(hot-loop-purity) the reference's input normalization
            code = DeweyCode.coerce(dewey)
            if code in seen:
                continue
            seen.add(code)
            owner = _nearest_enclosing(sorted_lcas, code)
            if owner is not None:
                assignment[owner].append(code)
    for keyword_nodes in assignment.values():
        keyword_nodes.sort()
    return assignment


def build_rtfs(
    lca_nodes: Sequence[DeweyCode],
    keyword_lists: Mapping[str, Sequence[DeweyCode]],
    slca_flags: Sequence[bool] = (),
) -> List[Fragment]:
    """``getRTF``: one raw :class:`Fragment` per interesting LCA node.

    ``slca_flags`` (parallel to ``lca_nodes``) marks which roots are also SLCA
    nodes; when omitted it is derived from the node set itself (an LCA node is
    an SLCA iff no other LCA node is its strict descendant).  Fragments are
    assembled from Dewey arithmetic alone, so no tree is needed.

    The keyword nodes come from the query's match list
    (:meth:`~repro.index.packed.QueryLists.matches`, the merge the ELCA
    scan already paid for; any other mapping is packed and merged here).
    Each goes to the innermost of a stack of open roots: every root at or
    before the node in document order is pushed, and roots that do not
    enclose it are popped.  A subtree is contiguous in document order, so
    a root popped for one match encloses no later match.  The fragment
    node set is the union of root-to-keyword-node prefixes.  Each node of
    a returned fragment is boxed as a :class:`DeweyCode` once: a keyword
    node straight from its match slice, and it is its own path node, so
    only the missing ancestor prefixes are boxed besides.  Dropped keyword
    nodes (outside every root) never become objects.

    Each fragment also keeps the merge's mask of every keyword node
    (``Fragment.keyword_masks``): bit *i* is set iff the node is in the
    *i*-th list of ``keyword_lists``, which is the node's keyword mask when
    the lists are in query-keyword order, as the pipeline passes them.  It
    keeps its shape as positions in its sorted node tuples
    (``Fragment.parents``, ``Fragment.keyword_positions``), which the record
    tree is folded over.
    """
    sorted_lcas = sorted(lca_nodes)
    if not sorted_lcas:
        return []
    if slca_flags and len(slca_flags) == len(lca_nodes):
        flag_by_code = dict(zip(lca_nodes, slca_flags))
    else:
        flag_by_code = dict(zip(sorted_lcas, elca_is_slca(sorted_lcas)))
    # One entry per root: its components, depth, keyword nodes and masks.
    entries = [(array("I", code), len(code), [], []) for code in sorted_lcas]
    root_count = len(entries)
    from_tuple = DeweyCode._from_tuple
    open_roots: List[Tuple[array, int, List[DeweyCode], List[int]]] = []
    following = 0  # the first root not pushed yet
    for comps, mask in QueryLists.of(keyword_lists).matches():
        while following < root_count and entries[following][0] <= comps:
            open_roots.append(entries[following])
            following += 1
        while open_roots:
            root_comps, root_depth, codes, root_masks = open_roots[-1]
            if comps[:root_depth] == root_comps:
                # lint: allow(hot-loop-purity) result boundary: an assigned node
                codes.append(from_tuple(comps))
                root_masks.append(mask)
                break
            open_roots.pop()
    fragments: List[Fragment] = []
    for root, (_, root_depth, keyword_codes, keyword_masks) in zip(
            sorted_lcas, entries):
        if not keyword_codes:
            continue
        # The keyword nodes arrive in document order, so the prefixes each
        # one adds (those below its nearest ancestor already present), taken
        # top-down, follow every node added before it: the paths are built
        # in document order, each after its parent.  A code equals the
        # tuple of its components, so prefix slices find codes in
        # ``placed``.
        placed: Dict[Tuple[int, ...], int] = {}
        find = placed.get
        paths: List[DeweyCode] = []
        parents: List[int] = []
        keyword_positions: List[int] = []
        for code in keyword_codes:
            # The merge is duplicate-free and a node's ancestors precede it,
            # so the keyword node itself is not yet placed.
            size = len(code) - 1
            parent = -1
            while size >= root_depth:
                parent = find(code[:size], -1)
                if parent >= 0:
                    break  # every shorter prefix is already present
                size -= 1
            for size in range(size + 1, len(code)):
                # lint: allow(hot-loop-purity) result boundary: a path node
                prefix = from_tuple(code[:size])
                parents.append(parent)
                parent = placed[prefix] = len(paths)
                paths.append(prefix)
            parents.append(parent)
            parent = placed[code] = len(paths)
            paths.append(code)
            keyword_positions.append(parent)
        fragments.append(Fragment(
            root=root,
            # The merged stream is in document order, so per-root assignment
            # order already matches the sorted keyword list.
            keyword_nodes=tuple(keyword_codes),
            nodes=tuple(paths),
            is_slca=flag_by_code[root],
            keyword_masks=tuple(keyword_masks),
            parents=tuple(parents),
            keyword_positions=tuple(keyword_positions),
        ))
    return fragments


def _nearest_enclosing(sorted_lcas: Sequence[DeweyCode],
                       node: DeweyCode) -> DeweyCode:
    """The deepest LCA node that is an ancestor-or-self of ``node``.

    ``sorted_lcas`` is in document order, so every ancestor-or-self of
    ``node`` precedes (or equals) it; scanning backwards from the insertion
    point finds the nearest one — the "last RTF whose root is an ancestor of
    or the same as d" of Algorithm 1.
    """
    position = bisect_right(sorted_lcas, node)
    for index in range(position - 1, -1, -1):
        candidate = sorted_lcas[index]
        if candidate.is_ancestor_or_self(node):
            # Among the ancestors of ``node``, deeper ones come later in
            # document order, so the first ancestor found scanning backwards
            # is the nearest enclosing one.
            return candidate
    return None
