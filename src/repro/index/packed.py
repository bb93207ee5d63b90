"""Packed columnar posting lists: flat-array Dewey storage for the hot loops.

The paper's stage-1/stage-2 cost (``getKeywordNodes`` + SLCA/RTF matching) is
dominated in a pure-Python reproduction by object churn: every posting used to
be a boxed :class:`~repro.xmltree.dewey.DeweyCode` (at least one heap object
per node), and the merge/stack loops materialized millions of derived codes
per benchmark run.  This module stores a keyword's sorted Dewey list as two
flat ``array('I')`` columns instead:

* ``data`` — the concatenated integer components of every code, and
* ``offsets`` — ``n + 1`` cut points, so code ``i`` occupies
  ``data[offsets[i]:offsets[i+1]]``.

Under this layout the three operations the algorithms hammer become C-speed
primitives on unboxed integers:

* **document-order comparison** is lexicographic comparison of two array
  slices (``array`` implements rich comparison element-wise in C),
* **ancestor tests** are prefix compares: ``a`` is an ancestor-or-self of
  ``b`` iff ``b[:len(a)] == a``,
* **binary search / galloping** bisect the ``offsets`` column directly.

A query's lists ``D_1..D_k`` merge into one document-order match list
(:func:`match_list`); sources hand them out as a :class:`QueryLists`, which
merges them once for both the stack scans and ``getRTF``.

:class:`DeweyCode` objects are materialized only at result boundaries
(LCA roots, fragment nodes, public API returns), each straight from its
component slice.  The serialized form
(:meth:`PackedDeweyList.to_blob`) adds prefix truncation between consecutive
codes — each code stores only the suffix it does not share with its
predecessor — which is what the sqlite backend persists as one blob per
keyword, so disk loads rebuild the columns without decoding per-row strings.

This is the one posting form of the library: every backend serves it and
every stage consumes it, with ``lca/naive.py`` as the independent oracle the
property suites check the packed loops against.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence as _SequenceABC
from itertools import accumulate, chain
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..xmltree import DeweyCode
from ..xmltree.errors import InvalidDeweyCode

__all__ = [
    "EMPTY_PACKED",
    "Match",
    "PackedDeweyList",
    "QueryLists",
    "as_packed",
    "common_prefix_len",
    "match_list",
    "pack_component_tuples",
    "pack_deweys",
]

#: Blob header magic (versioned so the on-disk format can evolve).
_BLOB_MAGIC = b"PKD1"

#: Byte-order tags persisted in blobs; foreign-order blobs are byteswapped.
_ORDER_TAGS = {"little": b"<", "big": b">"}

#: Dewey depths must fit the ``array('H')`` prefix/suffix length columns.
_MAX_DEPTH = 0xFFFF


class PackedDeweyList(_SequenceABC):
    """An immutable, strictly-sorted, duplicate-free packed Dewey list.

    The class satisfies ``Sequence[DeweyCode]`` — indexing and iteration
    materialize :class:`DeweyCode` objects — so it is a drop-in posting list
    for every existing caller, while the flat ``data`` / ``offsets`` columns
    let the rewritten hot loops run without touching objects at all.

    Instances are built by the pack helpers below (or :meth:`from_blob`)
    which guarantee the sortedness invariant; the columns are never mutated
    after construction.
    """

    __slots__ = ("data", "offsets", "_hash")

    def __init__(self, data: "array[int]", offsets: "array[int]") -> None:
        if data.typecode != "I" or offsets.typecode != "I":
            raise ValueError("packed columns must be array('I')")
        if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(data):
            raise ValueError("offsets must run from 0 to len(data)")
        self.data = data
        self.offsets = offsets
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Sequence protocol (object materialization at the boundary)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[DeweyCode, "PackedDeweyList"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                # A non-contiguous or reversed selection cannot stay packed —
                # the class invariant is strict document order — so it
                # degrades to a plain tuple of codes.
                return self.materialize()[index]
            if stop <= start:
                return PackedDeweyList(array("I"), array("I", [0]))
            offsets = self.offsets
            lo = offsets[start]
            cuts = array("I", (offsets[i] - lo
                               for i in range(start, stop + 1)))
            return PackedDeweyList(self.data[lo:offsets[stop]], cuts)
        offsets = self.offsets
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("packed posting index out of range")
        # lint: allow(hot-loop-purity) result boundary: one boxed code out
        return DeweyCode._from_tuple(
            self.data[offsets[index]:offsets[index + 1]])

    def __iter__(self) -> Iterator[DeweyCode]:
        data, offsets = self.data, self.offsets
        from_tuple = DeweyCode._from_tuple
        for i in range(len(offsets) - 1):
            # lint: allow(hot-loop-purity) boxing IS this method's contract
            yield from_tuple(data[offsets[i]:offsets[i + 1]])

    def __bool__(self) -> bool:
        return len(self.offsets) > 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedDeweyList):
            return self.data == other.data and self.offsets == other.offsets
        if isinstance(other, (list, tuple)):
            # Drop-in Sequence[DeweyCode] compatibility: compare by content.
            return len(other) == len(self) and all(
                isinstance(code, DeweyCode) and comps == code
                for comps, code in zip(self._component_tuples(), other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        # Instances are immutable; hashing keeps containers of posting lists
        # (e.g. a frozen dataclass holding one) hashable.  Hashing the
        # materialized code tuple keeps the eq/hash contract intact with the
        # tuple-of-codes form __eq__ accepts — a container holding both sees
        # one entry, not two.  Computed lazily and cached; hashing posting
        # lists is rare and cold.
        if self._hash is None:
            self._hash = hash(self.materialize())
        return self._hash

    def _component_tuples(self) -> Iterator[Tuple[int, ...]]:
        data, offsets = self.data, self.offsets
        for i in range(len(offsets) - 1):
            yield tuple(data[offsets[i]:offsets[i + 1]])

    def __repr__(self) -> str:
        return (f"PackedDeweyList(n={len(self)}, "
                f"components={len(self.data)})")

    # ------------------------------------------------------------------ #
    # Zero-object cursor API
    # ------------------------------------------------------------------ #
    def slice(self, index: int) -> array:
        """The components of code ``index`` as a raw ``array('I')`` slice."""
        offsets = self.offsets
        return self.data[offsets[index]:offsets[index + 1]]

    def depth(self, index: int) -> int:
        """Number of components of code ``index`` (without materializing it)."""
        return self.offsets[index + 1] - self.offsets[index]

    def iter_slices(self) -> Iterator[array]:
        """Iterate the raw component slices in document order."""
        data, offsets = self.data, self.offsets
        for i in range(len(offsets) - 1):
            yield data[offsets[i]:offsets[i + 1]]

    def materialize(self) -> Tuple[DeweyCode, ...]:
        """All codes as a tuple of :class:`DeweyCode` (the result boundary)."""
        return tuple(self)

    def bisect_left(self, comps: Sequence[int]) -> int:
        """First position whose code is ``>= comps`` (flat binary search)."""
        if not isinstance(comps, array):
            comps = array("I", comps)
        data, offsets = self.data, self.offsets
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[offsets[mid]:offsets[mid + 1]] < comps:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def gallop_left(self, comps: array, start: int) -> int:
        """First position ``>= start`` whose code is ``>= comps``.

        Exponential probe from ``start`` followed by a bisect of the bracketed
        window — the skip primitive of the Scan Eager cursors.
        """
        data, offsets = self.data, self.offsets
        n = len(offsets) - 1
        step = 1
        lo = start
        while lo + step < n and data[offsets[lo + step]:offsets[lo + step + 1]] < comps:
            lo += step
            step <<= 1
        hi = min(lo + step, n)
        # ``lo`` is known < comps only after at least one successful probe.
        if lo > start:
            lo += 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[offsets[mid]:offsets[mid + 1]] < comps:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------ #
    # Blob codec (prefix truncation between consecutive codes)
    # ------------------------------------------------------------------ #
    def to_blob(self) -> bytes:
        """Serialize to the prefix-truncated binary form.

        Layout (after a 5-byte ``PKD1`` + byte-order header): ``u32 count``,
        ``u32 suffix_component_count``, then three raw array dumps — per-code
        shared-prefix lengths (``u16``), per-code suffix lengths (``u16``) and
        the concatenated suffix components (``u32``).  Consecutive sorted
        Dewey codes share long prefixes, so the suffix column is typically a
        small fraction of the full ``data`` column.
        """
        data, offsets = self.data, self.offsets
        count = len(offsets) - 1
        prefix_lens = array("H")
        suffix_lens = array("H")
        suffixes = array("I")
        prev_start = prev_end = 0
        for i in range(count):
            start, end = offsets[i], offsets[i + 1]
            depth = end - start
            if depth > _MAX_DEPTH:
                raise ValueError(f"Dewey depth {depth} exceeds the blob format")
            shared = 0
            limit = min(depth, prev_end - prev_start)
            while shared < limit and data[start + shared] == data[prev_start + shared]:
                shared += 1
            prefix_lens.append(shared)
            suffix_lens.append(depth - shared)
            suffixes.extend(data[start + shared:end])
            prev_start, prev_end = start, end
        if sys.byteorder == "big":
            for column in (prefix_lens, suffix_lens, suffixes):
                column.byteswap()
        header = _BLOB_MAGIC + _ORDER_TAGS["little"]
        counts = array("I", [count, len(suffixes)])
        if sys.byteorder == "big":
            counts.byteswap()
        return (header + counts.tobytes() + prefix_lens.tobytes()
                + suffix_lens.tobytes() + suffixes.tobytes())

    @classmethod
    def from_blob(cls, blob: bytes) -> "PackedDeweyList":
        """Rebuild the flat columns from :meth:`to_blob` output.

        The column dumps are loaded with ``array.frombytes`` (C speed) and the
        full ``data`` column is reconstructed with one Python step per *code*
        (array-slice extends), never one per component and never a
        :class:`DeweyCode` object.
        """
        if blob[:4] != _BLOB_MAGIC:
            raise ValueError("not a packed posting blob (bad magic)")
        swap = blob[4:5] != _ORDER_TAGS[sys.byteorder]
        counts = array("I")
        counts.frombytes(blob[5:13])
        if swap:
            counts.byteswap()
        count, suffix_total = counts
        pos = 13
        prefix_lens = array("H")
        prefix_lens.frombytes(blob[pos:pos + 2 * count])
        pos += 2 * count
        suffix_lens = array("H")
        suffix_lens.frombytes(blob[pos:pos + 2 * count])
        pos += 2 * count
        suffixes = array("I")
        suffixes.frombytes(blob[pos:pos + 4 * suffix_total])
        if swap:
            for column in (prefix_lens, suffix_lens, suffixes):
                column.byteswap()
        if len(prefix_lens) != count or len(suffix_lens) != count \
                or len(suffixes) != suffix_total:
            raise ValueError("truncated packed posting blob")
        data = array("I")
        offsets = array("I", [0])
        append_offset = offsets.append
        suffix_pos = 0
        prev_start = 0
        for i in range(count):
            shared = prefix_lens[i]
            take = suffix_lens[i]
            start = len(data)
            if shared:
                data.extend(data[prev_start:prev_start + shared])
            if take:
                data.extend(suffixes[suffix_pos:suffix_pos + take])
                suffix_pos += take
            append_offset(len(data))
            prev_start = start
        return cls(data, offsets)


#: The canonical empty packed list (missing keywords map to it).
EMPTY_PACKED = PackedDeweyList(array("I"), array("I", [0]))


# ---------------------------------------------------------------------- #
# Packing constructors
# ---------------------------------------------------------------------- #
def pack_component_tuples(components: Iterable[Sequence[int]],
                          presorted: bool = False,
                          shared: Optional[Dict[bytes, "array[int]"]] = None
                          ) -> PackedDeweyList:
    """Pack an iterable of component sequences into flat columns.

    Deduplicates and sorts unless ``presorted`` promises the input is already
    strictly sorted in document order.  With ``shared``, a table of columns
    by content, an offsets column equal to one already in the table is the
    table's object: columns are never mutated, so equal ones may be one.
    """
    items = (list(components) if presorted
             else sorted({tuple(parts) for parts in components}))
    offsets = array("I", accumulate(map(len, items), initial=0))
    if shared is not None:
        offsets = shared.setdefault(offsets.tobytes(), offsets)
    return PackedDeweyList(array("I", chain.from_iterable(items)), offsets)


def pack_deweys(deweys: Iterable[DeweyCode],
                presorted: bool = False) -> PackedDeweyList:
    """Pack :class:`DeweyCode` objects (the object→packed conversion; a
    code is the tuple of its components)."""
    return pack_component_tuples(deweys, presorted=presorted)


def as_packed(postings: Sequence) -> PackedDeweyList:
    """Coerce any sorted posting sequence into its packed form."""
    if isinstance(postings, PackedDeweyList):
        return postings
    return pack_deweys(
        # lint: allow(hot-loop-purity) ingest boundary: any input → packed
        (DeweyCode.coerce(code) for code in postings), presorted=False)


def common_prefix_len(left: Sequence[int], right: Sequence[int]) -> int:
    """Length of the longest common prefix of two component sequences."""
    limit = min(len(left), len(right))
    shared = 0
    while shared < limit and left[shared] == right[shared]:
        shared += 1
    return shared


def deepest_neighbor_prefix_len(node: Sequence[int], plist: PackedDeweyList,
                                position: int) -> int:
    """Depth of the deepest LCA of ``node`` with ``plist``'s neighbors.

    The shared predecessor/successor probe of the Indexed Lookup and Scan
    Eager algorithms: only the elements at ``position - 1`` and ``position``
    (the node's document-order neighbors) can give the deepest common prefix.
    Raises :class:`InvalidDeweyCode` when neither neighbor shares a prefix
    (the codes then belong to different roots), like
    ``DeweyCode.common_prefix``.
    """
    best = 0
    if position < len(plist):
        best = common_prefix_len(node, plist.slice(position))
    if position > 0:
        shared = common_prefix_len(node, plist.slice(position - 1))
        if shared > best:
            best = shared
    if not best:
        raise InvalidDeweyCode(
            # lint: allow(hot-loop-purity) error path, never taken when hot
            f"{DeweyCode._from_tuple(node)} shares no common "
            f"prefix with the posting list (different roots)")
    return best


# ---------------------------------------------------------------------- #
# A query's match list
# ---------------------------------------------------------------------- #
#: A keyword node's components and the mask of the lists holding it.
Match = Tuple[array, int]


def match_list(lists: Sequence[PackedDeweyList]) -> List[Match]:
    """Merge packed lists into one document-order ``(components, mask)`` list.

    The packed :func:`repro.lca.base.merge_matches`: a node in several lists
    appears once, list ``i`` setting bit ``1 << i`` of its mask.  The lists'
    slices are concatenated and sorted once (Timsort merges the k presorted
    runs in C, comparing raw ``array('I')`` slices), then equal neighbours'
    masks are ORed.  One long list against a short one pays for every
    posting of the long one.
    """
    entries: List[Match] = []
    for index, plist in enumerate(lists):
        bit = 1 << index
        data, offsets = plist.data, plist.offsets
        entries += [(data[offsets[i]:offsets[i + 1]], bit)
                    for i in range(len(offsets) - 1)]
    entries.sort(key=itemgetter(0))
    merged: List[Match] = []
    append = merged.append
    last = None
    for comps, bit in entries:
        if comps == last:
            merged[-1] = (comps, merged[-1][1] | bit)
        else:
            append((comps, bit))
            last = comps
    return merged


class QueryLists(Dict[str, PackedDeweyList]):
    """A query's posting lists ``D_1..D_k`` and their one match list.

    Maps each normalized keyword, in query order, to its packed list (every
    source's ``keyword_nodes`` returns one); :meth:`matches` merges them on
    first use and keeps the result for ``getLCA`` and ``getRTF`` of the same
    search.  Never mutated after it is built.
    """

    __slots__ = ("_matches",)

    @classmethod
    def of(cls, lists: Mapping[str, Sequence]) -> "QueryLists":
        """``lists`` itself if it is one, else its lists packed, in order."""
        if isinstance(lists, cls):
            return lists
        return cls((keyword, as_packed(postings))
                   for keyword, postings in lists.items())

    def matches(self) -> List[Match]:
        """The match list; bit *i* of a mask is the mapping's *i*-th list."""
        matches = getattr(self, "_matches", None)
        if matches is None:
            matches = self._matches = match_list(list(self.values()))
        return matches
