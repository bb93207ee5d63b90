"""Unit tests for the packed columnar posting representation.

Covers the flat-column invariants, the Sequence[DeweyCode] drop-in contract,
the binary-search/galloping cursor primitives, the prefix-truncated blob codec
and the match-list merge — each against a straightforward object-side
reference.  Cross-backend *search* parity lives in ``test_backend_parity.py``
/ ``test_posting_properties.py``; this file pins down the packed module
itself.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left

import pytest

from repro.index.packed import (
    EMPTY_PACKED,
    PackedDeweyList,
    as_packed,
    common_prefix_len,
    deepest_neighbor_prefix_len,
    match_list,
    pack_component_tuples,
    pack_deweys,
)
from repro.xmltree import DeweyCode
from repro.xmltree.errors import InvalidDeweyCode


def codes(*texts):
    return [DeweyCode.parse(text) for text in texts]


def random_component_lists(rng, count, max_depth=6, max_component=7):
    out = set()
    while len(out) < count:
        depth = rng.randint(1, max_depth)
        out.add((0,) + tuple(rng.randint(0, max_component)
                             for _ in range(depth - 1)))
    return sorted(out)


# ---------------------------------------------------------------------- #
# Construction + Sequence contract
# ---------------------------------------------------------------------- #
class TestConstruction:
    def test_pack_deweys_round_trips(self):
        original = codes("0", "0.1", "0.1.2", "0.2.0.1")
        packed = pack_deweys(original, presorted=True)
        assert list(packed) == original
        assert len(packed) == 4
        assert packed  # truthy when non-empty

    def test_unsorted_input_is_sorted_and_deduplicated(self):
        packed = pack_deweys(codes("0.2", "0.1", "0.2", "0"))
        assert list(packed) == codes("0", "0.1", "0.2")

    def test_empty_packed_is_falsy_and_shared(self):
        assert len(EMPTY_PACKED) == 0
        assert not EMPTY_PACKED
        assert list(EMPTY_PACKED) == []

    def test_invalid_columns_rejected(self):
        with pytest.raises(ValueError):
            PackedDeweyList(array("H"), array("I", [0]))
        with pytest.raises(ValueError):
            PackedDeweyList(array("I", [1, 2]), array("I", [0, 1]))  # bad end

    def test_as_packed_passthrough_and_coercion(self):
        packed = pack_deweys(codes("0", "0.1"))
        assert as_packed(packed) is packed
        assert list(as_packed(["0.1", "0"])) == codes("0", "0.1")
        # A mutable input is copied, so the packed list never aliases it.
        deweys = [DeweyCode.parse("0.2"), DeweyCode.parse("0.1")]
        copied = as_packed(deweys)
        deweys.append(DeweyCode.parse("0.3"))
        assert isinstance(copied, PackedDeweyList)
        assert list(copied) == codes("0.1", "0.2")


class TestSequenceProtocol:
    def test_getitem_and_negative_index(self):
        packed = pack_deweys(codes("0", "0.1", "0.2.3"))
        assert packed[0] == DeweyCode.parse("0")
        assert packed[-1] == DeweyCode.parse("0.2.3")
        with pytest.raises(IndexError):
            packed[3]

    def test_slicing_returns_packed(self):
        packed = pack_deweys(codes("0", "0.1", "0.2", "0.3"))
        window = packed[1:3]
        assert isinstance(window, PackedDeweyList)
        assert list(window) == codes("0.1", "0.2")
        assert len(packed[2:1]) == 0

    def test_stepped_slicing_degrades_to_object_form(self):
        # Reversed/strided selections violate the document-order invariant,
        # so they come back as plain tuples of codes, not packed columns.
        packed = pack_deweys(codes("0", "0.1", "0.2", "0.3"))
        assert packed[::-1] == tuple(reversed(codes("0", "0.1", "0.2", "0.3")))
        assert isinstance(packed[::2], tuple)

    def test_equality_with_object_sequences(self):
        original = codes("0", "0.1.2")
        packed = pack_deweys(original, presorted=True)
        assert packed == original            # list of DeweyCode
        assert packed == tuple(original)     # tuple of DeweyCode
        assert packed != original[:1]
        assert packed == pack_deweys(original, presorted=True)
        # A single code is a tuple of as many components as the list has
        # codes, not a sequence of codes.
        assert packed.__eq__(DeweyCode.parse("0.1")) is False

    def test_hashable_like_the_object_representation(self):
        original = codes("0", "0.1.2")
        first = pack_deweys(original, presorted=True)
        second = pack_deweys(original, presorted=True)
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        # eq/hash contract with the tuple form __eq__ accepts: one entry.
        assert hash(first) == hash(tuple(original))
        assert len({first, tuple(original)}) == 1
        # A container holding packed columns stays hashable.
        assert hash(("w", first)) == hash(("w", second))

    def test_depth_and_slice_cursors(self):
        packed = pack_deweys(codes("0", "0.1.2"))
        assert packed.depth(0) == 1 and packed.depth(1) == 3
        assert list(packed.slice(1)) == [0, 1, 2]
        assert [list(s) for s in packed.iter_slices()] == [[0], [0, 1, 2]]

    def test_materialize_is_result_boundary(self):
        original = codes("0", "0.1")
        assert pack_deweys(original).materialize() == tuple(original)


# ---------------------------------------------------------------------- #
# Binary search + galloping
# ---------------------------------------------------------------------- #
class TestSearchPrimitives:
    def test_bisect_left_matches_reference(self):
        rng = random.Random(5)
        components = random_component_lists(rng, 50)
        packed = pack_component_tuples(components, presorted=True)
        for probe in random_component_lists(rng, 25):
            assert packed.bisect_left(probe) == bisect_left(components, probe)

    def test_gallop_left_matches_reference_from_every_start(self):
        rng = random.Random(9)
        components = random_component_lists(rng, 30)
        packed = pack_component_tuples(components, presorted=True)
        for probe in random_component_lists(rng, 10):
            comps = array("I", probe)
            for start in range(len(components)):
                expected = max(start, bisect_left(components, probe))
                assert packed.gallop_left(comps, start) == expected

    def test_common_prefix_len(self):
        assert common_prefix_len((0, 1, 2), (0, 1, 5)) == 2
        assert common_prefix_len((0,), (0, 1)) == 1
        assert common_prefix_len((1,), (2,)) == 0

    def test_deepest_neighbor_prefix_len(self):
        # The Indexed Lookup probe: only the document-order neighbours of a
        # node can give its deepest LCA with the list.
        plist = pack_deweys(codes("0.0.1", "0.2.5", "0.4"))
        for node, depth in (((0, 2, 3), 2), ((0, 9), 1), ((0, 2, 5, 1), 3)):
            comps = array("I", node)
            assert deepest_neighbor_prefix_len(
                comps, plist, plist.bisect_left(comps)) == depth
        with pytest.raises(InvalidDeweyCode):
            deepest_neighbor_prefix_len(array("I", [1]), plist, 3)


# ---------------------------------------------------------------------- #
# Blob codec
# ---------------------------------------------------------------------- #
class TestBlobCodec:
    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            components = random_component_lists(rng, rng.randint(1, 80))
            packed = pack_component_tuples(components, presorted=True)
            rebuilt = PackedDeweyList.from_blob(packed.to_blob())
            assert rebuilt == packed

    def test_round_trip_empty(self):
        assert PackedDeweyList.from_blob(EMPTY_PACKED.to_blob()) == EMPTY_PACKED

    def test_prefix_truncation_shrinks_suffix_column(self):
        # Long shared prefixes: the blob must be much smaller than raw data.
        components = [(0, 1, 2, 3, 4, 5, i) for i in range(100)]
        packed = pack_component_tuples(components, presorted=True)
        blob = packed.to_blob()
        raw_bytes = 4 * len(packed.data)
        assert len(blob) < raw_bytes

    @staticmethod
    def reference_blob(components):
        """The blob format, each shared prefix found one component at a
        time."""
        prefix_lens, suffix_lens = array("H"), array("H")
        suffixes = array("I")
        previous = ()
        for code in components:
            limit = min(len(code), len(previous))
            shared = 0
            while shared < limit and code[shared] == previous[shared]:
                shared += 1
            prefix_lens.append(shared)
            suffix_lens.append(len(code) - shared)
            suffixes.extend(code[shared:])
            previous = code
        counts = array("I", [len(components), len(suffixes)])
        columns = (counts, prefix_lens, suffix_lens, suffixes)
        if sys.byteorder == "big":
            for column in columns:
                column.byteswap()
        return b"PKD1<" + b"".join(column.tobytes() for column in columns)

    @staticmethod
    def shaped_lists(rng):
        """Random sorted lists of the shapes the prefix search must get
        right: depth-1 codes, long shared prefixes, and ancestors followed
        by their descendants."""
        depth_one = {(rng.randint(0, 40),) for _ in range(rng.randint(1, 30))}
        stem = tuple(rng.randint(0, 3) for _ in range(rng.randint(8, 40)))
        long_prefixes = {stem[:rng.randint(1, len(stem))]
                         + tuple(rng.randint(0, 3)
                                 for _ in range(rng.randint(0, 3)))
                         for _ in range(rng.randint(1, 30))}
        chains = set()
        for _ in range(rng.randint(1, 6)):
            code = (0,) + tuple(rng.randint(0, 4)
                                for _ in range(rng.randint(0, 12)))
            chains.update(code[:size] for size in range(1, len(code) + 1))
        mixed = depth_one | long_prefixes | chains
        return [sorted(shape) for shape in
                (depth_one, long_prefixes, chains, mixed)]

    def test_blob_equals_per_component_reference(self):
        rng = random.Random(2009)
        for _ in range(60):
            for components in self.shaped_lists(rng):
                packed = pack_component_tuples(components, presorted=True)
                blob = packed.to_blob()
                assert blob == self.reference_blob(components)
                assert PackedDeweyList.from_blob(blob) == packed
        assert EMPTY_PACKED.to_blob() == self.reference_blob([])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            PackedDeweyList.from_blob(b"NOPE" + b"<" + b"\0" * 16)

    def test_truncated_blob_rejected(self):
        blob = pack_deweys(codes("0.1", "0.2")).to_blob()
        with pytest.raises(ValueError):
            PackedDeweyList.from_blob(blob[:-3])


# ---------------------------------------------------------------------- #
# Merge kernel
# ---------------------------------------------------------------------- #
class TestMatchList:
    def reference_masks(self, lists):
        masks = {}
        for index, components in enumerate(lists):
            for parts in components:
                masks[parts] = masks.get(parts, 0) | (1 << index)
        return sorted(masks.items())

    def test_match_list_masks_and_order(self):
        rng = random.Random(31)
        for _ in range(50):
            lists = [random_component_lists(rng, rng.randint(1, 40))
                     for _ in range(rng.randint(1, 5))]
            packed = [pack_component_tuples(parts, presorted=True)
                      for parts in lists]
            got = [(tuple(comps), mask) for comps, mask in match_list(packed)]
            assert got == self.reference_masks(lists)

    def test_match_list_long_run_against_sparse_list(self):
        # One long run against one sparse list, one of whose nodes is also
        # in the run.  Same reference semantics as the random trials.
        long = [(0, i) for i in range(500)]
        sparse = [(0, 250), (0, 900)]
        packed = [pack_component_tuples(long, presorted=True),
                  pack_component_tuples(sparse, presorted=True)]
        got = [(tuple(comps), mask) for comps, mask in match_list(packed)]
        assert got == self.reference_masks([long, sparse])

    def test_match_list_empty_inputs(self):
        assert match_list([]) == []
        assert match_list([EMPTY_PACKED, EMPTY_PACKED]) == []

    def test_match_list_yields_raw_slices(self):
        packed = pack_component_tuples([(0, 1), (0, 2)], presorted=True)
        matches = match_list([packed, packed])
        assert [mask for _, mask in matches] == [3, 3]
        assert all(type(comps) is array for comps, _ in matches)
