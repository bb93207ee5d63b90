"""Unit and property tests for Dewey codes."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.xmltree import DeweyCode, InvalidDeweyCode, lca_of_codes, sort_document_order

components = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


class TestConstruction:
    def test_parse_round_trip(self):
        code = DeweyCode.parse("0.2.0.1")
        assert code.components == (0, 2, 0, 1)
        assert str(code) == "0.2.0.1"

    def test_coerce_accepts_all_forms(self):
        assert DeweyCode.coerce("0.1") == DeweyCode((0, 1))
        assert DeweyCode.coerce([0, 1]) == DeweyCode((0, 1))
        code = DeweyCode((0, 1))
        assert DeweyCode.coerce(code) is code

    def test_root_is_zero(self):
        assert DeweyCode.root() == DeweyCode.parse("0")

    def test_empty_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode(())

    def test_negative_component_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode((0, -1))

    def test_non_integer_component_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode((0, "1"))  # type: ignore[arg-type]

    def test_boolean_component_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode((0, True))

    def test_parse_garbage_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode.parse("0.x.1")
        with pytest.raises(InvalidDeweyCode):
            DeweyCode.parse("")


class TestNavigation:
    def test_parent_and_child(self):
        code = DeweyCode.parse("0.2.1")
        assert code.parent() == DeweyCode.parse("0.2")
        assert code.child(3) == DeweyCode.parse("0.2.1.3")
        assert DeweyCode.root().parent() is None

    def test_child_rejects_negative_ordinal(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode.root().child(-1)

    def test_depth_level_ordinal(self):
        code = DeweyCode.parse("0.2.1")
        assert code.depth == 3
        assert code.level == 2
        assert code.ordinal == 1

    def test_ancestors_top_down(self):
        code = DeweyCode.parse("0.2.1")
        assert [str(a) for a in code.ancestors()] == ["0", "0.2"]
        assert [str(a) for a in code.ancestors(include_self=True)] == \
            ["0", "0.2", "0.2.1"]

    def test_ancestors_bottom_up(self):
        code = DeweyCode.parse("0.2.1")
        assert [str(a) for a in code.ancestors_bottom_up()] == ["0.2", "0"]
        assert [str(a) for a in code.ancestors_bottom_up(include_self=True)] == \
            ["0.2.1", "0.2", "0"]


class TestRelationships:
    def test_ancestor_descendant(self):
        top = DeweyCode.parse("0.2")
        bottom = DeweyCode.parse("0.2.1.0")
        assert top.is_ancestor_of(bottom)
        assert bottom.is_descendant_of(top)
        assert not top.is_ancestor_of(top)
        assert top.is_ancestor_or_self(top)

    def test_sibling(self):
        assert DeweyCode.parse("0.1").is_sibling_of(DeweyCode.parse("0.2"))
        assert not DeweyCode.parse("0.1").is_sibling_of(DeweyCode.parse("0.1"))
        assert not DeweyCode.parse("0.1").is_sibling_of(DeweyCode.parse("0.1.0"))

    def test_common_prefix(self):
        left = DeweyCode.parse("0.2.0.3")
        right = DeweyCode.parse("0.2.1")
        assert left.common_prefix(right) == DeweyCode.parse("0.2")

    def test_common_prefix_requires_same_root(self):
        with pytest.raises(InvalidDeweyCode):
            DeweyCode.parse("0.1").common_prefix(DeweyCode.parse("1.1"))

    def test_relative_to(self):
        code = DeweyCode.parse("0.2.1.4")
        assert code.relative_to(DeweyCode.parse("0.2")) == (1, 4)
        with pytest.raises(InvalidDeweyCode):
            code.relative_to(DeweyCode.parse("0.3"))

    def test_ordering_is_document_order(self):
        codes = ["0.2.1", "0", "0.2", "0.10", "0.2.0.5"]
        ordered = [str(code) for code in sort_document_order(codes)]
        assert ordered == ["0", "0.2", "0.2.0.5", "0.2.1", "0.10"]


class TestLcaOfCodes:
    def test_basic(self):
        lca = lca_of_codes(["0.2.0.3.0", "0.2.0.1", "0.2.0.2"])
        assert lca == DeweyCode.parse("0.2.0")

    def test_single(self):
        assert lca_of_codes(["0.5"]) == DeweyCode.parse("0.5")

    def test_empty_rejected(self):
        with pytest.raises(InvalidDeweyCode):
            lca_of_codes([])


class TestProperties:
    @given(components)
    def test_string_round_trip(self, parts):
        code = DeweyCode(parts)
        assert str(code) == ".".join(str(part) for part in parts)
        parsed = DeweyCode.parse(str(code))
        assert type(parsed) is DeweyCode and parsed == code

    @given(components, components)
    def test_lca_is_common_ancestor(self, left_parts, right_parts):
        left = DeweyCode([0] + left_parts)
        right = DeweyCode([0] + right_parts)
        lca = left.common_prefix(right)
        assert lca.is_ancestor_or_self(left)
        assert lca.is_ancestor_or_self(right)

    @given(components, components)
    def test_lca_is_deepest_common_ancestor(self, left_parts, right_parts):
        left = DeweyCode([0] + left_parts)
        right = DeweyCode([0] + right_parts)
        lca = left.common_prefix(right)
        # Any deeper node on the path to `left` is no longer an ancestor of
        # `right`.
        if lca != left:
            deeper = DeweyCode(left.components[: len(lca) + 1])
            assert not deeper.is_ancestor_or_self(right)

    @given(components, components)
    def test_ancestor_implies_order(self, left_parts, right_parts):
        left = DeweyCode([0] + left_parts)
        right = DeweyCode([0] + right_parts)
        if left.is_ancestor_of(right):
            assert left < right

    @given(components)
    def test_hashable_and_equal(self, parts):
        assert hash(DeweyCode(parts)) == hash(DeweyCode(tuple(parts)))
        assert DeweyCode(parts) == DeweyCode(tuple(parts))
        # A code equals and hashes like its plain tuple: one dictionary key.
        plain = tuple(parts)
        code = DeweyCode(parts)
        assert code == plain and hash(code) == hash(plain)
        assert type(code.components) is tuple and code.components == plain
        boxed = DeweyCode._from_tuple(array("I", plain))
        assert type(boxed) is DeweyCode and boxed == code
        # Tuple arithmetic answers plain tuples.
        assert type(code + (1,)) is tuple and type(code[:1]) is tuple

    @given(st.lists(components, max_size=12))
    def test_sorting_codes_is_sorting_their_tuples(self, many):
        codes = sorted(DeweyCode(parts) for parts in many)
        assert all(type(code) is DeweyCode for code in codes)
        assert [tuple(code) for code in codes] == \
            sorted(tuple(parts) for parts in many)
