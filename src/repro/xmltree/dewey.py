"""Dewey codes: hierarchical node identifiers for XML trees.

A Dewey code identifies a node by the path of child ordinals from the root,
e.g. ``0.2.0.1`` is the second child of the first child of the third child of
the root ``0``.  Dewey codes are the backbone of the paper's algorithms:

* they are compatible with pre-order document order (lexicographic comparison
  of the component tuples equals pre-order comparison of nodes),
* ancestor/descendant tests are prefix tests,
* the LCA of two nodes is the longest common prefix of their codes.

The class is a ``tuple`` subclass, so codes are dictionary keys, set members
and sort keys throughout the library at C speed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from .errors import InvalidDeweyCode

DeweyLike = Union["DeweyCode", str, Sequence[int]]


class DeweyCode(tuple):
    """An immutable Dewey code: the ``tuple`` of its integer components.

    Parameters
    ----------
    components:
        The integer components of the code, e.g. ``(0, 2, 0, 1)`` for
        ``"0.2.0.1"``.  Every component must be a non-negative integer and the
        sequence must be non-empty.

    Hashing, equality and document order are the tuple's own, so they run in
    C, and a code equals, hashes and orders like the plain tuple of its
    components: a code and its tuple are one dictionary key.  Tuple
    arithmetic answers plain tuples (``code + (1,)``, ``code[:2]``); only
    the string forms are the code's own.
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[int]) -> "DeweyCode":
        parts = tuple(components)
        if not parts:
            raise InvalidDeweyCode("a Dewey code needs at least one component")
        for part in parts:
            if not isinstance(part, int) or isinstance(part, bool):
                raise InvalidDeweyCode(f"Dewey component {part!r} is not an integer")
            if part < 0:
                raise InvalidDeweyCode(f"Dewey component {part!r} is negative")
        return tuple.__new__(cls, parts)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_tuple(cls, parts: Iterable[int]) -> "DeweyCode":
        """Validation-free constructor for components known to be well formed.

        Every derived code (parent, child, ancestor prefix, common prefix,
        a posting's component slice) is built from components that are
        already valid, so the per-component checks of ``__new__`` would only
        re-prove what is already known.  ``parts`` is any iterable of the
        components: a tuple, a list or an ``array('I')`` slice.
        """
        return tuple.__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "DeweyCode":
        """Parse the dotted string form, e.g. ``"0.2.0.1"``."""
        if not isinstance(text, str) or not text:
            raise InvalidDeweyCode(f"cannot parse Dewey code from {text!r}")
        try:
            return cls(int(piece) for piece in text.split("."))
        except ValueError as exc:
            raise InvalidDeweyCode(f"cannot parse Dewey code from {text!r}") from exc

    @classmethod
    def coerce(cls, value: DeweyLike) -> "DeweyCode":
        """Convert a :class:`DeweyCode`, string or int sequence into a code."""
        if isinstance(value, DeweyCode):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    @classmethod
    def root(cls) -> "DeweyCode":
        """The conventional root code ``0``."""
        return cls((0,))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def components(self) -> Tuple[int, ...]:
        """The components as a plain tuple (a copy, ``tuple(code)``)."""
        return tuple(self)

    @property
    def depth(self) -> int:
        """Number of components; the root has depth 1."""
        return len(self)

    @property
    def level(self) -> int:
        """Zero-based tree level (root is level 0)."""
        return len(self) - 1

    @property
    def ordinal(self) -> int:
        """The last component: the index of this node among its siblings."""
        return self[-1]

    def parent(self) -> Optional["DeweyCode"]:
        """The parent code, or ``None`` for the root-level code."""
        if len(self) == 1:
            return None
        return DeweyCode._from_tuple(self[:-1])

    def child(self, ordinal: int) -> "DeweyCode":
        """The code of the ``ordinal``-th child of this node."""
        if not isinstance(ordinal, int) or isinstance(ordinal, bool):
            raise InvalidDeweyCode(f"child ordinal {ordinal!r} is not an integer")
        if ordinal < 0:
            raise InvalidDeweyCode(f"child ordinal {ordinal} is negative")
        return DeweyCode._from_tuple(self + (ordinal,))

    def ancestors(self, include_self: bool = False) -> Iterator["DeweyCode"]:
        """Yield ancestor codes from the root down to the parent (or self)."""
        stop = len(self) if include_self else len(self) - 1
        for size in range(1, stop + 1):
            yield DeweyCode._from_tuple(self[:size])

    # ------------------------------------------------------------------ #
    # Relationships
    # ------------------------------------------------------------------ #
    def is_ancestor_of(self, other: "DeweyCode") -> bool:
        """True iff ``self`` is a strict ancestor of ``other``."""
        return len(self) < len(other) and other[:len(self)] == self

    def is_ancestor_or_self(self, other: "DeweyCode") -> bool:
        """True iff ``self`` is ``other`` or an ancestor of it."""
        return len(self) <= len(other) and other[:len(self)] == self

    def common_prefix(self, other: "DeweyCode") -> "DeweyCode":
        """The Dewey code of the lowest common ancestor of the two nodes.

        Raises :class:`InvalidDeweyCode` if the codes share no prefix (they
        then belong to different trees / different roots).
        """
        limit = min(len(self), len(other))
        shared = 0
        while shared < limit and self[shared] == other[shared]:
            shared += 1
        if not shared:
            raise InvalidDeweyCode(
                f"{self} and {other} share no common prefix (different roots)"
            )
        return DeweyCode._from_tuple(self[:shared])

    def relative_to(self, ancestor: "DeweyCode") -> Tuple[int, ...]:
        """The component suffix of ``self`` below ``ancestor``.

        ``ancestor`` must be ``self`` or one of its ancestors.
        """
        if not ancestor.is_ancestor_or_self(self):
            raise InvalidDeweyCode(f"{ancestor} is not an ancestor of {self}")
        return self[len(ancestor):]

    # ------------------------------------------------------------------ #
    # String forms
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        return ".".join(map(str, self))

    def __repr__(self) -> str:
        return f"DeweyCode({str(self)!r})"


def lca_of_codes(codes: Iterable[DeweyLike]) -> DeweyCode:
    """Lowest common ancestor (longest common prefix) of a set of codes.

    Raises :class:`InvalidDeweyCode` when the iterable is empty.
    """
    iterator = iter(codes)
    try:
        first = DeweyCode.coerce(next(iterator))
    except StopIteration:
        raise InvalidDeweyCode("cannot compute the LCA of zero codes") from None
    result = first
    for raw in iterator:
        result = result.common_prefix(DeweyCode.coerce(raw))
    return result


def sort_document_order(codes: Iterable[DeweyLike]) -> list:
    """Return the codes sorted in pre-order (document) order."""
    return sorted(DeweyCode.coerce(code) for code in codes)
