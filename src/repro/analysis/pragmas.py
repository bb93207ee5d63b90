"""Suppression pragmas: per-line and per-file rule allowlists.

Syntax (inside a regular ``#`` comment)::

    x = DeweyCode(...)  # lint: allow(hot-loop-purity) result boundary
    # lint: allow(rule-a, rule-b)   <- alone on a line: applies to the NEXT line
    # lint: allow-file(sqlite-discipline)

``allow(*)`` suppresses every rule on that line.  Trailing free text after
the closing parenthesis is encouraged — it is the human justification for
the declared exception.

A pragma that suppresses nothing is itself a finding (``unused-pragma``,
reported by the engine), so no suppression outlives the code it excused.

Comments are found with :mod:`tokenize` so pragma-looking text inside string
literals never suppresses anything; files that fail to tokenize (the engine
only analyzes files that parse, so this is rare) fall back to a conservative
line scan.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Set, Tuple

_PRAGMA = re.compile(r"#\s*lint:\s*(allow|allow-file)\(([^)]*)\)")


@dataclass
class Pragma:
    """One ``allow`` / ``allow-file`` comment and the rules it has suppressed."""

    line: int
    kind: str
    rules: FrozenSet[str]
    standalone: bool
    used: Set[str] = field(default_factory=set)

    def covers(self, line: int, rule: str) -> bool:
        """True when this pragma suppresses ``rule`` at ``line``."""
        if rule not in self.rules and "*" not in self.rules:
            return False
        if self.kind == "allow-file":
            return True
        # A pragma comment alone on its line covers the next line too, so
        # multi-line statements can carry the pragma above them.
        return line == self.line or (self.standalone and line == self.line + 1)


@dataclass
class PragmaIndex:
    """Every pragma of one file, and which rules each has suppressed."""

    pragmas: List[Pragma] = field(default_factory=list)

    def allows(self, line: int, rule: str) -> bool:
        """True when ``rule`` is suppressed at ``line``; every pragma that
        suppresses it is marked as used for ``rule``."""
        allowed = False
        for pragma in self.pragmas:
            if pragma.covers(line, rule):
                pragma.used.add(rule)
                allowed = True
        return allowed

    def unused(self, ran: Set[str], every_rule_ran: bool
               ) -> Iterator[Tuple[Pragma, str]]:
        """``(pragma, name)`` for each rule name a pragma gives that
        suppressed nothing: a named rule among ``ran`` with none of its
        findings suppressed, or ``*`` with no finding at all suppressed,
        judged only when ``every_rule_ran``."""
        for pragma in self.pragmas:
            for name in sorted(pragma.rules):
                if name == "*":
                    if every_rule_ran and not pragma.used:
                        yield pragma, name
                elif name in ran and name not in pragma.used:
                    yield pragma, name

    def _add(self, kind: str, names: Set[str], line: int,
             standalone: bool) -> None:
        self.pragmas.append(Pragma(line, kind, frozenset(names), standalone))


def _parse_comment(text: str) -> Tuple[str, Set[str]]:
    """``(kind, rule names)`` of one comment, or ``("", set())``."""
    match = _PRAGMA.search(text)
    if not match:
        return "", set()
    names = {name.strip() for name in match.group(2).split(",") if name.strip()}
    return match.group(1), names


def parse_pragmas(source: str) -> PragmaIndex:
    """Extract every pragma of one file's source text."""
    index = PragmaIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, ValueError, IndentationError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            kind, names = _parse_comment(line)
            if names:
                index._add(kind, names, lineno,
                           standalone=line.lstrip().startswith("#"))
        return index
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        kind, names = _parse_comment(token.string)
        if not names:
            continue
        standalone = token.line.lstrip().startswith("#")
        index._add(kind, names, token.start[0], standalone)
    return index
