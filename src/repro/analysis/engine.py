"""Project loading and rule execution.

A :class:`Project` is the unit of analysis: the set of parsed
:class:`SourceFile` objects the rules see.  Cross-file rules (parity
registration, typed errors) need files beyond those named on the command
line — the *anchor* files ``tests/test_backend_parity.py`` and
``tests/test_service_parity.py`` — so the project always loads them from the
repo root when they exist, even when the user only asked for ``src/``.

The repo root is found by walking upwards from the first analyzed path until
a directory containing ``pyproject.toml`` appears; rules use it to express
paths relative to the repo (``src/repro/lca/stack_slca.py``) no matter where
the linter is invoked from.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .diagnostics import Diagnostic
from .pragmas import PragmaIndex, parse_pragmas


class AnalysisError(Exception):
    """Raised when the analysis cannot run (unreadable path, bad rule name)."""


# Cross-file rules consult these files even when they are outside the
# requested paths; missing anchors are reported by the rules themselves.
ANCHOR_FILES = (
    "tests/test_backend_parity.py",
    "tests/test_service_parity.py",
    # The metric-name catalogue metrics-discipline validates against.
    "src/repro/obs/names.py",
)


class SourceFile:
    """One parsed python file: path, source text, AST, and pragma index."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.syntax_error = exc
        self.pragmas: PragmaIndex = parse_pragmas(source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceFile({self.relpath!r})"


class Project:
    """All files under analysis plus the anchors cross-file rules need."""

    def __init__(self, root: Path, files: Sequence[SourceFile],
                 requested: Sequence[str]) -> None:
        self.root = root
        self.files = list(files)
        self.requested = list(requested)
        self._by_relpath: Dict[str, SourceFile] = {
            f.relpath: f for f in self.files
        }

    def get(self, relpath: str) -> Optional[SourceFile]:
        """The file at repo-relative ``relpath``, if loaded."""
        return self._by_relpath.get(relpath)

    def iter_requested(self) -> Iterable[SourceFile]:
        """Only the files named on the command line (not anchors)."""
        for f in self.files:
            if f.relpath in self.requested:
                yield f


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` containing ``pyproject.toml``."""
    probe = start if start.is_dir() else start.parent
    probe = probe.resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def _collect_py_files(paths: Sequence[Path]) -> List[Path]:
    collected: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            found = sorted(path.rglob("*.py"))
        elif path.is_file() and path.suffix == ".py":
            found = [path]
        elif path.exists():
            found = []
        else:
            raise AnalysisError(f"no such path: {path}")
        for f in found:
            resolved = f.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(resolved)
    return collected


def load_project(paths: Sequence[str], root: Optional[Path] = None) -> Project:
    """Load and parse every ``.py`` file under ``paths`` plus the anchors."""
    if not paths:
        raise AnalysisError("no paths given")
    path_objects = [Path(p) for p in paths]
    repo_root = (root or find_repo_root(path_objects[0])).resolve()

    def relpath_of(path: Path) -> str:
        try:
            return path.resolve().relative_to(repo_root).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    files: List[SourceFile] = []
    requested: List[str] = []
    loaded = set()
    for path in _collect_py_files(path_objects):
        rel = relpath_of(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        files.append(SourceFile(path, rel, source))
        requested.append(rel)
        loaded.add(rel)
    for anchor in ANCHOR_FILES:
        if anchor in loaded:
            continue
        anchor_path = repo_root / anchor
        if anchor_path.is_file():
            source = anchor_path.read_text(encoding="utf-8")
            files.append(SourceFile(anchor_path, anchor, source))
    return Project(repo_root, files, requested)


def run_analysis(paths: Sequence[str],
                 rules: Optional[Sequence[str]] = None,
                 root: Optional[Path] = None) -> List[Diagnostic]:
    """Run ``rules`` (default: all) over ``paths``; pragma-filtered findings,
    plus an ``unused-pragma`` finding for each pragma that suppressed
    nothing."""
    from .rules import RULES, get_rule

    project = load_project(paths, root=root)
    active = [get_rule(name) for name in rules] if rules else list(RULES)

    diagnostics: List[Diagnostic] = []
    for f in project.iter_requested():
        if f.syntax_error is not None:
            diagnostics.append(Diagnostic(
                path=f.relpath,
                line=f.syntax_error.lineno or 1,
                col=(f.syntax_error.offset or 1) - 1,
                rule="syntax",
                message=f"syntax error: {f.syntax_error.msg}",
            ))
    for rule in active:
        for diagnostic in rule.check(project):
            source_file = project.get(diagnostic.path)
            if source_file is not None and source_file.pragmas.allows(
                    diagnostic.line, diagnostic.rule):
                continue
            diagnostics.append(diagnostic)
    ran = {rule.name for rule in active}
    diagnostics.extend(_unused_pragmas(project, ran, len(ran) == len(RULES)))
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics


def _unused_pragmas(project: Project, ran: Set[str],
                    every_rule_ran: bool) -> List[Diagnostic]:
    """One ``unused-pragma`` finding per rule name a requested file's
    pragma gives that suppressed none of that rule's findings.

    Only the rules in ``ran`` are judged (``--rule X`` judges only the
    pragmas naming X), and ``*`` only when every rule ran.
    """
    found: List[Diagnostic] = []
    for f in project.iter_requested():
        if f.syntax_error is not None:
            continue
        for pragma, name in f.pragmas.unused(ran, every_rule_ran):
            found.append(Diagnostic(
                path=f.relpath, line=pragma.line, col=0,
                rule="unused-pragma",
                message=f"'# lint: {pragma.kind}({name})' suppresses no "
                        f"{'finding' if name == '*' else name + ' finding'}; "
                        f"remove it"))
    return found
