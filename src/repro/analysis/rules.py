"""The repo-specific rules: seven cross-file invariants, machine-checked.

Each rule is a class with a ``name`` (the pragma/CLI identifier), a one-line
``description`` and a ``check(project)`` generator yielding
:class:`~repro.analysis.diagnostics.Diagnostic` objects.  Rules see the whole
:class:`~repro.analysis.engine.Project` — including the always-loaded anchor
test files — which is what makes the cross-file checks (parity registration,
typed-error coverage) possible.

The rules and what they protect:

``hot-loop-purity``
    The PR 4 packed-representation win (packed/object 0.80–0.91) lives or
    dies on the SLCA/ELCA/RTF hot loops staying object-free.  In the hot
    modules (``lca/``, ``core/rtf.py``, ``core/node_record.py``,
    ``index/packed.py``) this rule flags every :class:`DeweyCode`
    construction (including calls through local aliases such as
    ``from_tuple = DeweyCode._from_tuple``), every ``.components`` access
    inside a loop or comprehension (a code is a ``tuple`` subclass and
    ``components`` copies it into a plain tuple; slice or iterate the code
    itself), and every per-iteration ``.data``/``.offsets`` lookup on a
    loop-invariant name (hoist it: ``data, offsets = plist.data,
    plist.offsets`` before the loop).  Result boundaries, where each result
    node is boxed once, declare themselves with
    ``# lint: allow(hot-loop-purity)``.

``parity-registration``
    Any class in ``src/`` that structurally implements the
    :class:`~repro.index.source.PostingSource` protocol must be registered in
    ``tests/test_backend_parity.py``: named as a key of ``PARITY_SOURCES``
    and mapped to entries of ``BACKENDS``.  Deleting a backend from
    ``BACKENDS`` (or forgetting to register a new source) fails the lint.

``typed-errors``
    Handlers of the service dispatch class (any class in
    ``service/server.py`` defining ``_dispatch``) may only raise
    ``ServiceError`` with an ``ERROR_*`` code defined in
    ``service/protocol.py``; and every wire op the dispatcher answers must
    be exercised by ``tests/test_service_parity.py``.

``sqlite-discipline``
    ``sqlite3.connect`` is called only inside ``src/repro/storage/`` (the
    per-thread-connection layer), and no sqlite ``Connection`` is assigned
    to a ``self.*`` attribute anywhere — an object-held connection shared
    across ``EnginePool`` workers is a cross-thread cursor bug waiting to
    happen.

``bench-honesty``
    A function that writes a ``BENCH_*.json`` artefact must first call one
    of the verification guards (``require_verified_payload``,
    ``_verify_answers``, ``_verify_ranking_equivalence`` or
    ``run_core_bench`` itself) so no fast-but-wrong number is ever
    persisted.

``metrics-discipline``
    Every ``registry.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)``
    call site under ``src/`` must name its metric through a constant of the
    ``src/repro/obs/names.py`` catalogue (``metric_names.QUERY_COUNT``), not
    a free string literal — one module owns the metric vocabulary, so a
    typo'd name fails the lint instead of minting a shadow time series.

``exception-discipline``
    No bare ``except:`` anywhere in ``src/``, and no
    ``except Exception`` / ``except BaseException`` handler that swallows
    the failure (a handler body with no ``raise``).  The self-healing
    stack deliberately swallows at a few sites (retry loops, quarantine,
    the compaction a write triggers, the wire front door) — those declare
    themselves with ``# lint: allow(exception-discipline)`` on the
    ``except`` line.  Everything else either catches the specific
    exception it can handle or re-raises.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .diagnostics import Diagnostic
from .engine import AnalysisError, Project, SourceFile


class Rule:
    """Base class: a named invariant checked over a whole project."""

    name: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, source_file: SourceFile, node: ast.AST,
                   message: str) -> Diagnostic:
        """A finding anchored at ``node`` of ``source_file``."""
        return Diagnostic(
            path=source_file.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )


def _requested_src(project: Project) -> List[SourceFile]:
    """The requested files that belong to the library tree."""
    return [f for f in project.iter_requested()
            if f.relpath.startswith("src/") and f.tree is not None]


def _name_of(node: ast.expr) -> str:
    """A dotted rendering of a Name/Attribute callee (best effort)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_name_of(node.value)}.{node.attr}"
    return type(node).__name__


def _bound_names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every plain name (re)bound anywhere inside ``nodes``."""
    bound: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            targets: Sequence[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = (node.target,)
            elif isinstance(node, ast.NamedExpr):
                targets = (node.target,)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    targets = (node.optional_vars,)
            elif isinstance(node, ast.comprehension):
                targets = (node.target,)
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
    return bound


# ---------------------------------------------------------------------- #
# R1: hot-loop purity
# ---------------------------------------------------------------------- #
class HotLoopPurityRule(Rule):
    """No boxed DeweyCode work inside the packed hot modules."""

    name = "hot-loop-purity"
    description = ("hot modules (lca/, core/rtf.py, core/node_record.py, "
                   "core/contributor.py, core/valid_contributor.py, "
                   "index/packed.py) must not construct DeweyCode, touch "
                   ".components in loops, or re-read hot columns per "
                   "iteration, except at declared result boundaries")

    HOT_PREFIXES = ("src/repro/lca/",)
    HOT_FILES = frozenset({
        "src/repro/core/rtf.py",
        "src/repro/core/node_record.py",
        "src/repro/core/contributor.py",
        "src/repro/core/valid_contributor.py",
        "src/repro/index/packed.py",
    })
    #: Columns of the packed representation that loops must hoist.
    HOT_COLUMNS = frozenset({"data", "offsets"})
    LOOPS = (ast.For, ast.AsyncFor, ast.While)
    COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)

    def _is_hot(self, relpath: str) -> bool:
        return relpath in self.HOT_FILES or \
            any(relpath.startswith(prefix) for prefix in self.HOT_PREFIXES)

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for source_file in project.iter_requested():
            if source_file.tree is None or not self._is_hot(source_file.relpath):
                continue
            yield from self._check_file(source_file)

    def _check_file(self, source_file: SourceFile) -> Iterator[Diagnostic]:
        tree = source_file.tree
        assert tree is not None
        aliases = self._dewey_aliases(tree)
        seen: Set[Tuple[int, int, str]] = set()

        def emit(node: ast.AST, message: str) -> Iterator[Diagnostic]:
            key = (getattr(node, "lineno", 1),
                   getattr(node, "col_offset", 0), message)
            if key not in seen:
                seen.add(key)
                yield self.diagnostic(source_file, node, message)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                flagged = (
                    (isinstance(callee, ast.Name)
                     and (callee.id == "DeweyCode" or callee.id in aliases))
                    or (isinstance(callee, ast.Attribute)
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id == "DeweyCode")
                )
                if flagged:
                    yield from emit(node, (
                        f"DeweyCode materialization via "
                        f"{_name_of(callee)}(...) in a hot module; keep the "
                        f"loop packed or declare a result boundary with "
                        f"'# lint: allow(hot-loop-purity)'"))
            elif isinstance(node, self.LOOPS):
                body = list(node.body) + list(node.orelse)
                bound = _bound_names(body)
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    bound |= {leaf.id for leaf in ast.walk(node.target)
                              if isinstance(leaf, ast.Name)}
                yield from self._check_loop_body(source_file, body, bound,
                                                emit)
            elif isinstance(node, self.COMPREHENSIONS):
                bound = _bound_names(node.generators)
                parts: List[ast.AST] = []
                if isinstance(node, ast.DictComp):
                    parts.extend([node.key, node.value])
                else:
                    parts.append(node.elt)
                for generator in node.generators:
                    parts.extend(generator.ifs)
                yield from self._check_loop_body(source_file, parts, bound,
                                                emit)

    def _check_loop_body(self, source_file: SourceFile,
                         body: Sequence[ast.AST], bound: Set[str],
                         emit) -> Iterator[Diagnostic]:
        for statement in body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "components":
                    yield from emit(node, (
                        ".components tuple access inside a loop in a hot "
                        "module; iterate the packed columns instead or "
                        "declare a result boundary with "
                        "'# lint: allow(hot-loop-purity)'"))
                elif node.attr in self.HOT_COLUMNS and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id not in bound:
                    yield from emit(node, (
                        f"loop-invariant hot-column lookup "
                        f"'{node.value.id}.{node.attr}' inside a loop; "
                        f"hoist it above the loop "
                        f"('{node.attr} = {node.value.id}.{node.attr}')"))

    @staticmethod
    def _dewey_aliases(tree: ast.Module) -> Set[str]:
        """Names bound to DeweyCode or one of its constructors."""
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_dewey = (
                (isinstance(value, ast.Name) and value.id == "DeweyCode")
                or (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "DeweyCode")
            )
            if not is_dewey:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
        return aliases


# ---------------------------------------------------------------------- #
# R2: parity registration
# ---------------------------------------------------------------------- #
class ParityRegistrationRule(Rule):
    """Every PostingSource implementor is wired into the parity suite."""

    name = "parity-registration"
    description = ("every class implementing the PostingSource protocol in "
                   "src/ must be registered in tests/test_backend_parity.py "
                   "(PARITY_SOURCES keys mapped to BACKENDS entries)")

    ANCHOR = "tests/test_backend_parity.py"
    PROTOCOL_MEMBERS = frozenset({
        "source_id", "postings", "keyword_nodes", "frequency",
        "vocabulary", "node_label", "node_cid",
    })

    def check(self, project: Project) -> Iterator[Diagnostic]:
        src_files = _requested_src(project)
        anchor = project.get(self.ANCHOR)
        if not src_files and anchor is None:
            return
        if anchor is None or anchor.tree is None:
            # Point at the first analyzed src file: the anchor is the
            # contract those sources must honour.
            yield Diagnostic(
                path=src_files[0].relpath, line=1, col=0, rule=self.name,
                message=(f"{self.ANCHOR} is missing; PostingSource "
                         f"implementors cannot be cross-checked"))
            return

        backends, backends_node = self._string_collection(anchor.tree,
                                                          "BACKENDS")
        sources, sources_node = self._string_mapping(anchor.tree,
                                                     "PARITY_SOURCES")
        anchor_head = anchor.tree.body[0] if anchor.tree.body else anchor.tree
        if backends is None:
            yield self.diagnostic(anchor, anchor_head,
                                  "BACKENDS tuple not found")
            return
        if sources is None:
            yield self.diagnostic(anchor, anchor_head, (
                "PARITY_SOURCES mapping not found; declare "
                "{implementor class: (backend entries...)} next to BACKENDS"))
            return

        # Claims must be internally consistent with BACKENDS...
        claimed: Set[str] = set()
        for class_name, entries in sources.items():
            claimed.update(entries)
            for entry in entries:
                if entry not in backends:
                    yield self.diagnostic(anchor, sources_node, (
                        f"PARITY_SOURCES[{class_name!r}] claims backend "
                        f"{entry!r} which is not in BACKENDS"))
        for entry in backends:
            if entry not in claimed:
                yield self.diagnostic(anchor, backends_node, (
                    f"backend {entry!r} in BACKENDS is not claimed by any "
                    f"PARITY_SOURCES entry"))

        # ...and the implementor set (only meaningful when src/ was scanned).
        if not src_files:
            return
        registry = self._class_registry(src_files)
        implementors: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}
        for class_name, (source_file, node) in registry.items():
            if self._is_protocol(node):
                continue
            methods = self._resolved_members(class_name, registry, set())
            if self.PROTOCOL_MEMBERS <= methods:
                implementors[class_name] = (source_file, node)
        for class_name, (source_file, node) in sorted(implementors.items()):
            if class_name not in sources:
                yield self.diagnostic(source_file, node, (
                    f"class {class_name} implements PostingSource but is "
                    f"not registered in {self.ANCHOR}::PARITY_SOURCES"))
        scanned_whole_tree = any(f.relpath == "src/repro/index/source.py"
                                 for f in src_files)
        if scanned_whole_tree:
            for class_name in sources:
                if class_name not in implementors:
                    yield self.diagnostic(anchor, sources_node, (
                        f"PARITY_SOURCES names {class_name!r} but no such "
                        f"PostingSource implementor exists in src/"))

    # -- anchor parsing ------------------------------------------------- #
    @staticmethod
    def _string_collection(tree: ast.Module, name: str
                           ) -> Tuple[Optional[List[str]], ast.AST]:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    node.targets[0].id == name and \
                    isinstance(node.value, (ast.Tuple, ast.List)):
                values = [element.value for element in node.value.elts
                          if isinstance(element, ast.Constant)
                          and isinstance(element.value, str)]
                return values, node
        return None, tree

    @staticmethod
    def _string_mapping(tree: ast.Module, name: str
                        ) -> Tuple[Optional[Dict[str, List[str]]], ast.AST]:
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    node.targets[0].id == name and \
                    isinstance(node.value, ast.Dict):
                mapping: Dict[str, List[str]] = {}
                for key, value in zip(node.value.keys, node.value.values):
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        continue
                    entries: List[str] = []
                    if isinstance(value, (ast.Tuple, ast.List)):
                        entries = [element.value for element in value.elts
                                   if isinstance(element, ast.Constant)
                                   and isinstance(element.value, str)]
                    elif isinstance(value, ast.Constant) and \
                            isinstance(value.value, str):
                        entries = [value.value]
                    mapping[key.value] = entries
                return mapping, node
        return None, tree

    # -- implementor detection ------------------------------------------ #
    @staticmethod
    def _is_protocol(node: ast.ClassDef) -> bool:
        return any(_name_of(base).split(".")[-1] == "Protocol"
                   for base in node.bases)

    @staticmethod
    def _class_registry(src_files: Sequence[SourceFile]
                        ) -> Dict[str, Tuple[SourceFile, ast.ClassDef]]:
        registry: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}
        for source_file in src_files:
            assert source_file.tree is not None
            for node in ast.walk(source_file.tree):
                if isinstance(node, ast.ClassDef):
                    registry.setdefault(node.name, (source_file, node))
        return registry

    @classmethod
    def _own_members(cls, node: ast.ClassDef) -> Set[str]:
        members: Set[str] = set()
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        members.add(target.id)
            elif isinstance(statement, ast.AnnAssign) and \
                    isinstance(statement.target, ast.Name):
                members.add(statement.target.id)
        return members

    @classmethod
    def _resolved_members(cls, class_name: str,
                          registry: Dict[str, Tuple[SourceFile, ast.ClassDef]],
                          seen: Set[str]) -> Set[str]:
        if class_name in seen or class_name not in registry:
            return set()
        seen.add(class_name)
        _, node = registry[class_name]
        members = cls._own_members(node)
        for base in node.bases:
            base_name = _name_of(base).split(".")[-1]
            members |= cls._resolved_members(base_name, registry, seen)
        return members


# ---------------------------------------------------------------------- #
# R3: typed-error discipline
# ---------------------------------------------------------------------- #
class TypedErrorsRule(Rule):
    """Service handlers answer only protocol.py error codes; ops are tested."""

    name = "typed-errors"
    description = ("service dispatch classes raise only ServiceError with "
                   "protocol.py ERROR_* codes, and every wire op is "
                   "exercised by tests/test_service_parity.py")

    SERVER = "src/repro/service/server.py"
    PROTOCOL = "src/repro/service/protocol.py"
    ANCHOR = "tests/test_service_parity.py"

    def check(self, project: Project) -> Iterator[Diagnostic]:
        server = project.get(self.SERVER)
        if server is None or server.tree is None or \
                server.relpath not in project.requested:
            return
        allowed = self._allowed_codes(project)
        anchor = project.get(self.ANCHOR)
        mentions = self._mentions(anchor) if anchor is not None else None

        for class_node in ast.walk(server.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            dispatch = next(
                (member for member in class_node.body
                 if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and member.name == "_dispatch"), None)
            if dispatch is None:
                continue
            yield from self._check_raises(server, class_node, allowed)
            yield from self._check_ops(server, dispatch, anchor, mentions)

    def _check_raises(self, server: SourceFile, class_node: ast.ClassDef,
                      allowed: Optional[Set[str]]) -> Iterator[Diagnostic]:
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if not isinstance(node.exc, ast.Call):
                continue  # re-raising a caught instance keeps its code
            callee = node.exc.func
            callee_name = _name_of(callee).split(".")[-1]
            if callee_name != "ServiceError":
                yield self.diagnostic(server, node, (
                    f"handler raises {_name_of(callee)}; service dispatch "
                    f"must raise ServiceError with a protocol.py ERROR_* "
                    f"code so the wire answer stays typed"))
                continue
            if not node.exc.args:
                yield self.diagnostic(server, node,
                                      "ServiceError raised without a code")
                continue
            code = node.exc.args[0]
            if isinstance(code, ast.Constant):
                yield self.diagnostic(server, node, (
                    f"ServiceError raised with literal code "
                    f"{code.value!r}; use the ERROR_* constant from "
                    f"service/protocol.py"))
            elif isinstance(code, ast.Name) and allowed is not None and \
                    code.id not in allowed:
                yield self.diagnostic(server, node, (
                    f"ServiceError code {code.id} is not defined in "
                    f"service/protocol.py"))

    def _check_ops(self, server: SourceFile, dispatch: ast.AST,
                   anchor: Optional[SourceFile],
                   mentions: Optional[Set[str]]) -> Iterator[Diagnostic]:
        ops: Dict[str, ast.AST] = {}
        for node in ast.walk(dispatch):
            if isinstance(node, ast.Compare):
                for comparator in node.comparators:
                    if isinstance(comparator, ast.Constant) and \
                            isinstance(comparator.value, str):
                        ops.setdefault(comparator.value, node)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and len(node.args) == 2:
                key, default = node.args
                if isinstance(key, ast.Constant) and key.value == "op" and \
                        isinstance(default, ast.Constant) and \
                        isinstance(default.value, str):
                    ops.setdefault(default.value, node)
        if anchor is None or mentions is None:
            if ops:
                yield self.diagnostic(server, dispatch, (
                    f"{self.ANCHOR} is missing; wire ops cannot be "
                    f"cross-checked"))
            return
        for op, node in sorted(ops.items()):
            if op not in mentions:
                yield self.diagnostic(server, node, (
                    f"wire op {op!r} has no matching case in {self.ANCHOR}"))

    @staticmethod
    def _mentions(anchor: SourceFile) -> Set[str]:
        """Every string literal and attribute/function name in the tests."""
        mentions: Set[str] = set()
        if anchor.tree is None:
            return mentions
        for node in ast.walk(anchor.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentions.add(node.value)
            elif isinstance(node, ast.Attribute):
                mentions.add(node.attr)
            elif isinstance(node, ast.Name):
                mentions.add(node.id)
        return mentions

    def _allowed_codes(self, project: Project) -> Optional[Set[str]]:
        protocol = project.get(self.PROTOCOL)
        if protocol is None or protocol.tree is None:
            return None
        codes: Set[str] = set()
        for node in protocol.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id.startswith("ERROR_") and \
                            isinstance(node.value, ast.Constant):
                        codes.add(target.id)
        return codes or None


# ---------------------------------------------------------------------- #
# R4: sqlite thread-safety discipline
# ---------------------------------------------------------------------- #
class SqliteDisciplineRule(Rule):
    """Connections open per-thread inside storage/ and are never self-held."""

    name = "sqlite-discipline"
    description = ("sqlite3.connect only inside src/repro/storage/, and no "
                   "Connection stored on a self.* attribute (EnginePool "
                   "workers share those objects across threads)")

    ALLOWED_PREFIX = "src/repro/storage/"

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for source_file in _requested_src(project):
            assert source_file.tree is not None
            module_aliases, function_aliases = self._import_aliases(
                source_file.tree)

            def is_connect(node: ast.AST) -> bool:
                if not isinstance(node, ast.Call):
                    return False
                callee = node.func
                if isinstance(callee, ast.Attribute) and \
                        callee.attr == "connect" and \
                        isinstance(callee.value, ast.Name) and \
                        callee.value.id in module_aliases:
                    return True
                return isinstance(callee, ast.Name) and \
                    callee.id in function_aliases

            for node in ast.walk(source_file.tree):
                if is_connect(node) and not source_file.relpath.startswith(
                        self.ALLOWED_PREFIX):
                    yield self.diagnostic(source_file, node, (
                        "sqlite3.connect outside repro/storage/; go through "
                        "a store class so connections stay per-thread"))
                elif isinstance(node, ast.Assign):
                    stores_connection = any(
                        is_connect(child) for child in ast.walk(node.value))
                    if not stores_connection:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self":
                            yield self.diagnostic(source_file, node, (
                                f"sqlite Connection stored on "
                                f"self.{target.attr}; shared objects cross "
                                f"EnginePool worker threads — keep "
                                f"connections in threading.local storage"))

    @staticmethod
    def _import_aliases(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        module_aliases: Set[str] = set()
        function_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "sqlite3":
                        module_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "sqlite3":
                for alias in node.names:
                    if alias.name == "connect":
                        function_aliases.add(alias.asname or alias.name)
        return module_aliases, function_aliases


# ---------------------------------------------------------------------- #
# R5: bench honesty
# ---------------------------------------------------------------------- #
class BenchHonestyRule(Rule):
    """No BENCH_*.json artefact is written without a verification guard."""

    name = "bench-honesty"
    description = ("functions writing BENCH_*.json artefacts must call a "
                   "result-parity / equivalence guard first")

    GUARDS = frozenset({
        "require_verified_payload",
        "_verify_answers",
        "_verify_ranking_equivalence",
        "run_core_bench",
    })
    WRITER_NAMES = frozenset({"open", "write_json", "write_csv"})
    WRITER_ATTRS = frozenset({"write_text", "write", "dump"})

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for source_file in _requested_src(project):
            assert source_file.tree is not None
            for node in ast.walk(source_file.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if not self._writes_bench_artefact(node):
                    continue
                if not self._calls_guard(node):
                    yield self.diagnostic(source_file, node, (
                        f"function {node.name} writes a BENCH_*.json "
                        f"artefact without calling a verification guard "
                        f"({', '.join(sorted(self.GUARDS))})"))

    @classmethod
    def _writes_bench_artefact(cls, function: ast.AST) -> bool:
        names_artefact = any(
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("BENCH_")
            and node.value.endswith(".json")
            for node in ast.walk(function))
        if not names_artefact:
            return False
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and \
                    callee.id in cls.WRITER_NAMES:
                return True
            if isinstance(callee, ast.Attribute) and \
                    callee.attr in cls.WRITER_ATTRS:
                return True
        return False

    @classmethod
    def _calls_guard(cls, function: ast.AST) -> bool:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                callee_name = _name_of(node.func).split(".")[-1]
                if callee_name in cls.GUARDS:
                    return True
        return False


# ---------------------------------------------------------------------- #
# R6: metrics naming discipline
# ---------------------------------------------------------------------- #
class MetricsDisciplineRule(Rule):
    """Metric names come from the obs/names.py catalogue, never free strings."""

    name = "metrics-discipline"
    description = ("registry.counter/gauge/histogram call sites in src/ must "
                   "name their metric via a constant of "
                   "src/repro/obs/names.py, not a string literal")

    CATALOGUE_FILE = "src/repro/obs/names.py"
    #: The registry's accessor methods whose first argument is a metric name.
    ACCESSORS = frozenset({"counter", "gauge", "histogram"})
    #: The catalogue module itself (and the registry that validates against
    #: it) may hold the raw strings.
    EXEMPT_PREFIX = "src/repro/obs/"

    def check(self, project: Project) -> Iterator[Diagnostic]:
        constants = self._catalogue_constants(project)
        for source_file in _requested_src(project):
            if source_file.relpath.startswith(self.EXEMPT_PREFIX):
                continue
            assert source_file.tree is not None
            for node in ast.walk(source_file.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if not (isinstance(callee, ast.Attribute)
                        and callee.attr in self.ACCESSORS):
                    continue
                if not node.args:
                    yield self.diagnostic(source_file, node, (
                        f"metric accessor .{callee.attr}() called without a "
                        f"metric name"))
                    continue
                argument = node.args[0]
                if constants is None:
                    yield self.diagnostic(source_file, node, (
                        f"{self.CATALOGUE_FILE} is missing or unparsable; "
                        f"metric names cannot be checked against the "
                        f"catalogue"))
                    return
                yield from self._check_argument(source_file, node, callee,
                                                argument, constants)

    def _check_argument(self, source_file: SourceFile, node: ast.Call,
                        callee: ast.Attribute, argument: ast.expr,
                        constants: Set[str]) -> Iterator[Diagnostic]:
        if isinstance(argument, ast.Constant) and \
                isinstance(argument.value, str):
            yield self.diagnostic(source_file, node, (
                f"free-string metric name {argument.value!r} passed to "
                f".{callee.attr}(); register it in {self.CATALOGUE_FILE} "
                f"and reference the constant"))
        elif not self._resolves_to_constant(argument, constants):
            yield self.diagnostic(source_file, node, (
                f"metric name argument {_name_of(argument)!r} of "
                f".{callee.attr}() does not reference a "
                f"{self.CATALOGUE_FILE} constant"))

    @classmethod
    def _resolves_to_constant(cls, argument: ast.expr,
                              constants: Set[str]) -> bool:
        """Does this expression name a catalogue constant (both arms of a
        conditional must)?"""
        if isinstance(argument, ast.Name):
            return argument.id in constants
        if isinstance(argument, ast.Attribute):
            return argument.attr in constants
        if isinstance(argument, ast.IfExp):
            return cls._resolves_to_constant(argument.body, constants) and \
                cls._resolves_to_constant(argument.orelse, constants)
        return False

    def _catalogue_constants(self, project: Project) -> Optional[Set[str]]:
        catalogue = project.get(self.CATALOGUE_FILE)
        if catalogue is None or catalogue.tree is None:
            return None
        constants: Set[str] = set()
        for node in catalogue.tree.body:
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Constant) and \
                    isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        constants.add(target.id)
        return constants or None


# ---------------------------------------------------------------------- #
# R7: exception discipline
# ---------------------------------------------------------------------- #
class ExceptionDisciplineRule(Rule):
    """No bare excepts; broad catches must re-raise or declare themselves."""

    name = "exception-discipline"
    description = ("no bare 'except:' in src/, and 'except Exception' / "
                   "'except BaseException' handlers must re-raise or carry "
                   "'# lint: allow(exception-discipline)' — silent broad "
                   "swallows hide exactly the failures the fault-injection "
                   "harness exists to surface")

    BROAD_NAMES = frozenset({"Exception", "BaseException"})

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for source_file in _requested_src(project):
            assert source_file.tree is not None
            for node in ast.walk(source_file.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.diagnostic(source_file, node, (
                        "bare 'except:' catches SystemExit and "
                        "KeyboardInterrupt too; name the exception(s) this "
                        "handler can actually recover from"))
                    continue
                broad = self._broad_name(node.type)
                if broad is None:
                    continue
                if self._reraises(node):
                    continue
                yield self.diagnostic(source_file, node, (
                    f"'except {broad}' swallows every failure (no raise in "
                    f"the handler body); catch the specific exception, "
                    f"re-raise, or declare the swallow with "
                    f"'# lint: allow(exception-discipline)'"))

    @classmethod
    def _broad_name(cls, expression: ast.expr) -> Optional[str]:
        """The broad class name this except clause catches, or ``None``."""
        candidates: Iterable[ast.expr]
        if isinstance(expression, ast.Tuple):
            candidates = expression.elts
        else:
            candidates = (expression,)
        for candidate in candidates:
            name = _name_of(candidate).split(".")[-1]
            if name in cls.BROAD_NAMES:
                return name
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """Does any statement of the handler body raise?"""
        return any(isinstance(node, ast.Raise)
                   for statement in handler.body
                   for node in ast.walk(statement))


RULES: Tuple[Rule, ...] = (
    HotLoopPurityRule(),
    ParityRegistrationRule(),
    TypedErrorsRule(),
    SqliteDisciplineRule(),
    BenchHonestyRule(),
    MetricsDisciplineRule(),
    ExceptionDisciplineRule(),
)

_RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in RULES}


def rule_names() -> List[str]:
    """Every registered rule name, sorted."""
    return sorted(_RULES_BY_NAME)


def get_rule(name: str) -> Rule:
    """The registered rule called ``name`` (raises on unknown names)."""
    try:
        return _RULES_BY_NAME[name]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {name!r}; known: {', '.join(rule_names())}"
        ) from None
