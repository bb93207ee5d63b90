"""The static-analysis gate: per-rule fixtures, pragmas, and the real tree.

Every rule is exercised three ways — a failing fixture, a passing fixture,
and a pragma-suppressed fixture — on throwaway mini-projects under
``tmp_path``, so the rule logic is pinned independently of the repo's own
code.  The acceptance checks then run the rules against the *real* tree:
the tree itself must be clean, and the two canonical regressions (deleting
a ``BACKENDS`` entry, adding a boxed ``DeweyCode(...)`` construction to an
LCA hot loop) must fail the lint.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Diagnostic,
    format_diagnostics,
    get_rule,
    rule_names,
    run_analysis,
)
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import ParityRegistrationRule

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# Harness
# ---------------------------------------------------------------------- #
def lint(tmp_path, files, paths=("src",), rules=None):
    """Run the analysis over a throwaway mini-project."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    for relpath, content in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return run_analysis([str(tmp_path / p) for p in paths],
                        rules=rules, root=tmp_path)


def rules_of(diagnostics):
    return sorted({d.rule for d in diagnostics})


#: A minimal parity anchor that satisfies the registration rule.
PARITY_ANCHOR = """
    BACKENDS = ("memory", "memory-object")
    PARITY_SOURCES = {
        "MiniSource": ("memory", "memory-object"),
    }
"""

#: A source class that structurally implements PostingSource.
MINI_SOURCE = """
    class MiniSource:
        source_id = "memory"

        def keyword_nodes(self, keywords):
            return {}

        def impact(self, keyword):
            return None

        def vocabulary(self):
            return []

        def node_label(self, dewey):
            return None

        def node_cid(self, dewey):
            return ("", "")
"""


# ---------------------------------------------------------------------- #
# Pragmas
# ---------------------------------------------------------------------- #
class TestPragmas:
    def test_same_line_allow(self):
        index = parse_pragmas("x = 1  # lint: allow(some-rule)\n")
        assert index.allows(1, "some-rule")
        assert not index.allows(1, "other-rule")
        assert not index.allows(2, "some-rule")

    def test_standalone_comment_covers_next_line(self):
        index = parse_pragmas("# lint: allow(some-rule)\nx = 1\n")
        assert index.allows(1, "some-rule")
        assert index.allows(2, "some-rule")

    def test_multiple_rules_and_wildcard(self):
        index = parse_pragmas("x = 1  # lint: allow(rule-a, rule-b)\n"
                              "y = 2  # lint: allow(*)\n")
        assert index.allows(1, "rule-a")
        assert index.allows(1, "rule-b")
        assert index.allows(2, "anything-at-all")

    def test_file_level_allow(self):
        index = parse_pragmas("# lint: allow-file(noisy-rule)\n"
                              "x = 1\n" * 5)
        assert index.allows(1, "noisy-rule")
        assert index.allows(99, "noisy-rule")
        assert not index.allows(1, "other-rule")

    def test_pragma_inside_string_does_not_count(self):
        index = parse_pragmas('x = "# lint: allow(some-rule)"\n')
        assert not index.allows(1, "some-rule")


class TestUnusedPragmas:
    """A pragma that suppresses nothing is an ``unused-pragma`` finding."""

    #: The old ``build_rtfs`` loop with its per-root pragma put back: the
    #: line reads a tuple length, which the rule never flagged.
    STALE_RTF = """
        def build(sorted_lcas, assigned, masks):
            for root, keyword_codes, keyword_masks in zip(sorted_lcas,
                                                          assigned, masks):
                root_depth = len(root)  # lint: allow(hot-loop-purity) per-root, not per-node
                yield root_depth, keyword_codes, keyword_masks
    """

    #: A boxed code in a hot loop, the finding its pragmas suppress.
    BOXED = """
        from repro.xmltree import DeweyCode

        def box(slices):
            out = []
            for comps in slices:
                {pragma_above}
                out.append(DeweyCode._from_tuple(comps)){pragma_inline}
            return out
    """

    def boxed(self, above="", inline=""):
        return self.BOXED.format(pragma_above=above, pragma_inline=inline)

    @staticmethod
    def unused(diagnostics):
        """The ``unused-pragma`` findings as ``(path, line)`` pairs (a run of
        every rule also reports the mini-project's missing anchors)."""
        return sorted((d.path, d.line) for d in diagnostics
                      if d.rule == "unused-pragma")

    def test_stale_pragma_on_rtf_fails(self, tmp_path):
        files = {"src/repro/core/rtf.py": self.STALE_RTF}
        diagnostics = lint(tmp_path, files, rules=["hot-loop-purity"])
        assert [(d.rule, d.line) for d in diagnostics] == \
            [("unused-pragma", 5)]
        assert "allow(hot-loop-purity)" in diagnostics[0].message
        assert self.unused(lint(tmp_path, files)) == \
            [("src/repro/core/rtf.py", 5)]
        from repro.analysis.__main__ import main
        assert main(["--rule", "hot-loop-purity",
                     str(tmp_path / "src")]) == 1

    def test_used_pragma_passes(self, tmp_path):
        files = {"src/repro/lca/box.py": self.boxed(
            inline="  # lint: allow(hot-loop-purity) result boundary")}
        assert lint(tmp_path, files, rules=["hot-loop-purity"]) == []
        assert self.unused(lint(tmp_path, files)) == []

    def test_standalone_pragma_covers_the_next_line(self, tmp_path):
        files = {"src/repro/lca/box.py": self.boxed(
            above="# lint: allow(hot-loop-purity) result boundary")}
        assert lint(tmp_path, files, rules=["hot-loop-purity"]) == []
        assert self.unused(lint(tmp_path, files)) == []

    def test_rule_filter_judges_only_its_own_pragmas(self, tmp_path):
        # Under --rule hot-loop-purity neither the second name of a shared
        # pragma nor a wildcard is judged; a run of every rule judges both.
        files = {
            "src/repro/lca/box.py": self.boxed(
                inline="  # lint: allow(hot-loop-purity, sqlite-discipline)"),
            "src/repro/util.py": "x = 1  # lint: allow(*)\n",
        }
        assert lint(tmp_path, files, rules=["hot-loop-purity"]) == []
        everything = [d for d in lint(tmp_path, files)
                      if d.rule == "unused-pragma"]
        assert sorted((d.path, d.message) for d in everything) == [
            ("src/repro/lca/box.py",
             "'# lint: allow(sqlite-discipline)' suppresses no "
             "sqlite-discipline finding; remove it"),
            ("src/repro/util.py",
             "'# lint: allow(*)' suppresses no finding; remove it"),
        ]

    def test_another_rules_pragma_is_not_judged_by_a_filtered_run(
            self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/box.py": self.boxed(
                inline="  # lint: allow(hot-loop-purity) result boundary"),
            "src/repro/util.py":
                "x = 1  # lint: allow(sqlite-discipline) stale\n",
        }, rules=["hot-loop-purity"])
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# Engine / CLI surface
# ---------------------------------------------------------------------- #
class TestEngine:
    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError):
            get_rule("no-such-rule")

    def test_registry_lists_the_seven_rules(self):
        assert rule_names() == [
            "bench-honesty", "exception-discipline", "hot-loop-purity",
            "metrics-discipline", "parity-registration", "sqlite-discipline",
            "typed-errors",
        ]

    def test_missing_path_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        with pytest.raises(AnalysisError):
            run_analysis([str(tmp_path / "nowhere")], root=tmp_path)

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/broken.py": "def f(:\n",
        })
        assert [d.rule for d in diagnostics] == ["syntax"]

    def test_diagnostics_render_path_line_col_rule(self):
        diagnostic = Diagnostic(path="src/x.py", line=3, col=4,
                                rule="some-rule", message="boom")
        assert diagnostic.render() == "src/x.py:3:4: some-rule: boom"
        assert "src/x.py:3:4" in format_diagnostics([diagnostic])


# ---------------------------------------------------------------------- #
# R1: hot-loop purity
# ---------------------------------------------------------------------- #
class TestHotLoopPurity:
    def test_dewey_construction_in_hot_module_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def decode(components_list):
                    return [DeweyCode(c) for c in components_list]
            """,
        }, rules=["hot-loop-purity"])
        assert rules_of(diagnostics) == ["hot-loop-purity"]
        assert "DeweyCode materialization" in diagnostics[0].message

    @pytest.mark.parametrize("pruner", ["contributor", "valid_contributor"])
    def test_dewey_construction_in_pruner_loop_fails(self, tmp_path, pruner):
        diagnostics = lint(tmp_path, {
            f"src/repro/core/{pruner}.py": """
                def kept_codes(records, kept):
                    for position in kept:
                        yield DeweyCode(records.fragment.nodes[position])
            """,
        }, rules=["hot-loop-purity"])
        assert rules_of(diagnostics) == ["hot-loop-purity"]
        assert "DeweyCode materialization" in diagnostics[0].message

    def test_constructor_alias_is_caught(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                from_tuple = DeweyCode._from_tuple

                def decode(components_list):
                    return [from_tuple(c) for c in components_list]
            """,
        }, rules=["hot-loop-purity"])
        assert rules_of(diagnostics) == ["hot-loop-purity"]

    def test_components_access_in_loop_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def depths(codes):
                    total = 0
                    for code in codes:
                        total += len(code.components)
                    return total
            """,
        }, rules=["hot-loop-purity"])
        assert any(".components" in d.message for d in diagnostics)

    def test_loop_invariant_column_lookup_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def scan(plist, n):
                    total = 0
                    for i in range(n):
                        total += plist.data[i]
                    return total
            """,
        }, rules=["hot-loop-purity"])
        assert any("hoist" in d.message for d in diagnostics)

    def test_hoisted_columns_pass(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def scan(plist):
                    data, offsets = plist.data, plist.offsets
                    total = 0
                    for i in range(len(offsets) - 1):
                        total += data[offsets[i]]
                    return total
            """,
        }, rules=["hot-loop-purity"])
        assert diagnostics == []

    def test_loop_variable_column_access_passes(self, tmp_path):
        # `plist` is the loop variable: `.data` is NOT loop-invariant.
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def sizes(plists):
                    return [len(plist.data) for plist in plists]
            """,
        }, rules=["hot-loop-purity"])
        assert diagnostics == []

    def test_cold_module_is_not_checked(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/bench/report.py": """
                def decode(components_list):
                    return [DeweyCode(c) for c in components_list]
            """,
        }, rules=["hot-loop-purity"])
        assert diagnostics == []

    def test_pragma_declares_a_result_boundary(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/lca/algo.py": """
                def decode(components_list):
                    # lint: allow(hot-loop-purity) result boundary
                    return [DeweyCode(c) for c in components_list]
            """,
        }, rules=["hot-loop-purity"])
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# R2: parity registration
# ---------------------------------------------------------------------- #
class TestParityRegistration:
    def test_registered_implementor_passes(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": PARITY_ANCHOR,
            "src/repro/index/mini.py": MINI_SOURCE,
        }, rules=["parity-registration"])
        assert diagnostics == []

    def test_unregistered_implementor_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": """
                BACKENDS = ("memory",)
                PARITY_SOURCES = {"Ghost": ("memory",)}
            """,
            "src/repro/index/mini.py": MINI_SOURCE,
        }, rules=["parity-registration"])
        assert any("MiniSource" in d.message and "not registered" in d.message
                   for d in diagnostics)

    def test_deleting_a_backend_entry_fails(self, tmp_path):
        # The acceptance regression: drop "memory-object" from BACKENDS
        # while PARITY_SOURCES still claims it.
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": """
                BACKENDS = ("memory",)
                PARITY_SOURCES = {
                    "MiniSource": ("memory", "memory-object"),
                }
            """,
            "src/repro/index/mini.py": MINI_SOURCE,
        }, rules=["parity-registration"])
        assert any("not in BACKENDS" in d.message for d in diagnostics)

    def test_unclaimed_backend_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": """
                BACKENDS = ("memory", "orphan")
                PARITY_SOURCES = {"MiniSource": ("memory",)}
            """,
            "src/repro/index/mini.py": MINI_SOURCE,
        }, rules=["parity-registration"])
        assert any("'orphan'" in d.message and "not claimed" in d.message
                   for d in diagnostics)

    def test_missing_registry_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": "BACKENDS = ('memory',)\n",
            "src/repro/index/mini.py": MINI_SOURCE,
        }, rules=["parity-registration"])
        assert any("PARITY_SOURCES mapping not found" in d.message
                   for d in diagnostics)

    def test_protocol_class_itself_is_exempt(self, tmp_path):
        protocol_class = MINI_SOURCE.replace(
            "class MiniSource:", "class MiniSource(Protocol):")
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": """
                BACKENDS = ("memory",)
                PARITY_SOURCES = {"Other": ("memory",)}
            """,
            "src/repro/index/mini.py": protocol_class,
        }, rules=["parity-registration"])
        assert not any("MiniSource" in d.message for d in diagnostics)

    def test_protocol_members_are_the_protocols(self):
        # The rule keeps its own copy of the member list; it must name
        # exactly the members PostingSource declares.
        module = ast.parse(
            (REPO_ROOT / "src/repro/index/source.py").read_text())
        protocol, = [node for node in module.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "PostingSource"]
        declared = set()
        for member in protocol.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared.add(member.name)
            elif isinstance(member, ast.AnnAssign) and \
                    isinstance(member.target, ast.Name):
                declared.add(member.target.id)
        assert declared == ParityRegistrationRule.PROTOCOL_MEMBERS

    def test_pragma_suppresses_registration(self, tmp_path):
        suppressed = MINI_SOURCE.replace(
            "class MiniSource:",
            "# lint: allow(parity-registration)\nclass MiniSource:")
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": """
                BACKENDS = ("memory",)
                PARITY_SOURCES = {"Other": ("memory",)}
            """,
            "src/repro/index/mini.py": suppressed,
        }, rules=["parity-registration"])
        assert not any("MiniSource" in d.message for d in diagnostics)


# ---------------------------------------------------------------------- #
# R3: typed-error discipline
# ---------------------------------------------------------------------- #
MINI_PROTOCOL = """
    ERROR_BAD_REQUEST = "bad_request"
    ERROR_INTERNAL = "internal"
"""

MINI_SERVICE_ANCHOR = """
    def test_ping_and_search(client):
        assert client.ping()
        assert client.search("xml")
"""


class TestTypedErrors:
    def lint_server(self, tmp_path, server_body, anchor=MINI_SERVICE_ANCHOR):
        return lint(tmp_path, {
            "src/repro/service/protocol.py": MINI_PROTOCOL,
            "src/repro/service/server.py": server_body,
            "tests/test_service_parity.py": anchor,
        }, rules=["typed-errors"])

    def test_typed_raises_and_tested_ops_pass(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "ping":
                        return {"pong": True}
                    if op == "search":
                        return {"result": None}
                    raise ServiceError(ERROR_BAD_REQUEST, "unknown op")
        """)
        assert diagnostics == []

    def test_untyped_raise_fails(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    raise ValueError("boom")
        """)
        assert any("must raise ServiceError" in d.message
                   for d in diagnostics)

    def test_literal_error_code_fails(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    raise ServiceError("bad_request", "unknown op")
        """)
        assert any("literal code" in d.message for d in diagnostics)

    def test_unknown_error_constant_fails(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    raise ServiceError(ERROR_MADE_UP, "unknown op")
        """)
        assert any("not defined in" in d.message for d in diagnostics)

    def test_untested_op_fails(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    if op == "teleport":
                        return {}
                    raise ServiceError(ERROR_BAD_REQUEST, "unknown op")
        """)
        assert any("'teleport'" in d.message
                   and "no matching case" in d.message for d in diagnostics)

    def test_op_mentioned_as_attribute_counts(self, tmp_path):
        # client.teleport() in the anchor covers op "teleport".
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    if op == "teleport":
                        return {}
                    raise ServiceError(ERROR_BAD_REQUEST, "unknown op")
        """, anchor=MINI_SERVICE_ANCHOR + """
    def test_teleport(client):
        assert client.teleport()
""")
        assert diagnostics == []

    def test_pragma_suppresses_raise_finding(self, tmp_path):
        diagnostics = self.lint_server(tmp_path, """
            class SearchService:
                async def _dispatch(self, request):
                    op = request.get("op", "search")
                    if op == "search":
                        return {}
                    # lint: allow(typed-errors)
                    raise ValueError("boom")
        """)
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# R4: sqlite discipline
# ---------------------------------------------------------------------- #
class TestSqliteDiscipline:
    def test_connect_inside_storage_passes(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/storage/db.py": """
                import sqlite3
                import threading

                class Store:
                    def _connection(self, path):
                        local = threading.local()
                        connection = sqlite3.connect(path)
                        local.connection = connection
                        return connection
            """,
        }, rules=["sqlite-discipline"])
        assert diagnostics == []

    def test_connect_outside_storage_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/service/shortcut.py": """
                import sqlite3

                def query(path):
                    return sqlite3.connect(path)
            """,
        }, rules=["sqlite-discipline"])
        assert any("outside repro/storage/" in d.message for d in diagnostics)

    def test_aliased_connect_is_caught(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/service/shortcut.py": """
                from sqlite3 import connect as open_db

                def query(path):
                    return open_db(path)
            """,
        }, rules=["sqlite-discipline"])
        assert any("outside repro/storage/" in d.message for d in diagnostics)

    def test_self_held_connection_fails_even_in_storage(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/storage/db.py": """
                import sqlite3

                class Store:
                    def __init__(self, path):
                        self.connection = sqlite3.connect(path)
            """,
        }, rules=["sqlite-discipline"])
        assert any("self.connection" in d.message for d in diagnostics)

    def test_pragma_suppresses_connect_finding(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/service/shortcut.py": """
                import sqlite3

                def query(path):
                    return sqlite3.connect(path)  # lint: allow(sqlite-discipline)
            """,
        }, rules=["sqlite-discipline"])
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# R5: bench honesty
# ---------------------------------------------------------------------- #
class TestBenchHonesty:
    def test_unguarded_bench_writer_fails(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/bench/w.py": """
                def persist(payload):
                    write_json(payload, "BENCH_core.json")
            """,
        }, rules=["bench-honesty"])
        assert any("without calling a verification guard" in d.message
                   for d in diagnostics)

    def test_guarded_bench_writer_passes(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/bench/w.py": """
                def persist(payload):
                    require_verified_payload(payload)
                    write_json(payload, "BENCH_core.json")
            """,
        }, rules=["bench-honesty"])
        assert diagnostics == []

    def test_non_bench_writer_is_ignored(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/bench/w.py": """
                def persist(payload):
                    write_json(payload, "notes.json")
            """,
        }, rules=["bench-honesty"])
        assert diagnostics == []

    def test_pragma_suppresses_writer_finding(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/bench/w.py": """
                # lint: allow(bench-honesty)
                def persist(payload):
                    write_json(payload, "BENCH_core.json")
            """,
        }, rules=["bench-honesty"])
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# R6: metrics discipline
# ---------------------------------------------------------------------- #

#: A mini metric-name catalogue at the anchor path the rule validates against.
MINI_CATALOGUE = """
    QUERY_COUNT = "query.count"
    CACHE_HITS = "cache.hits"
"""


class TestMetricsDiscipline:
    def lint_obs(self, tmp_path, body, catalogue=MINI_CATALOGUE):
        files = {"src/repro/service/s.py": body}
        if catalogue is not None:
            files["src/repro/obs/names.py"] = catalogue
        return lint(tmp_path, files, rules=["metrics-discipline"])

    def test_free_string_metric_name_fails(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            def handle(registry):
                registry.counter("query.count").inc()
        """)
        assert any("free-string metric name 'query.count'" in d.message
                   for d in diagnostics)

    def test_catalogue_constant_passes(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            from ..obs import names as metric_names

            def handle(registry, miss):
                registry.counter(metric_names.QUERY_COUNT).inc()
                registry.histogram(
                    metric_names.CACHE_HITS if miss else CACHE_HITS)
        """)
        assert diagnostics == []

    def test_unknown_name_expression_fails(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            def handle(registry, key):
                registry.gauge(key.upper()).set(1)
        """)
        assert any("does not reference a" in d.message for d in diagnostics)

    def test_missing_name_argument_fails(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            def handle(registry):
                registry.counter().inc()
        """)
        assert any("without a metric name" in d.message for d in diagnostics)

    def test_missing_catalogue_is_one_finding(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            def handle(registry):
                registry.counter(NAME).inc()
        """, catalogue=None)
        assert [d for d in diagnostics
                if "missing or unparsable" in d.message]

    def test_obs_package_itself_is_exempt(self, tmp_path):
        diagnostics = lint(tmp_path, {
            "src/repro/obs/names.py": MINI_CATALOGUE,
            "src/repro/obs/registry.py": """
                def warm(registry):
                    registry.counter("query.count")
            """,
        }, rules=["metrics-discipline"])
        assert diagnostics == []

    def test_pragma_suppresses_finding(self, tmp_path):
        diagnostics = self.lint_obs(tmp_path, """
            def handle(registry, name):
                registry.counter(name).inc()  # lint: allow(metrics-discipline)
        """)
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# R7: exception discipline
# ---------------------------------------------------------------------- #
class TestExceptionDiscipline:
    def lint_src(self, tmp_path, body):
        return lint(tmp_path, {"src/repro/service/s.py": body},
                    rules=["exception-discipline"])

    def test_bare_except_fails(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def read(path):
                try:
                    return open(path).read()
                except:
                    return ""
        """)
        assert any("bare 'except:'" in d.message for d in diagnostics)

    def test_swallowed_broad_catch_fails(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def tick(store):
                try:
                    store.compact()
                except Exception:
                    pass
        """)
        assert any("'except Exception' swallows" in d.message
                   for d in diagnostics)

    def test_broad_catch_in_tuple_fails(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def tick(store):
                try:
                    store.compact()
                except (ValueError, BaseException):
                    return None
        """)
        assert any("'except BaseException' swallows" in d.message
                   for d in diagnostics)

    def test_reraising_broad_catch_passes(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def tick(store, log):
                try:
                    store.compact()
                except Exception as error:
                    log(error)
                    raise
        """)
        assert diagnostics == []

    def test_specific_catch_passes(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def read(path):
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return ""
        """)
        assert diagnostics == []

    def test_pragma_suppresses_finding(self, tmp_path):
        diagnostics = self.lint_src(tmp_path, """
            def tick(store):
                try:
                    store.compact()
                except Exception:  # lint: allow(exception-discipline)
                    pass
        """)
        assert diagnostics == []

    def test_raise_inside_nested_handler_counts(self, tmp_path):
        # A raise anywhere in the handler body (even conditional) is a
        # deliberate decision; the rule only hunts silent swallows.
        diagnostics = self.lint_src(tmp_path, """
            def tick(store, fatal):
                try:
                    store.compact()
                except Exception as error:
                    if fatal(error):
                        raise
                    return None
        """)
        assert diagnostics == []


# ---------------------------------------------------------------------- #
# The real tree
# ---------------------------------------------------------------------- #
class TestRealTree:
    def test_src_is_clean(self):
        diagnostics = run_analysis([str(REPO_ROOT / "src")], root=REPO_ROOT)
        assert diagnostics == [], format_diagnostics(diagnostics)

    def test_cli_exits_zero_on_clean_tree(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stderr

    def test_cli_lists_rules(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0
        for name in rule_names():
            assert name in completed.stdout

    def test_adding_boxed_code_to_stack_slca_fails(self, tmp_path):
        # The acceptance regression: a DeweyCode(...) construction added to
        # the real stack SLCA implementation must fail the lint.
        real = (REPO_ROOT / "src/repro/lca/stack_slca.py").read_text()
        mutated = real + (
            "\n\ndef _boxed_probe(components):\n"
            "    return DeweyCode(components)\n"
        )
        diagnostics = lint(tmp_path, {
            "src/repro/lca/stack_slca.py": mutated,
        }, rules=["hot-loop-purity"])
        assert any("DeweyCode materialization" in d.message
                   and d.line > real.count("\n")
                   for d in diagnostics)

    def test_deleting_real_backend_entry_fails(self, tmp_path):
        # Drop "sqlite" from the real anchor's BACKENDS: the registered
        # sqlite sources now claim a nonexistent backend.
        real = (REPO_ROOT / "tests/test_backend_parity.py").read_text()
        mutated = real.replace('"sqlite", ', "", 1)
        assert mutated != real, "expected a BACKENDS entry to remove"
        diagnostics = lint(tmp_path, {
            "tests/test_backend_parity.py": mutated,
            "src/repro/placeholder.py": "",
        }, rules=["parity-registration"])
        assert any("'sqlite'" in d.message and "not in BACKENDS" in d.message
                   for d in diagnostics)
