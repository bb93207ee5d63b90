"""Tests for the repro-xks command-line interface."""

from __future__ import annotations

import json
import os
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import ALGORITHM_NAMES
from repro.datasets import DBLPConfig, generate_dblp
from repro.storage import SQLiteStore, verify_database
from repro.xmltree import parse_file, write_xml_file


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """``repro-xks argv`` in a child process.  A ``serve`` that accepts its
    settings serves until the timeout instead of exiting, so every test
    that expects ``serve`` to refuse runs it here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=30)


def assert_one_line_naming(capsys, exit_code: int, named: str) -> None:
    """An in-process command exited 2 with one stderr line naming
    ``named`` and no traceback."""
    error = capsys.readouterr().err
    assert exit_code == 2, error
    assert named in error
    assert "Traceback" not in error
    assert len(error.strip().splitlines()) == 1, error


def assert_one_line_refusal(child: subprocess.CompletedProcess) -> str:
    """The child exited 2 with one stderr line and no traceback; that line."""
    assert child.returncode == 2, child.stderr
    assert "Traceback" not in child.stderr
    lines = child.stderr.strip().splitlines()
    assert len(lines) == 1, child.stderr
    return lines[0]


class TestSearchCommand:
    def test_search_paper_query_on_builtin(self, capsys):
        exit_code = main(["search", "--dataset", "figure-1a", "Q3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "fragments: 1" in output
        assert "0.2.0.1 title" in output
        assert "0.2.1.1" not in output  # pruned by ValidRTF

    def test_search_with_maxmatch(self, capsys):
        exit_code = main(["search", "--dataset", "figure-1b", "--algorithm",
                          "maxmatch", "Q4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "maxmatch" in output

    def test_search_no_text_flag(self, capsys):
        main(["search", "--dataset", "figure-1a", "--no-text", "Q1"])
        output = capsys.readouterr().out
        assert '"' not in output.split("\n", 1)[1]

    def test_search_from_file(self, tmp_path, capsys):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>xml keyword</b><c>other</c></a>", encoding="utf-8")
        exit_code = main(["search", "--file", str(path), "xml keyword"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "fragments: 1" in output
        assert "=== document doc (1 fragment) ===" in output

    @pytest.mark.parametrize("raw, plain", [
        ("xml & keyword search", "xml keyword search"),
        ("xml - keyword", "xml keyword"),
    ])
    def test_wordless_keyword_is_dropped(self, capsys, raw, plain):
        # A keyword with no word in it matches nothing; it must not empty
        # the answer of the words around it.
        assert main(["search", "--dataset", "figure-1a", raw]) == 0
        with_symbol = capsys.readouterr().out
        assert main(["search", "--dataset", "figure-1a", plain]) == 0
        assert with_symbol == capsys.readouterr().out
        assert f"query: {plain} " in with_symbol

    def test_unindexed_word_keeps_the_query_conjunctive(self, capsys):
        # A real word no node holds is kept, so nothing answers all words.
        assert main(["search", "--dataset", "figure-1a",
                     "xml \u041c\u043e\u0441\u043a\u0432\u0430"]) == 0
        assert "fragments: 0" in capsys.readouterr().out

    def test_search_early_terminate_on_one_document(self, capsys):
        exit_code = main(["search", "--dataset", "figure-1a", "--top-k", "3",
                          "--early-terminate", "xml keyword search"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "documents visited: 1/1" in output
        assert "  1. [figure-1a] root " in output

    def test_ranked_trace_has_one_doc_span_per_visited_document(
            self, tmp_path, capsys):
        documents = {
            "deep": "<a><b><c><d>apple banana</d></c></b><e>apple</e>"
                    "<f>banana</f></a>",
            "shallow": "<r><x>apple banana</x></r>",
            "partial": "<u><v>cherry</v><w>apple</w></u>",
        }
        paths = []
        for name, text in documents.items():
            path = tmp_path / f"{name}.xml"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        db = str(tmp_path / "corpus.db")
        assert main(["index", *paths, "--db", db]) == 0
        capsys.readouterr()
        exit_code = main(["search", "--db", db, "--backend", "corpus",
                          "--top-k", "1", "--early-terminate", "--trace",
                          "apple banana"])
        output = capsys.readouterr().out
        assert exit_code == 0
        visited, selected = map(int, re.search(
            r"documents visited: (\d+)/(\d+)", output).groups())
        assert 0 < visited < selected == 3
        spans = re.findall(r"[├└]─ (\S+)", output)
        assert spans.count("impacts") == 1
        assert spans.count("doc") == visited


class TestCompareCommand:
    def test_compare_reports_metrics(self, capsys):
        exit_code = main(["compare", "--dataset", "figure-1b", "Q4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "CFR: 0.000" in output
        assert "Max APR:" in output
        assert "extra pruned 2" in output

    def test_compare_identical_results(self, capsys):
        main(["compare", "--dataset", "figure-1b", "Q5"])
        output = capsys.readouterr().out
        assert "CFR: 1.000" in output


class TestDatasetsCommand:
    def test_describe_single_dataset(self, capsys):
        exit_code = main(["datasets", "--name", "figure-1a"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "figure-1a: 22 nodes" in output

    def test_export_to_xml(self, tmp_path, capsys):
        prefix = str(tmp_path) + "/"
        exit_code = main(["datasets", "--name", "figure-1b", "--output", prefix])
        assert exit_code == 0
        exported = parse_file(tmp_path / "figure-1b.xml")
        assert exported.root.label == "team"


class TestBenchCommand:
    def test_prints_both_panels_and_the_totals(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(["bench", "--dataset", "dblp", "--limit", "1",
                          "--repetitions", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 5 — dblp (memory)" in output
        assert "Figure 6 — dblp: CFR / APR' / Max APR" in output
        assert "dblp/memory/validrtf:" in output
        assert "dblp/memory/maxmatch:" in output
        assert "artefact written" not in output
        assert list(tmp_path.iterdir()) == []

    def test_output_writes_the_verified_run(self, tmp_path, capsys):
        output = tmp_path / "BENCH_core.json"
        exit_code = main(["bench", "--dataset", "dblp",
                          "--dataset", "xmark-standard",
                          "--backend", "memory", "--backend", "sqlite",
                          "--limit", "1", "--repetitions", "1",
                          "--output", str(output)])
        assert exit_code == 0
        assert f"artefact written to {output}" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["protocol"]["verified_parity"]
        assert list(payload["figures"]) == ["dblp", "xmark-standard"]
        assert {(total["dataset"], total["backend"])
                for total in payload["summary"]} == {
            (dataset, backend) for dataset in ("dblp", "xmark-standard")
            for backend in ("memory", "sqlite")}

    def test_a_repeated_dataset_or_backend_runs_once(self, tmp_path, capsys):
        output = tmp_path / "BENCH_core.json"
        exit_code = main(["bench", "--dataset", "dblp", "--dataset", "dblp",
                          "--backend", "memory", "--backend", "memory",
                          "--limit", "1", "--repetitions", "1",
                          "--output", str(output)])
        printed = capsys.readouterr().out
        assert exit_code == 0
        assert printed.count("Figure 5 — dblp (memory)") == 1
        assert printed.count("dblp/memory/validrtf:") == 1
        payload = json.loads(output.read_text())
        keys = [(entry["dataset"], entry["backend"], entry["algorithm"],
                 entry["query"]) for entry in payload["entries"]]
        assert len(keys) == len(set(keys)) == 2
        assert len(payload["summary"]) == 2
        assert len(payload["figures"]["dblp"]["rows"]) == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--repetitions", "--limit"])
    def test_counts_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--dataset", "dblp", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bench-export"],
        ["bench", "--figure", "5"],
        ["bench", "--cache"],
        ["bench", "--no-cache"],
        ["bench", "--cache-size", "8"],
        ["bench", "--db", "bench.db"],
        ["bench", "--algorithm", "validrtf"],
        ["bench", "--no-verify"],
    ], ids=["bench-export", "figure", "cache", "no-cache", "cache-size", "db",
            "algorithm", "no-verify"])
    def test_removed_bench_surface_is_rejected(self, tmp_path, capsys,
                                               monkeypatch, argv):
        # One runner: `bench` verifies, records Figure 6 and times Figure 5
        # over the datasets, with no cache, figure or file-reuse knob.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ranking_guard_failure_is_an_answer_parity_error(
            self, tmp_path, capsys, monkeypatch):
        import repro.bench
        from repro.bench import RankingEquivalenceError

        def diverging_ranking(**_):
            raise RankingEquivalenceError(
                "ranking/validrtf/kc: early-terminated top-k differs")

        monkeypatch.setattr(repro.bench, "run_core_bench", diverging_ranking)
        output = tmp_path / "bench.json"
        exit_code = main(["bench", "--limit", "1", "--repetitions", "1",
                          "--output", str(output)])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "answer parity violated: ranking/validrtf/kc" in err
        assert "Traceback" not in err
        assert not output.exists()


class TestArgumentHandling:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--dataset", "unknown", "xml"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--dataset", "figure-1a", "--algorithm", "bogus", "xml"])

    def test_unknown_algorithm_lists_every_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--dataset", "figure-1a", "--algorithm", "bogus",
                  "xml"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(f"'{name}'" in err for name in ALGORITHM_NAMES)

    @pytest.mark.parametrize("argv", [
        ["search", "--dataset", "figure-1a", ""],
        ["search", "--dataset", "figure-1a", "   "],
        ["search", "--dataset", "figure-1a", "--top-k", "1", ""],
        ["compare", "--dataset", "figure-1a", ""],
        ["explain", "--dataset", "figure-1a", ""],
        ["search", "--dataset", "figure-1a", "&"],
    ], ids=["search", "search-blank", "search-top-k", "compare", "explain",
            "search-symbol"])
    def test_empty_query_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"query {argv[-1]!r} normalizes to zero keywords" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--batch-size", "--batch-window",
                                      "--compact-interval-ms"])
    def test_removed_service_flags_are_rejected(self, capsys, flag):
        # Batches dispatch when a worker is free and compaction runs on the
        # write that crosses --compact-segments: no window, no poll period.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["loadtest"],
                                      ["metrics", "--input", "f.json"]],
                             ids=["loadtest", "metrics-input"])
    def test_removed_load_commands_are_rejected(self, argv):
        # Served load is measured by `python -m benchmarks.e2e`; `metrics`
        # only scrapes a running server.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestServeSettings:
    def test_a_negative_cache_size_exits_2(self):
        child = run_cli("serve", "--cache-size", "-1", "--port", "0")
        assert "cache size must be >= 0" in assert_one_line_refusal(child)

    @pytest.mark.parametrize("flags, named", [
        (["--workers", "0"], "workers"),
        (["--max-inflight", "0"], "inflight"),
        (["--request-timeout", "0"], "timeout"),
        (["--slow-query-ms", "-1"], "slow"),
        (["--fault-plan", "nonsense"], "fault.plan"),
        (["--fault-plan", "seed=7,error=0.5"], "fault.plan"),
        (["--compact-segments", "0"], "compact"),
        (["--compact-segments", "2"], "compact"),
    ], ids=["workers", "max-inflight", "request-timeout", "slow-query-ms",
            "fault-plan-syntax", "fault-plan-memory", "compact-segments",
            "compact-segments-memory"])
    def test_a_bad_setting_exits_2(self, flags, named):
        # The memory backend serves the default dataset: no store to fault
        # and no corpus database to compact.
        line = assert_one_line_refusal(
            run_cli("serve", *flags, "--port", "0"))
        assert re.search(named, line), line


class TestMissingDatabase:
    @pytest.mark.parametrize("argv", [
        ["search", "--db", "missing.db", "xml"],
        ["search", "--db", "missing.db", "--backend", "corpus", "xml"],
        ["compare", "--db", "missing.db", "xml"],
        ["serve", "--db", "missing.db", "--backend", "corpus", "--port", "0"],
        ["compact", "--db", "missing.db"],
        ["verify", "--db", "missing.db"],
        ["index", "--delete", "figure-1a", "--db", "missing.db"],
    ], ids=["search", "search-corpus", "compare", "serve", "compact",
            "verify", "index-delete"])
    def test_a_read_exits_2_and_creates_no_file(self, tmp_path, argv):
        line = assert_one_line_refusal(run_cli(*argv, cwd=tmp_path))
        assert "missing.db" in line
        assert list(tmp_path.iterdir()) == []


class TestMetricsCommand:
    def test_scrapes_a_server_that_answered_a_search(self, capsys):
        from repro.datasets import PAPER_QUERIES, publications_tree
        from repro.service import EnginePool, ServerThread, ServiceClient

        pool = EnginePool.for_backend("memory", tree=publications_tree(),
                                      workers=1)
        with pool, ServerThread(pool) as server:
            with ServiceClient(*server.address) as client:
                client.search(PAPER_QUERIES["Q2"])
            host, port = server.address
            exit_code = main(["metrics", "--address", f"{host}:{port}"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for series in ("repro_server_requests_total",
                       "repro_query_count_total",
                       "repro_batcher_requests_total",
                       "repro_admission_admitted_total"):
            assert f"# TYPE {series} counter" in output, series
        requests = [float(line.rsplit(None, 1)[1])
                    for line in output.splitlines()
                    if line.startswith("repro_server_requests_total")]
        assert requests and sum(requests) > 0, output

    def test_address_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics"])
        assert excinfo.value.code == 2
        assert "--address" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["localhost", "localhost:",
                                         ":8765", "localhost:http"])
    def test_malformed_address_is_a_usage_error(self, capsys, address):
        assert main(["metrics", "--address", address]) == 2
        assert "--address must be HOST:PORT" in capsys.readouterr().err

    def test_unreachable_server_is_a_usage_error(self, capsys):
        import socket

        # A bound socket that never listens refuses every connection, and
        # holding it keeps the port from being handed to anyone else.
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            host, port = closed.getsockname()
            exit_code = main(["metrics", "--address", f"{host}:{port}"])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert f"cannot scrape {host}:{port}" in error
        assert "Traceback" not in error


class TestCompactCommand:
    def test_compact_gives_freed_pages_back(self, capsys, tmp_path):
        xml = tmp_path / "publications.xml"
        write_xml_file(generate_dblp(DBLPConfig(publications=20, seed=2009)),
                       xml)
        db = str(tmp_path / "corpus.db")
        assert main(["index", str(xml), "--db", db]) == 0
        assert main(["index", "--update", str(xml), "--db", db]) == 0
        assert main(["compact", "--db", db]) == 0
        connection = sqlite3.connect(db)
        try:
            free_pages = connection.execute(
                "PRAGMA freelist_count").fetchone()[0]
        finally:
            connection.close()
        assert free_pages == 0
        assert main(["verify", "--db", db]) == 0, capsys.readouterr().out


class TestStoredDocumentRefusals:
    """What ``--db``, ``--doc`` and ``--backend`` name is checked where the
    corpus is opened; the CLI prints the refusal as one line, exit 2."""

    @pytest.fixture(scope="class")
    def databases(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stored")
        two = str(root / "two.db")
        for dataset in ("figure-1a", "figure-1b"):
            assert main(["index", "--dataset", dataset, "--db", two,
                         "--add"]) == 0
        empty = str(root / "empty.db")
        SQLiteStore(empty).close()
        return {"two": two, "empty": empty}

    @pytest.mark.parametrize("argv, named", [
        (["search", "--db", "{two}", "xml"], "pick one with --doc"),
        (["search", "--db", "{two}", "--doc", "nothere", "xml"],
         "nothere"),
        (["search", "--db", "{two}", "--backend", "corpus", "--doc",
          "nothere", "xml"], "nothere"),
        (["compare", "--db", "{two}", "--doc", "nothere", "xml"],
         "nothere"),
        (["search", "--db", "{two}", "--backend", "memory", "xml"],
         "memory"),
        (["search", "--db", "{two}", "--file", "x.xml", "xml"], "--file"),
        (["search", "--db", "{empty}", "xml"], "no indexed documents"),
        (["search", "--db", "{empty}", "--backend", "corpus", "xml"],
         "no indexed documents"),
    ], ids=["several", "unknown-doc", "corpus-unknown-doc",
            "compare-unknown-doc", "memory-backend", "with-file", "empty",
            "corpus-empty"])
    def test_search_and_compare(self, capsys, databases, argv, named):
        exit_code = main([arg.format(**databases) for arg in argv])
        assert_one_line_naming(capsys, exit_code, named)

    @pytest.mark.parametrize("argv, named", [
        (["--db", "{two}", "--doc", "nothere"], "nothere"),
        (["--db", "{two}"], "pick one with --doc"),
        (["--db", "{empty}", "--backend", "corpus"], "no indexed documents"),
    ], ids=["unknown-doc", "several", "empty"])
    def test_serve(self, databases, argv, named):
        line = assert_one_line_refusal(run_cli(
            "serve", *[arg.format(**databases) for arg in argv],
            "--port", "0"))
        assert named in line


class TestIndexCommand:
    """``index --update`` is the one way to replace a stored document: one
    transaction, so a replacement that fails to parse leaves the stored
    version answering."""

    @pytest.fixture
    def stored(self, tmp_path, capsys):
        (tmp_path / "a.xml").write_text(
            "<lib><book><title>xml search</title></book></lib>",
            encoding="utf-8")
        (tmp_path / "b.xml").write_text(
            "<lib><book><title>xml trees</title></book></lib>",
            encoding="utf-8")
        db = str(tmp_path / "x.db")
        assert main(["index", str(tmp_path / "a.xml"),
                     str(tmp_path / "b.xml"), "--db", db]) == 0
        capsys.readouterr()
        return tmp_path, db

    @staticmethod
    def answers(capsys, db):
        assert main(["search", "--db", db, "--backend", "corpus",
                     "xml"]) == 0
        return capsys.readouterr().out

    def test_a_failed_update_keeps_the_document(self, capsys, stored):
        tmp_path, db = stored
        before = self.answers(capsys, db)
        broken = tmp_path / "a.xml"
        broken.write_text("<lib><book><title>broken</book></lib>",
                          encoding="utf-8")
        assert main(["index", "--update", str(broken), "--db", db]) == 2
        assert "cannot parse" in capsys.readouterr().err
        assert SQLiteStore(db).documents() == ["a", "b"]
        assert self.answers(capsys, db) == before

    def test_force_is_rejected(self, capsys, stored):
        # --force dropped the stored document before parsing its
        # replacement, so a file that failed to parse lost it.
        tmp_path, db = stored
        before = self.answers(capsys, db)
        broken = tmp_path / "a.xml"
        broken.write_text("<lib><book><title>broken</book></lib>",
                          encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["index", str(broken), "--db", db, "--force"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err
        assert SQLiteStore(db).documents() == ["a", "b"]
        assert self.answers(capsys, db) == before

    def test_a_stored_name_is_refused_and_names_update(self, capsys,
                                                       stored):
        tmp_path, db = stored
        assert main(["index", str(tmp_path / "a.xml"), "--db", db]) == 1
        assert "use --update to replace" in capsys.readouterr().err

    def test_delete_checks_every_name_before_the_first_tombstone(
            self, capsys, stored):
        _, db = stored
        assert main(["index", "--delete", "a", "--delete", "nothere",
                     "--db", db]) == 1
        assert "'nothere'" in capsys.readouterr().err
        store = SQLiteStore(db)
        assert store.documents() == ["a", "b"]
        assert store.segment_count() == 0

    def test_a_repeated_delete_tombstones_once(self, capsys, stored):
        _, db = stored
        assert main(["index", "--delete", "a", "--delete", "a",
                     "--db", db]) == 0
        store = SQLiteStore(db)
        assert store.documents() == ["b"]
        assert store.segment_count() == 1


class TestUnreadableInputs:
    """An input file the program cannot read is a usage error, like a
    database file of another schema version: one line on stderr naming the
    path, exit 2, and no traceback."""

    @pytest.fixture(params=["malformed", "missing"])
    def xml_path(self, request, tmp_path):
        path = tmp_path / "broken.xml"
        if request.param == "malformed":
            path.write_text("<a><b>x</a>", encoding="utf-8")
        return str(path)

    @pytest.fixture(params=["not-a-database", "directory"])
    def db_path(self, request, tmp_path):
        path = tmp_path / "broken.db"
        if request.param == "directory":
            path.mkdir()
        else:
            path.write_text("plain text, not a database\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["search", "--file", "{xml}", "xml"],
        ["compare", "--file", "{xml}", "xml"],
        ["explain", "--file", "{xml}", "xml"],
        ["serve", "--file", "{xml}"],
        ["index", "{xml}", "--db", "{db}"],
        ["index", "--update", "{xml}", "--db", "{db}"],
    ], ids=["search", "compare", "explain", "serve", "index", "index-update"])
    def test_an_unparsable_xml_file_is_named(self, capsys, tmp_path,
                                             xml_path, argv):
        db = tmp_path / "fresh.db"
        exit_code = main([arg.format(xml=xml_path, db=db) for arg in argv])
        assert_one_line_naming(capsys, exit_code, xml_path)
        # A failed index leaves no database it created behind.
        assert not db.exists()

    def test_a_failed_multi_file_index_removes_only_a_new_database(
            self, capsys, tmp_path, xml_path):
        good = tmp_path / "good.xml"
        good.write_text("<a><b>xml</b></a>", encoding="utf-8")
        fresh = tmp_path / "fresh.db"
        exit_code = main(["index", str(good), xml_path, "--db", str(fresh)])
        assert_one_line_naming(capsys, exit_code, xml_path)
        assert not fresh.exists()
        # An existing file keeps what the run stored before it failed.
        kept = tmp_path / "kept.db"
        assert main(["index", "--dataset", "figure-1a", "--db",
                     str(kept)]) == 0
        capsys.readouterr()
        exit_code = main(["index", "--add", str(good), xml_path, "--db",
                          str(kept)])
        assert_one_line_naming(capsys, exit_code, xml_path)
        assert kept.exists() and verify_database(str(kept)).clean

    @pytest.mark.parametrize("argv", [
        ["search", "--db", "{db}", "--backend", "sqlite", "xml"],
        ["search", "--db", "{db}", "--backend", "corpus", "xml"],
        ["compact", "--db", "{db}"],
        ["index", "--dataset", "figure-1a", "--db", "{db}"],
        ["index", "--delete", "figure-1a", "--db", "{db}"],
    ], ids=["search", "search-corpus", "compact", "index", "index-delete"])
    def test_a_path_that_is_no_database_is_named(self, capsys, db_path,
                                                 argv):
        exit_code = main([arg.format(db=db_path) for arg in argv])
        assert_one_line_naming(capsys, exit_code, db_path)

    def test_verify_reports_it_as_one_integrity_finding(self, capsys,
                                                        db_path):
        assert [finding.code for finding in
                verify_database(db_path).findings] == ["sqlite-integrity"]
        assert main(["verify", "--db", db_path]) == 1
        assert "sqlite-integrity" in capsys.readouterr().out
