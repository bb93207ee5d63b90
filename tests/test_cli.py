"""Tests for the repro-xks command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.xmltree import parse_file


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

    def test_search_early_terminate_on_one_document(self, capsys):
        exit_code = main(["search", "--dataset", "figure-1a", "--top-k", "3",
                          "--early-terminate", "xml keyword search"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "documents visited: 1/1" in output
        assert "  1. [figure-1a] root " in output


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
