"""Tests for the repro-xks command-line interface."""

from __future__ import annotations

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
    def test_bench_figure5_with_cache(self, capsys):
        exit_code = main(["bench", "--dataset", "dblp", "--figure", "5",
                          "--repetitions", "1", "--cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "query cache:" in output
        assert "hits=" in output

    def test_bench_no_cache_prints_no_stats(self, capsys):
        exit_code = main(["bench", "--dataset", "dblp", "--figure", "6",
                          "--repetitions", "1", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "query cache:" not in output

    def test_bench_rejects_non_positive_cache_size(self, capsys):
        exit_code = main(["bench", "--dataset", "dblp", "--figure", "5",
                          "--repetitions", "1", "--cache", "--cache-size", "0"])
        assert exit_code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["memory", "corpus"])
    def test_bench_rejects_db_without_sqlite_backend(self, tmp_path, capsys,
                                                     backend):
        db_path = tmp_path / "bench.db"
        exit_code = main(["bench", "--dataset", "dblp", "--figure", "5",
                          "--repetitions", "1", "--backend", backend,
                          "--db", str(db_path)])
        assert exit_code == 2
        assert "sqlite" in capsys.readouterr().err
        assert not db_path.exists()


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

    @pytest.mark.parametrize("command", ["serve", "loadtest"])
    @pytest.mark.parametrize("flag", ["--batch-size", "--batch-window",
                                      "--compact-interval-ms"])
    def test_removed_service_flags_are_rejected(self, capsys, command, flag):
        # Batches dispatch when a worker is free and compaction runs on the
        # write that crosses --compact-segments: no window, no poll period.
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
