"""Self-tests of the end-to-end benchmark (``pytest benchmarks/e2e``).

They cover the statistics, the open-loop timing, the span arithmetic, the
``compare`` verdicts, a tiny-scale run of every workload, the correctness
gate and the agreement of ``BENCHMARK.json`` with ``spec.py``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from . import inputs, spec
from .compare import decide
from .loadgen import Item, Recorder, Sample, Step, run, run_timetable
from .speed import NOMINAL_KERNEL_MS, SpeedProbe
from .stats import min_samples, percentile, quartiles, supported
from .tracing import Tracer, reconcile, self_times
from .workloads import Phase, answered_reads

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# Percentiles and the sample-count rule
# ---------------------------------------------------------------------- #
def test_percentiles_interpolate_between_ranks():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(values, 25) == statistics.quantiles(
        values, n=4, method="inclusive")[0]
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentiles_take_one_latency_per_request():
    # Two requests, three runs each; other tenants slowed some runs.
    samples = [[1.0, 9.0, 1.1], [10.0, 10.5, 9.5]]
    closed = Phase(per_request_ms=samples, passes=3)
    assert closed.typical_ms() == [1.1, 10.0]           # median runs
    assert closed.read_percentile(50) == pytest.approx((1.1 + 10.0) / 2)
    assert closed.queries_per_s() == pytest.approx(2 / 0.0111)
    # On a machine running at 0.8 of the nominal speed, times shrink by
    # that factor and throughput grows by its inverse.
    slow = Phase(per_request_ms=samples, passes=3, speed=0.8)
    assert slow.read_percentile(50) == pytest.approx(0.8 * (1.1 + 10.0) / 2)
    assert slow.raw_percentile(50) == pytest.approx((1.1 + 10.0) / 2)
    assert slow.queries_per_s() == pytest.approx(2 / 0.0111 / 0.8)
    # An open loop reports the reads it got answered per second.
    open_loop = Phase(per_request_ms=samples, closed=False,
                      answered_per_s=200.0)
    assert open_loop.read_percentile(100) == 10.0
    assert open_loop.queries_per_s() == 200.0


def test_the_speed_probe_scales_to_the_nominal_speed():
    probe = SpeedProbe()
    probe.samples_ms = [1.0, 3.0, 2.0]
    assert probe.kernel_ms() == 2.0
    assert probe.factor() == pytest.approx(NOMINAL_KERNEL_MS / 2.0)
    # The kernel's cost cannot depend on the program's heap: it keeps
    # nothing the garbage collector tracks, so it never triggers a
    # collection.  (Reading the count itself allocates a tuple or two.)
    gc.disable()
    try:
        gc.collect()
        before = gc.get_count()[0]
        for _ in range(5):
            probe.kernel()
        assert gc.get_count()[0] - before <= 2
    finally:
        gc.enable()
    probe.sample(3)
    assert len(probe.samples_ms) == 6 and min(probe.samples_ms[3:]) > 0


def test_open_loop_reads_group_by_request():
    items = [Item(0.0, b"a", "read"), Item(0.1, b"w", "write"),
             Item(0.2, b"b", "read"), Item(0.3, b"a", "read"),
             Item(0.4, b"b", "read")]
    samples = []
    for item, latency, ok in zip(items, (1.0, 50.0, 2.0, 3.0, 9.0),
                                 (True, True, True, True, False)):
        sample = Sample(item.kind, 0, item.due)
        sample.done, sample.ok = item.due + latency / 1000.0, ok
        samples.append(sample)
    latencies, per_request = answered_reads(items, Step(samples, 0.5))
    assert latencies == pytest.approx([1.0, 2.0, 3.0])
    assert per_request == [pytest.approx([1.0, 3.0]), pytest.approx([2.0])]


def test_a_percentile_needs_ten_samples_beyond_it():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert not supported(99, 90)
    assert supported(100, 90)
    assert not supported(999, 99)


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 11.5, 9.8]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def _unordered(node):
    """A node's subtree with sibling order forgotten."""
    return (node.label, node.text, sorted((node.attributes or {}).items()),
            sorted(_unordered(child) for child in node.children))


def test_the_seed_rearranges_fixed_content():
    from repro.datasets import DBLPConfig, generate_dblp
    from repro.xmltree import to_xml_string

    tree = generate_dblp(DBLPConfig(publications=30,
                                    seed=inputs.CONTENT_SEED))
    one, again, other = (inputs.arranged(tree, seed) for seed in (1, 1, 2))
    assert to_xml_string(one) == to_xml_string(again)
    assert to_xml_string(one) != to_xml_string(other)
    assert _unordered(one.root) == _unordered(other.root) == \
        _unordered(tree.root)

    def keys(records):
        return [record.attributes["key"] for record in records]

    documents, spares = inputs.partitioned_dblp(4, 5, seed=1, spare=3)
    shuffled, other_spares = inputs.partitioned_dblp(4, 5, seed=2, spare=3)
    assert keys(spares) == keys(other_spares) and len(spares) == 3
    # The same blocks of records, under other doc ids and in another order.
    blocks = sorted(sorted(keys(records)) for records in documents.values())
    assert blocks == sorted(sorted(keys(records))
                            for records in shuffled.values())
    assert [keys(records) for records in documents.values()] != \
        [keys(records) for records in shuffled.values()]


# ---------------------------------------------------------------------- #
# Open-loop timing
# ---------------------------------------------------------------------- #
def test_latency_runs_from_the_scheduled_time():
    clock = FakeClock()
    items = [Item(0.000, b"a", "read"), Item(0.010, b"b", "read"),
             Item(0.020, b"c", "read", connection=0)]
    recorder = Recorder(items, start=clock(), connections=2, clock=clock)
    recorder.sent(0)                      # on time, connection 0
    clock.advance(0.012)
    recorder.sent(1)                      # 2 ms late, connection 1
    clock.advance(0.010)
    recorder.sent(2)                      # 2 ms late, pinned to connection 0
    assert recorder.outstanding() == [2, 1]
    clock.advance(0.028)                  # a 50 ms stall answers everything
    recorder.received(0, b'{"ok":true}')
    recorder.received(1, b'{"error":{"code":"timeout"},"ok":false}')
    recorder.received(0, b'{"ok":true}')
    first, second, third = recorder.samples
    assert first.latency == pytest.approx(0.050)
    assert second.latency == pytest.approx(0.040)   # not 0.038 from the send
    assert second.lateness == pytest.approx(0.002)
    assert second.service == pytest.approx(0.038)
    assert third.latency == pytest.approx(0.030)
    assert [sample.ok for sample in recorder.samples] == [True, False, True]
    assert recorder.complete and recorder.outstanding() == [0, 0]


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    stall = 0.12

    async def scenario():
        async def serve(reader, writer):
            first = True
            while await reader.readline():
                if first:
                    await asyncio.sleep(stall)
                    first = False
                writer.write(b'{"ok":true}\n')
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        items = [Item(index * 0.01, b'{"op":"ping"}\n', "read", connection=0)
                 for index in range(5)]
        try:
            return await run_timetable(address, items, duration=0.05,
                                       connections=1)
        finally:
            server.close()
            await server.wait_closed()

    step = run(scenario())
    assert all(sample.ok for sample in step.samples)
    second = step.samples[1]
    # Sent on schedule, answered only after the stall ended.
    assert second.lateness < 0.01
    assert second.latency >= stall - 0.01 - 0.005
    # All five were sent and none answered when the 50 ms window closed.
    assert step.outstanding == [5]


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def test_self_time_is_duration_minus_children():
    clock = FakeClock(0.0)
    tracer = Tracer(clock)
    with tracer.request(1):
        clock.advance(0.001)
        outer = tracer.open("core.search")
        clock.advance(0.002)
        tracer.call("storage.postings", clock.advance, 0.003)
        tracer.call("lca.roots", clock.advance, 0.004)
        for _ in range(3):
            tracer.leaf("storage.node_lookup", clock.advance, 0.001)
        clock.advance(0.005)
        tracer.close(outer)
    own = dict(zip((span[0] for span in tracer.spans), self_times(tracer.spans)))
    assert own["core.search"] == pytest.approx(0.007)
    assert own["storage.postings"] == pytest.approx(0.003)
    assert own["lca.roots"] == pytest.approx(0.004)
    assert own["storage.node_lookup"] == pytest.approx(0.003)
    assert own["request"] == pytest.approx(0.001)
    lookups = [span for span in tracer.spans if span[0] == "storage.node_lookup"]
    assert len(lookups) == 1 and lookups[0][5] == 3
    layers = tracer.layer_seconds()
    assert "request" not in layers
    assert sum(layers.values()) == pytest.approx(0.017)


def test_reconciliation_against_wall_time():
    clock = FakeClock(0.0)
    tracer = Tracer(clock)
    with tracer.request(1):                     # fully covered
        tracer.call("core.search", clock.advance, 0.010)
    with tracer.request(2):                     # 20% uncovered
        clock.advance(0.002)
        tracer.call("core.search", clock.advance, 0.008)
    unattributed, share = tracer.reconcile(tolerance=0.05)
    assert unattributed == pytest.approx(0.002)
    assert share == 0.5
    assert reconcile(tracer.spans, tracer.requests, 0.25)[1] == 1.0


def test_spans_out_of_order_are_refused():
    tracer = Tracer(FakeClock())
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# ---------------------------------------------------------------------- #
# compare verdicts
# ---------------------------------------------------------------------- #
P50 = spec.END_TO_END_BY_NAME["query_p50_ms"]
QPS = spec.END_TO_END_BY_NAME["queries_per_s"]
ERRORS = spec.END_TO_END_BY_NAME["error_rate"]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    beyond = 1.0 + P50.bound.value + 0.05   # past the bound
    within = 1.0 + P50.bound.value - 0.05   # inside it
    assert decide(base, [value * within for value in base], P50) == \
        "unchanged"
    assert decide(base, [value * beyond for value in base], P50) == "worse"
    assert decide(base, [value * 0.97 for value in base], P50) == "improved"
    # Higher is better: the same shifts read the other way round.
    assert decide(base, [value * (2.0 - beyond) for value in base], QPS) == \
        "worse"
    assert decide(base, [value * 1.03 for value in base], QPS) == "improved"
    # Three pairs can never claim a gain, however large.
    assert decide(base[:3], [5.0, 5.0, 5.0], P50) == "unchanged"
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0]
    assert decide(noisy, [10.5, 13.0, 7.5, 12.5, 8.5], P50) == "unresolved"
    assert decide([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], ERRORS) == "unchanged"
    assert decide([0.0, 0.0, 0.0], [0.01, 0.01, 0.0], ERRORS) == "worse"


def test_compare_command_reports_every_pair(tmp_path):
    def run_file(name, scale):
        runs = [{"workloads": {"rank-topk": {"metrics": {
            "query_p50_ms": {"value": 2.0 * scale + 0.01 * index, "unit": "ms"},
            "queries_per_s": {"value": 400.0 / scale, "unit": "1/s"}}}}}
                for index in range(3)]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return path

    base, same = run_file("a.json", 1.0), run_file("b.json", 1.0)
    output = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", str(base),
         str(same)], cwd=ROOT, capture_output=True, text=True, check=True)
    rows = [line for line in output.stdout.splitlines()
            if line.startswith("rank-topk")]
    assert len(rows) == 2 and all("unchanged" in row for row in rows)


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with the catalogue
# ---------------------------------------------------------------------- #
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == spec.DEFAULT_SECONDS
    listed = [workload for workload in spec.WORKLOADS if workload.listed]
    assert [entry["name"] for entry in manifest["workloads"]] == \
        list(spec.LISTED) == [workload.name for workload in listed]
    for entry, workload in zip(manifest["workloads"], listed):
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workload.why and len(entry["why"]) <= 200
    shared = spec.shared_end_to_end()
    assert [entry["name"] for entry in manifest["end_to_end"]] == \
        [metric.name for metric in shared]
    for entry, metric in zip(manifest["end_to_end"], shared):
        assert entry == {"name": metric.name, "unit": metric.unit,
                         "better": metric.better, "bound": metric.bound.value}
        assert metric.bound.kind == "relative" and metric.bound.value <= 0.25
    assert manifest["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in spec.listed_layers()]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert all(_UNIT.match(entry["unit"])
               for key in ("end_to_end", "per_layer")
               for entry in manifest[key])


def _readme_rows(heading):
    """The metric rows of the README table under ``heading``, cell by cell."""
    text = Path(__file__).with_name("README.md").read_text(encoding="utf-8")
    section = text.split(heading + "\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def _workloads_cell(workloads):
    if workloads == spec.WORKLOAD_NAMES:
        return "all"
    return ", ".join(f"`{name}`" for name in workloads)


def test_readme_tables_match_the_catalogue():
    assert _readme_rows("## End-to-end metrics") == [
        [f"`{metric.name}`", metric.unit, metric.better,
         metric.bound.describe(), _workloads_cell(metric.workloads),
         "yes" if metric.shared else "no"]
        for metric in spec.END_TO_END]
    assert _readme_rows("## Per-layer metrics (traced run)") == [
        [f"`{layer.name}`", layer.unit, layer.better, layer.measured_by,
         _workloads_cell(layer.workloads), layer.moves]
        for layer in spec.LAYERS]


# ---------------------------------------------------------------------- #
# Whole runs
# ---------------------------------------------------------------------- #
def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_every_workload(trace, tmp_path):
    started = time.monotonic()
    runs = tmp_path / "runs.json"
    output = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--scale", "tiny",
         "--seconds", "0.5", "--trace", str(trace), "--output", str(runs)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert output.returncode == 0, output.stderr[-3000:]
    result = _last_json(output.stdout)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    expected = spec.listed_layers() if trace else spec.shared_end_to_end()
    assert len(result["metrics"]) == len(expected) * len(spec.WORKLOAD_NAMES)
    for workload in spec.WORKLOAD_NAMES:
        for metric in expected:
            value = result["metrics"][f"{workload}/{metric.name}"]["value"]
            assert isinstance(value, (int, float))
            # Every end-to-end metric, and every time a workload measures,
            # was really measured: it cannot read 0.
            if not trace or (metric.unit in spec.TIME_UNITS
                             and workload in metric.workloads):
                assert value > 0, (workload, metric.name)
    # The results file has every metric of every workload, unlisted ones
    # included.
    [kept] = json.loads(runs.read_text())["runs"]
    for workload, result in kept["workloads"].items():
        if trace:
            for layer in spec.layers_for(workload):
                value = result["layers"][layer.name]["value"]
                assert value > 0 or layer.unit not in spec.TIME_UNITS, \
                    (workload, layer.name)
        else:
            assert set(result["metrics"]) == {
                metric.name for metric in spec.end_to_end_for(workload)}
    assert time.monotonic() - started < 170


def test_a_corrupted_answer_fails_the_gate(monkeypatch, capsys, tmp_path):
    from . import runner, workloads

    monkeypatch.setattr(workloads, "naive_elca", lambda lists: [])
    code = runner.run(tmp_path, "paper-mem", spec.DEFAULT_SEED, 0.2,
                      trace=False, scale="tiny")
    captured = capsys.readouterr()
    assert code == runner.GATE_FAILED
    assert captured.out == ""
    assert "correctness gate failed" in captured.err


def test_a_failed_workload_prints_no_metrics(monkeypatch, capsys):
    from . import cli

    monkeypatch.setattr(cli, "_spawn", lambda name, arguments: (3, None))
    assert cli.main(["--workload", "paper-mem"]) == 3
    assert capsys.readouterr().out == ""


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    output = subprocess.run(
        manifest["command"] + ["--workload", "paper-mem", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert output.returncode != 0
    assert "{" not in output.stdout
