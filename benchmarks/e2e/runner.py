"""One workload in one process: set-ups, gates, timed phases, the result.

The parent (``cli.py``) starts this in a child process per workload so
each workload's memory peak is its own.  The result is one JSON object
printed as the last line of standard output; a failed gate prints nothing
there and exits with ``GATE_FAILED``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from . import spec
from .inputs import SIZES
from .speed import SpeedProbe
from .stats import percentile, supported
from .tracing import Tracer, instrumented_modules
from .workloads import WORKLOADS, Context, GateFailure, Phase, Workload

#: Set-ups per untraced run; ``setup_s`` is their median, at the nominal
#: machine speed.
SETUP_REPEATS = 5

#: Speed-probe samples taken before each set-up and after the last.
SETUP_PROBES = 20

#: Share of a traced run's seconds measured untraced, for the overhead ratio.
UNTRACED_SHARE = 0.4

GATE_FAILED = 3

DIGESTS = Path(__file__).with_name("digests.json")


def answer_digest(answers: List[Any]) -> str:
    encoded = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def check_pinned(workload: str, scale: str, seed: int, digest: str) -> None:
    """At the default seed, answers must match the pinned digest."""
    if seed != spec.DEFAULT_SEED:
        return
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(scale, {})
    expected = pinned.get(workload)
    if expected is not None and expected != digest:
        raise GateFailure(f"answer digest {digest} differs from the pinned "
                          f"{expected} ({DIGESTS.name}, seed {seed})")


def run(root: Path, workload_name: str, seed: int, seconds: float,
        trace: bool, scale: str) -> int:
    work = root / ".e2e" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    context = Context(root=root, work=work, seed=seed, sizes=SIZES[scale],
                      seconds=seconds)
    workload = WORKLOADS[workload_name](context)
    try:
        result = _run(workload, root, seed, seconds, trace, scale)
    except GateFailure as failure:
        print(f"{workload_name}: correctness gate failed: {failure}",
              file=sys.stderr)
        return GATE_FAILED
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _log(workload: Workload, message: str) -> None:
    print(f"[{workload.name}] {message}", file=sys.stderr, flush=True)


def _run(workload: Workload, root: Path, seed: int, seconds: float,
         trace: bool, scale: str) -> Dict[str, Any]:
    setups = []
    probe = SpeedProbe()
    for _ in range(1 if trace else SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        probe.sample(SETUP_PROBES)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    probe.sample(SETUP_PROBES)
    _log(workload, "set-up " + "/".join(f"{value:.2f}" for value in setups)
         + " s; running the correctness gates")
    digest = answer_digest(workload.gate())
    check_pinned(workload.name, scale, seed, digest)
    _log(workload, f"gates passed (answers {digest[:12]}); measuring "
                   f"{seconds:g} s{' traced' if trace else ''}")
    tracer = Tracer()
    if trace:
        untraced = workload.measure(seconds * UNTRACED_SHARE, None)
        with instrumented_modules(tracer):
            timed = workload.measure(seconds * (1 - UNTRACED_SHARE), tracer)
        phases = [untraced, timed]
    else:
        timed = workload.measure(seconds, None)
        phases = [timed]
    _log(workload, "measured; running the after-run gates")
    extra = workload.finish()
    workload.teardown()
    _log(workload, "done")

    result: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": int(trace), "correct": True,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "digest": digest,
        "diagnostics": _diagnostics(timed, setups, probe),
    }
    if trace:
        layers = {layer.name: timed.layers.get(layer.name, 0.0)
                  for layer in spec.LAYERS}
        layers["trace.overhead_ratio"] = (timed.read_percentile(50)
                                          / untraced.read_percentile(50))
        result["layers"] = {name: {"value": value,
                                   "unit": spec.LAYER_BY_NAME[name].unit}
                            for name, value in layers.items()}
        spans = root / ".e2e" / f"spans-{workload.name}-{seed}.json"
        tracer.dump(spans)
        result["diagnostics"]["spans"] = str(spans.relative_to(root))
    else:
        values = _end_to_end(workload, timed, setups, probe)
        values.update(timed.extra)
        values.update(extra)
        result["metrics"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in spec.end_to_end_for(workload.name)
            if metric.name in values}
    return result


def _end_to_end(workload: Workload, phase: Phase, setups: List[float],
                probe: SpeedProbe) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups) * probe.factor(),
        "query_p50_ms": phase.read_percentile(50),
        "query_p90_ms": phase.read_percentile(90),
        "queries_per_s": phase.queries_per_s(),
        "peak_rss_mb": workload.peak_rss_mb(),
        "error_rate": phase.failed / phase.attempted,
    }


def _diagnostics(phase: Phase, setups: List[float],
                 probe: SpeedProbe) -> Dict[str, Any]:
    """What the metrics were taken from.  Times here are as measured, at
    the machine's speed of the moment, not scaled to the nominal one."""
    latencies = phase.latencies_ms
    diagnostics: Dict[str, Any] = dict(phase.diagnostics)
    diagnostics.update({
        "samples": len(latencies),
        "distinct_requests": len(phase.per_request_ms),
        "closed_loop": phase.closed,
        "speed": phase.speed,
        "measured_query_p50_ms": phase.raw_percentile(50),
        "measured_query_p90_ms": phase.raw_percentile(90),
        "p90_supported": supported(len(latencies), 90),
        "query_p99_ms": percentile(latencies, 99),
        "p99_supported": supported(len(latencies), 99),
        "query_max_ms": max(latencies),
        "setup_runs_s": setups,
        "setup_speed": probe.factor(),
        "passes": phase.passes,
    })
    return diagnostics
