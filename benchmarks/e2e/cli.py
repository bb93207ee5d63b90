"""Command line of the end-to-end benchmark.

::

    python -m benchmarks.e2e [--workload W ...] [--seed N] [--seconds S]
                             [--trace [0|1]] [--output FILE]
    python -m benchmarks.e2e compare A.json B.json [C.json ...]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0

Each workload runs in its own child process (``worker``).  Nothing is
printed until every requested workload has passed its correctness gates
and finished; a failed gate exits non-zero without metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
untraced, its per-layer metrics with ``--trace 1``.
Human-readable lines before it list every metric with its unit, bound and
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import spec
from .stats import min_samples

ROOT = Path(__file__).resolve().parents[2]
RUN_SCRIPT = Path(__file__).with_name("run.py")

#: A workload process that has not finished by then is killed with its
#: server; 180 s is the most one benchmark invocation may take.
WORKER_TIMEOUT = 170.0


def ensure_program() -> bool:
    """Import the checkout's own ``src/repro``; False if it is not there."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro.cli
    except ImportError as error:
        print(f"cannot import the program from {src}: {error}",
              file=sys.stderr)
        return False
    if src.resolve() not in Path(repro.cli.__file__).resolve().parents:
        print(f"the importable program is {repro.cli.__file__}, not the one "
              f"in {src}", file=sys.stderr)
        return False
    return True


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: five workloads, correctness "
                    "gates first, every metric with its unit.")
    parser.add_argument("--workload", action="append", nargs="+",
                        choices=spec.WORKLOAD_NAMES, metavar="W",
                        help=f"workload(s) to run (default: all of "
                             f"{', '.join(spec.WORKLOAD_NAMES)})")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help="seed of every generated input "
                             f"(default: {spec.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                        help="measured seconds per workload "
                             f"(default: {spec.DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): a traced run printing the "
                             "per-layer metrics")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="append this run's full results to FILE "
                             "(JSON), for `compare`")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; 'tiny' only exercises the code "
                             "paths (self-tests)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["compare"]:
        from .compare import main as compare_main
        return compare_main(arguments[1:])
    if arguments[:1] == ["worker"]:
        return _worker(arguments[1:])
    return _run(_parser().parse_args(arguments))


def _worker(argv: Sequence[str]) -> int:
    parser = _parser()
    parser.prog += " worker"
    arguments = parser.parse_args(argv)
    if not ensure_program():
        return 2
    from .runner import run
    return run(ROOT, arguments.workload[0][0], arguments.seed,
               arguments.seconds, bool(arguments.trace), arguments.scale)


def _run(arguments: argparse.Namespace) -> int:
    if arguments.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not ensure_program():
        return 2
    requested = ([name for group in arguments.workload for name in group]
                 if arguments.workload else list(spec.WORKLOAD_NAMES))
    results = []
    for name in requested:
        code, result = _spawn(name, arguments)
        if code != 0 or result is None:
            print(f"{name}: workload process exited with {code}; no metrics "
                  f"reported", file=sys.stderr)
            return code or 1
        results.append(result)
    for result in results:
        print(render(result))
    if arguments.output:
        append_run(Path(arguments.output), arguments, results)
    print(json.dumps(summary_line(results)))
    return 0


def _spawn(name: str, arguments: argparse.Namespace
           ) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Run one workload in a child process (own session, killed as a group).

    Its temporary files, and its server's (sqlite spills sorts to
    ``TMPDIR``), stay inside the checkout.
    """
    command = [sys.executable, str(RUN_SCRIPT), "worker", "--workload", name,
               "--seed", str(arguments.seed), "--seconds",
               repr(arguments.seconds), "--trace", str(arguments.trace),
               "--scale", arguments.scale]
    temporary = ROOT / ".e2e" / f"tmp-{os.getpid()}-{name}"
    temporary.mkdir(parents=True, exist_ok=True)
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               env=dict(os.environ, TMPDIR=str(temporary)),
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {WORKER_TIMEOUT:g} s", file=sys.stderr)
        return 124, None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            shutil.rmtree(ROOT / ".e2e" / f"work-{process.pid}",
                          ignore_errors=True)
        shutil.rmtree(temporary, ignore_errors=True)
    lines = output.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        return process.returncode or 1, None
    return 0, json.loads(lines[-1])


def render(result: Dict[str, Any]) -> str:
    """Every metric of one workload by name, value, unit and bound."""
    diagnostics = result["diagnostics"]
    lines = [f"== {result['workload']}  seed={result['seed']}  "
             f"seconds={result['seconds']:g}  scale={result['scale']}  "
             f"attempted={result['attempted']}  failed={result['failed']}"]
    if result["trace"]:
        for layer in spec.layers_for(result["workload"]):
            metric = result["layers"][layer.name]
            lines.append(f"  {layer.name:34s} {metric['value']:14.6g} "
                         f"{metric['unit']}")
    else:
        for name, metric in result["metrics"].items():
            bound = spec.END_TO_END_BY_NAME[name].bound.describe()
            note = ""
            if name.startswith("query_p"):
                note = (f"n={diagnostics['samples']}, over the median runs "
                        f"of {diagnostics['distinct_requests']} requests")
                if diagnostics["closed_loop"]:
                    note += (f"; measured "
                             f"{diagnostics['measured_' + name]:.4g} at "
                             f"speed x{diagnostics['speed']:.3f}")
            elif name == "setup_s":
                note = ("measured " + "/".join(
                    f"{value:.3f}" for value in diagnostics["setup_runs_s"])
                    + f" at speed x{diagnostics['setup_speed']:.3f}")
            lines.append(f"  {name:24s} {metric['value']:14.6g} "
                         f"{metric['unit']:16s} bound {bound:5s} {note}")
    p99 = ("" if diagnostics["p99_supported"]
           else f" (fewer than {min_samples(99)} samples)")
    lines.append(f"  diagnostics: query_p99_ms={diagnostics['query_p99_ms']:.4g}"
                 f"{p99} query_max_ms={diagnostics['query_max_ms']:.4g} "
                 f"samples={diagnostics['samples']} "
                 f"passes={diagnostics['passes']}")
    for rate, step in sorted(diagnostics.get("steps", {}).items(),
                             key=lambda item: float(item[0])):
        lines.append(f"  step {rate} req/s: " + _describe_step(step))
    if "step" in diagnostics:
        lines.append("  timetable: " + _describe_step(diagnostics["step"]))
    return "\n".join(lines)


def _describe_step(step: Dict[str, Any]) -> str:
    parts = [f"reads={step['reads']}", f"failed={step['failed']}"]
    for key in ("p50_ms", "p90_ms", "p99_ms", "max_ms", "late_ms_p99"):
        if key in step:
            parts.append(f"{key}={step[key]:.3f}")
    parts.append(f"outstanding_at_end={step['outstanding_at_end']}")
    if "valid" in step:
        parts.append("valid" if step["valid"] else "INVALID (generator late)")
    return " ".join(parts)


def summary_line(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The last stdout line: one workload's metrics, or all, prefixed.

    It holds the metrics ``BENCHMARK.json`` lists: the shared end-to-end
    metrics untraced, the listed per-layer metrics traced.
    """
    shared = {metric.name for metric in spec.shared_end_to_end()}
    listed = {layer.name for layer in spec.listed_layers()}
    metrics: Dict[str, Any] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        if result["trace"]:
            chosen = {name: metric for name, metric in result["layers"].items()
                      if name in listed}
        else:
            chosen = {name: metric for name, metric in result["metrics"].items()
                      if name in shared}
        for name, metric in chosen.items():
            metrics[prefix + name] = metric
    return {"correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics}


def append_run(path: Path, arguments: argparse.Namespace,
               results: List[Dict[str, Any]]) -> None:
    """Add one run to a results file (``{"runs": [...]}``) for `compare`."""
    runs = (json.loads(path.read_text(encoding="utf-8"))["runs"]
            if path.exists() else [])
    runs.append({"seed": arguments.seed, "seconds": arguments.seconds,
                 "scale": arguments.scale, "trace": arguments.trace,
                 "workloads": {result["workload"]: result
                               for result in results}})
    path.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")
