"""Spans recorded by the benchmark around calls into each layer.

Nothing here edits ``src/``: the traced run wraps public seams of the
program from the outside and restores them afterwards.

* :class:`TracedSource` is a delegating ``PostingSource`` passed as
  ``SearchEngine(source=...)`` (storage layer).
* :func:`instrument_engine` replaces each pipeline's ``lca_function``,
  ``pruner`` and ``record_tree`` instance attributes, reached through
  ``engine.algorithm(name)`` (``lca`` and ``core``).
* :func:`instrumented_modules` swaps ``Query.parse`` (``text``),
  ``repro.core.pipeline.build_rtfs`` and ``repro.corpus.engine``'s
  ``rank_result`` / ``keyword_impact`` (``core`` and ``corpus``).

Each span records its name, start, end, parent span and request id.  A
span's *self time* is its duration minus the time its children cover, so
the self times of one request add up to its root span; the benchmark's own
timer around the request gives the wall time, and whatever the layer spans
do not cover is reported as ``other``.  Requests are single-threaded, so
children never overlap.

Per-node lookups (``node_label`` / ``node_words``) run thousands of times
per request; each parent span folds them into one aggregate child that
carries the call count and the summed duration (its ``end`` is ``start``
plus that sum), which keeps the trace small without losing their time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Name of the benchmark-level span around one whole request.
ROOT = "request"

# Span fields, stored as lists to keep a long trace small.
_NAME, _START, _END, _PARENT, _REQUEST, _CALLS = range(6)


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[List[Any]] = []
        self.counts: DefaultDict[str, float] = defaultdict(float)
        #: ``(request id, root span index, wall seconds)`` per request.
        self.requests: List[Tuple[int, int, float]] = []
        self._stack: List[int] = []
        self._request: Optional[int] = None
        self._leaves: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self._request, 1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = self.clock()
        if not self._stack or self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][_NAME]!r} closed "
                               f"out of order")

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable[..., Any],
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` timed as ``name``; ``on_result`` sees each return value."""
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapped

    def leaf(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` folded into the current span's aggregate ``name`` child."""
        started = self.clock()
        try:
            return fn(*args)
        finally:
            elapsed = self.clock() - started
            parent = self._stack[-1] if self._stack else -1
            index = self._leaves.get((parent, name))
            if index is None:
                index = len(self.spans)
                self._leaves[(parent, name)] = index
                self.spans.append([name, started, started, parent,
                                   self._request, 0])
            span = self.spans[index]
            span[_END] += elapsed
            span[_CALLS] += 1

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere (a client request), outside any request."""
        self.spans.append([name, start, end, -1, None, 1])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextlib.contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """One whole request: a root span plus the benchmark's wall timer."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        started = self.clock()
        self._request = request_id
        root = self.open(ROOT)
        try:
            yield
        finally:
            self.close(root)
            wall = self.clock() - started
            self._request = None
            self.requests.append((request_id, root, wall))

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        return self_times(self.spans)

    def layer_seconds(self) -> Dict[str, float]:
        """Summed self time per span name, the root excluded."""
        totals: DefaultDict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[_NAME] != ROOT:
                totals[span[_NAME]] += own
        return dict(totals)

    def reconcile(self, tolerance: float = 0.05) -> Tuple[float, float]:
        """``(unattributed seconds, share of requests within tolerance)``.

        A request's attributed time is the sum of its layer spans' self
        times (its root span's duration minus the root's own self time);
        the rest of its wall time is unattributed.
        """
        return reconcile(self.spans, self.requests, tolerance)

    def dump(self, path: Path) -> None:
        """Write every span, request and counter as JSON."""
        payload = {
            "spans": [
                {"name": span[_NAME], "start": span[_START],
                 "end": span[_END], "parent": span[_PARENT],
                 "request": span[_REQUEST], "calls": span[_CALLS]}
                for span in self.spans],
            "requests": [{"request": request, "root": root, "wall": wall}
                         for request, root, wall in self.requests],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[_PARENT]
        if parent >= 0:
            covered[parent] += span[_END] - span[_START]
    return [span[_END] - span[_START] - covered[index]
            for index, span in enumerate(spans)]


def reconcile(spans: Sequence[Sequence[Any]],
              requests: Sequence[Tuple[int, int, float]],
              tolerance: float = 0.05) -> Tuple[float, float]:
    """See :meth:`Tracer.reconcile`."""
    own = self_times(spans)
    unattributed = 0.0
    within = 0
    for _, root, wall in requests:
        attributed = spans[root][_END] - spans[root][_START] - own[root]
        missing = wall - attributed
        unattributed += missing
        if wall > 0 and missing <= tolerance * wall:
            within += 1
    share = within / len(requests) if requests else 0.0
    return unattributed, share


# ---------------------------------------------------------------------- #
# Wrappers installed on the program's public seams
# ---------------------------------------------------------------------- #
class TracedSource:
    """A delegating ``PostingSource`` that times every storage call.

    Optional capabilities (``prefetch_nodes``, ``impact``, ``read_stats``,
    ``analyzer`` ...) are forwarded only when the wrapped source has them, so
    the engine's ``getattr`` probes see the same source shape.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        if hasattr(inner, "prefetch_nodes"):
            self.prefetch_nodes = self._prefetch_nodes

    def __getattr__(self, name: str) -> Any:
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    @property
    def source_id(self) -> str:
        return self._inner.source_id

    def postings(self, keyword: str) -> Any:
        return self._tracer.call("storage.postings", self._inner.postings,
                                 keyword)

    def keyword_nodes(self, query: Any) -> Any:
        tracer = self._tracer
        index = tracer.open("storage.postings")
        try:
            read_stats = getattr(self._inner, "read_stats", None)
            before = read_stats() if read_stats is not None else {}
            lists = self._inner.keyword_nodes(query)
            after = read_stats() if read_stats is not None else {}
        finally:
            tracer.close(index)
        tracer.count("storage.posting_rows",
                     sum(len(postings) for postings in lists.values()))
        for key in ("bytes", "lru_hits", "lru_misses", "merged_cursors"):
            tracer.count(f"storage.read.{key}",
                         after.get(key, 0) - before.get(key, 0))
        return lists

    def frequency(self, keyword: str) -> int:
        return self._tracer.call("storage.postings", self._inner.frequency,
                                 keyword)

    def vocabulary(self) -> List[str]:
        return self._inner.vocabulary()

    def node_label(self, dewey: Any) -> Any:
        return self._tracer.leaf("storage.node_lookup",
                                 self._inner.node_label, dewey)

    def node_words(self, dewey: Any) -> Any:
        return self._tracer.leaf("storage.node_lookup",
                                 self._inner.node_words, dewey)

    def _prefetch_nodes(self, nodes: Sequence[Any],
                        keyword_nodes: Sequence[Any]) -> None:
        self._tracer.count("storage.nodes_prefetched", len(nodes))
        self._tracer.call("storage.node_prefetch", self._inner.prefetch_nodes,
                          nodes, keyword_nodes)


def instrument_engine(engine: Any, tracer: Tracer,
                      algorithms: Sequence[str]) -> None:
    """Time the ``lca``/``core`` stages of the named pipelines of one engine."""
    def candidates(roots: Sequence[Any]) -> None:
        tracer.count("lca.candidates", len(roots))

    def kept(pruned: Any) -> None:
        tracer.count("core.kept_nodes", len(pruned.kept_nodes))
        tracer.count("core.fragment_nodes", len(pruned.fragment.nodes))

    for name in algorithms:
        pipeline = engine.algorithm(name)
        pipeline.lca_function = tracer.wrap("lca.roots",
                                            pipeline.lca_function, candidates)
        pipeline.pruner = tracer.wrap("core.prune", pipeline.pruner, kept)
        pipeline.record_tree = tracer.wrap("core.record_tree",
                                           pipeline.record_tree)


@contextlib.contextmanager
def instrumented_modules(tracer: Tracer) -> Iterator[None]:
    """Swap the module-level seams for timed wrappers; restore on exit."""
    import repro.core.pipeline as pipeline_module
    import repro.corpus.engine as corpus_module
    from repro.core.query import Query

    parse = Query.__dict__["parse"]
    original_parse = parse.__func__

    def traced_parse(cls: Any, raw: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(raw, cls):  # already parsed: a pass-through, not work
            return raw
        return tracer.call("text.parse", original_parse, cls, raw, *args,
                           **kwargs)

    swaps = [
        (pipeline_module, "build_rtfs", "core.rtf"),
        (corpus_module, "rank_result", "core.rank"),
        (corpus_module, "keyword_impact", "corpus.impacts"),
    ]
    originals = [(module, attribute, getattr(module, attribute))
                 for module, attribute, _ in swaps]
    for (module, attribute, span), (_, _, original) in zip(swaps, originals):
        setattr(module, attribute, tracer.wrap(span, original))
    Query.parse = classmethod(traced_parse)
    try:
        yield
    finally:
        Query.parse = parse
        for module, attribute, original in originals:
            setattr(module, attribute, original)
