"""Background compaction policy for live segmented corpora.

The serving stack accumulates delta segments as mutations land; left
alone, reads pay an ever-growing location-resolution and merge cost.  A
:class:`BackgroundCompactor` watches the mutable store and folds segments
into the base generation once a **segment-count trigger** is crossed,
then invalidates the pool's worker engines so later requests see the
compacted state.  Compaction failures back off exponentially (a failing
disk must not turn the compactor into a hot loop); every run, failure and
folded segment is counted through :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..obs import MetricsRegistry
from ..obs import names as metric_names
from ..storage import SQLiteStore
from .engine_pool import EnginePool

__all__ = ["BackgroundCompactor"]


class BackgroundCompactor:
    """A daemon thread compacting the store when segments pile up.

    Parameters
    ----------
    store, pool:
        The mutable store and the pool whose engines must be
        invalidated after each fold.
    max_segments:
        Compact once ``store.segment_count() >= max_segments``.
    interval_seconds:
        Poll period between trigger checks.
    failure_backoff_seconds / max_backoff_seconds:
        After a failed compaction the next check waits the backoff, which
        doubles per consecutive failure up to the cap and resets on
        success.
    """

    def __init__(self, store: SQLiteStore, pool: EnginePool,
                 max_segments: int, interval_seconds: float = 0.5,
                 failure_backoff_seconds: float = 2.0,
                 max_backoff_seconds: float = 60.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_segments < 1:
            raise ValueError(
                f"max_segments must be positive, got {max_segments}")
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}")
        self.store = store
        self.pool = pool
        self.max_segments = max_segments
        self.interval_seconds = interval_seconds
        self.failure_backoff_seconds = failure_backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._failures = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "BackgroundCompactor":
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="repro-compactor")
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------ #
    # The policy loop
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        wait = self.interval_seconds
        while not self._stop.wait(wait):
            wait = self._tick()

    def _tick(self) -> float:
        """One trigger check; returns the next wait in seconds."""
        try:
            if self.store.segment_count() >= self.max_segments:
                outcome = self.store.compact()
                self.pool.invalidate_engines()
                self.metrics.counter(metric_names.COMPACTOR_RUNS).inc()
                self.metrics.counter(
                    metric_names.COMPACTOR_SEGMENTS_FOLDED).inc(
                        int(outcome["segments"]))
            with self._lock:
                self._failures = 0
            return self.interval_seconds
        except Exception:  # lint: allow(exception-discipline)
            # A failing disk must not spin the policy loop; count the
            # failure and back off (a failed compaction rolls back whole,
            # so retrying later is always safe).
            self.metrics.counter(metric_names.COMPACTOR_FAILURES).inc()
            with self._lock:
                self._failures += 1
                failures = self._failures
            return min(self.max_backoff_seconds,
                       self.failure_backoff_seconds * (2 ** (failures - 1)))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        snapshot = self.metrics.snapshot()
        with self._lock:
            failures = self._failures
        return {
            "max_segments": self.max_segments,
            "interval_seconds": self.interval_seconds,
            "consecutive_failures": failures,
            "runs": snapshot["counters"].get(
                metric_names.COMPACTOR_RUNS, 0),
            "failures": snapshot["counters"].get(
                metric_names.COMPACTOR_FAILURES, 0),
            "segments_folded": snapshot["counters"].get(
                metric_names.COMPACTOR_SEGMENTS_FOLDED, 0),
        }
