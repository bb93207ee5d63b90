"""Seeded fault injection for the storage seam.

A :class:`FaultPlan` is a seeded schedule of storage-level misbehaviour —
transient ``sqlite3.OperationalError``\\ s and latency spikes.  The same
seed and the same statement sequence produce the same faults.  Threads
that share a plan interleave their statements differently from run to run,
so a multi-worker chaos run meets a different set of faults each time; its
finite ``max_faults`` budget is what bounds them.

:meth:`FaultPlan.wrap` wraps a ``sqlite3.Connection`` so every
``execute``/``executemany`` consults the plan first (errors + latency).
``SQLiteStore`` wraps each per-thread connection when a plan is set.
:class:`InjectedCrash` is the crash tests' simulated process death at a
``SQLiteStore`` fault point.

Injected errors subclass ``sqlite3.OperationalError`` so the serving
stack's degraded-mode handling treats real and injected storage trouble
identically.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from random import Random
from typing import Any, Dict, Optional

from ..obs import MetricsRegistry
from ..obs import names as metric_names

__all__ = [
    "FaultPlan",
    "FaultingConnection",
    "InjectedCrash",
    "InjectedFault",
]


class InjectedFault(sqlite3.OperationalError):
    """A transient storage error produced by a :class:`FaultPlan`."""


class InjectedCrash(sqlite3.OperationalError):
    """A simulated process death at a mutation fault point.

    Raised before the commit, it rolls the mutation's transaction back,
    which is the state SQLite's rollback journal restores after a real
    crash; raised after the commit, the mutation stays applied.
    """


class FaultPlan:
    """A seeded, bounded schedule of storage faults.

    Parameters
    ----------
    seed:
        Seeds the internal RNG; two plans with the same seed fault the
        same statements in the same order.
    error_rate / latency_rate:
        Per-statement probabilities in ``[0, 1]``.  ``error_rate`` fails
        the statement, ``latency_rate`` adds a synchronous sleep before
        it.
    latency_seconds:
        Duration of one injected latency spike.
    delay:
        Number of leading statements left untouched — lets a server
        finish startup (schema DDL, catalog validation) before the chaos
        begins.
    max_faults:
        Total fault budget (errors + spikes); once spent the plan
        goes quiet, so a bounded retry policy is guaranteed to win
        eventually.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_seconds: float = 0.002,
        delay: int = 0,
        max_faults: Optional[int] = None,
    ) -> None:
        for name, rate in (("error", error_rate), ("latency", latency_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate!r}")
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if max_faults is not None and max_faults < 0:
            raise ValueError("max_faults must be non-negative")
        self.seed = seed
        self.error_rate = error_rate
        self.latency_rate = latency_rate
        self.latency_seconds = latency_seconds
        self.delay = delay
        self.max_faults = max_faults
        self._rng = Random(seed * 6367 + 11)
        self._lock = threading.Lock()
        self._statements = 0
        self._metrics: Optional[MetricsRegistry] = None
        self.injected: Dict[str, int] = {"error": 0, "latency": 0}

    # ----------------------------------------------------------------- #
    # Construction helpers
    # ----------------------------------------------------------------- #
    _SPEC_KEYS = {
        "seed": ("seed", int),
        "error": ("error_rate", float),
        "latency": ("latency_rate", float),
        "latency-ms": ("latency_seconds", lambda raw: float(raw) / 1000.0),
        "delay": ("delay", int),
        "max-faults": ("max_faults", int),
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,key=value`` CLI spec string.

        Keys: ``seed``, ``error``, ``latency`` (rates in ``[0,1]``),
        ``latency-ms``, ``delay``, ``max-faults``.
        """
        settings: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, raw = part.partition("=")
            key = key.strip()
            if not separator or key not in cls._SPEC_KEYS:
                known = ", ".join(sorted(cls._SPEC_KEYS))
                raise ValueError(
                    f"bad fault-plan entry {part!r}; expected key=value with "
                    f"one of: {known}"
                )
            field, convert = cls._SPEC_KEYS[key]
            try:
                settings[field] = convert(raw.strip())
            except ValueError as error:
                raise ValueError(
                    f"bad fault-plan value for {key!r}: {raw.strip()!r}"
                ) from error
        return cls(**settings)

    def describe(self) -> str:
        budget = "unbounded" if self.max_faults is None else str(self.max_faults)
        return (
            f"FaultPlan(seed={self.seed}, error={self.error_rate}, "
            f"latency={self.latency_rate}, delay={self.delay}, "
            f"budget={budget})"
        )

    def bind(self, metrics: MetricsRegistry) -> None:
        """Route injected-fault counts into a metrics registry."""
        self._metrics = metrics

    # ----------------------------------------------------------------- #
    # Decision core
    # ----------------------------------------------------------------- #
    def _spend(self, kind: str, rate: float) -> bool:
        """Deterministically decide whether to inject ``kind`` now."""
        if rate <= 0.0:
            return False
        with self._lock:
            budget = self.max_faults
            if budget is not None and sum(self.injected.values()) >= budget:
                return False
            if self._rng.random() >= rate:
                return False
            self.injected[kind] += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(metric_names.FAULTS_INJECTED, {"kind": kind}).inc()
        return True

    def before_statement(self, sql: str) -> None:
        """Consulted ahead of every statement on a wrapped connection."""
        with self._lock:
            self._statements += 1
            if self._statements <= self.delay:
                return
        if self._spend("latency", self.latency_rate):
            time.sleep(self.latency_seconds)
        if self._spend("error", self.error_rate):
            raise InjectedFault(
                f"injected storage fault (statement #{self._statements}): "
                f"{sql.split(None, 1)[0] if sql.split() else sql!r} failed"
            )

    def wrap(self, connection: sqlite3.Connection) -> "FaultingConnection":
        return FaultingConnection(connection, self)


class FaultingCursor:
    """Cursor proxy consulting the plan before each statement."""

    def __init__(self, cursor: sqlite3.Cursor, plan: FaultPlan) -> None:
        self._cursor = cursor
        self._plan = plan

    def execute(self, sql: str, parameters: Any = ()) -> "FaultingCursor":
        self._plan.before_statement(sql)
        self._cursor.execute(sql, parameters)
        return self

    def executemany(self, sql: str, seq_of_parameters: Any) -> "FaultingCursor":
        self._plan.before_statement(sql)
        self._cursor.executemany(sql, seq_of_parameters)
        return self

    def __iter__(self) -> Any:
        return iter(self._cursor)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cursor, name)


class FaultingConnection:
    """Connection proxy that injects plan faults on statement execution.

    Only ``execute``/``executemany``/``cursor`` are intercepted; commit,
    rollback, close and the ``with`` transaction block pass straight
    through, so transaction semantics are exactly sqlite's — a plan makes
    statements *fail*, never lie.
    """

    def __init__(self, connection: sqlite3.Connection, plan: FaultPlan) -> None:
        self._connection = connection
        self._plan = plan

    def execute(self, sql: str, parameters: Any = ()) -> sqlite3.Cursor:
        self._plan.before_statement(sql)
        return self._connection.execute(sql, parameters)

    def executemany(self, sql: str, seq_of_parameters: Any) -> sqlite3.Cursor:
        self._plan.before_statement(sql)
        return self._connection.executemany(sql, seq_of_parameters)

    def cursor(self) -> FaultingCursor:
        return FaultingCursor(self._connection.cursor(), self._plan)

    def commit(self) -> None:
        self._connection.commit()

    def rollback(self) -> None:
        self._connection.rollback()

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "FaultingConnection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._connection.__exit__(*exc_info)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._connection, name)
