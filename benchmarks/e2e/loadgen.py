"""An open-loop load generator that times requests from their due time.

Requests follow a fixed timetable regardless of how fast answers come
back, over a small number of pipelined connections (the server answers
each connection in order).  Every latency runs from the request's
*scheduled* send time, not from when the generator got round to sending
it, so a stall in the server or in the generator is charged to every
request it delayed (no coordinated omission); how late the generator
itself ran is recorded per request as ``sent - scheduled``.

Sends wake on the event loop's timer, and any lateness is part of every
latency.  :func:`run` drives the generator on a ``select()`` loop: epoll,
asyncio's default on Linux, waits in whole milliseconds and woke sends
0.6 ms late at the median, where ``select()`` woke them 0.1 ms late.
Spinning through the last millisecond before each send was about as
precise, but took about a tenth of a core from the server on a two-core
machine and made the served p90 vary twice as much between runs.

Framing reuses ``repro.service.protocol.encode_message`` /
``decode_message``; nothing from ``repro.service.loadgen`` is used.
"""

from __future__ import annotations

import asyncio
import math
import selectors
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.service.protocol import ServiceError, decode_message, encode_message

#: Head start between building the timetable and its first due time.
LEAD_SECONDS = 0.05

#: Response lines can carry whole corpus answers.
READ_LIMIT = 1 << 24

#: How long answers are awaited after a timetable window closes.
DRAIN_SECONDS = 10.0

#: Flush the socket buffer once this many bytes are queued.
_HIGH_WATER = 1 << 20


@dataclass(frozen=True)
class Item:
    """One request of a timetable."""

    due: float       #: seconds after the timetable starts
    payload: bytes   #: one encoded request line
    kind: str        #: ``"read"`` or ``"write"``
    #: Pin the request to one connection (answers of one connection come
    #: back in order); ``None`` spreads requests round-robin.
    connection: Optional[int] = None


@dataclass
class Sample:
    """Timestamps of one request."""

    kind: str
    connection: int
    scheduled: float
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False

    @property
    def answered(self) -> bool:
        return not math.isnan(self.done)

    @property
    def latency(self) -> float:
        """Seconds from the due time to the answer."""
        return self.done - self.scheduled

    @property
    def lateness(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.scheduled

    @property
    def service(self) -> float:
        """Seconds from the actual send to the answer."""
        return self.done - self.sent


class Recorder:
    """Stamps requests against ``clock``; answers match requests FIFO."""

    def __init__(self, items: Sequence[Item], start: float, connections: int,
                 clock: Callable[[], float]) -> None:
        self.clock = clock
        self.samples = [
            Sample(item.kind,
                   index % connections if item.connection is None
                   else item.connection,
                   start + item.due)
            for index, item in enumerate(items)]
        self._waiting: List[Deque[int]] = [deque()
                                           for _ in range(connections)]
        self._answered = 0

    def sent(self, index: int) -> Sample:
        sample = self.samples[index]
        sample.sent = self.clock()
        self._waiting[sample.connection].append(index)
        return sample

    def received(self, connection: int, line: bytes) -> Sample:
        sample = self.samples[self._waiting[connection].popleft()]
        sample.done = self.clock()
        sample.ok = _is_ok(line)
        self._answered += 1
        return sample

    def outstanding(self) -> List[int]:
        """Requests sent but not yet answered, per connection."""
        return [len(waiting) for waiting in self._waiting]

    @property
    def complete(self) -> bool:
        return self._answered == len(self.samples)


def _is_ok(line: bytes) -> bool:
    # Canonical search answers start with the ok flag (sorted keys, no id);
    # anything else is decoded in full.
    if line.startswith(b'{"ok":true'):
        return True
    try:
        return decode_message(line).get("ok") is True
    except ServiceError:
        return False


@dataclass
class Step:
    """What one timetable run observed."""

    samples: List[Sample]
    duration: float
    #: Unanswered requests per connection when the timetable window ended.
    outstanding: List[int] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[Sample]:
        return [sample for sample in self.samples if sample.kind == kind]


async def run_timetable(address: Tuple[str, int], items: Sequence[Item],
                        duration: float, connections: int = 2) -> Step:
    """Send ``items`` on their timetable and wait for the answers.

    ``duration`` is the timetable window; outstanding requests are counted
    at its end, then answers are awaited for up to ``DRAIN_SECONDS`` more.
    Requests still unanswered after that count as failed.
    """
    clock = time.perf_counter
    streams = [await asyncio.open_connection(*address, limit=READ_LIMIT)
               for _ in range(connections)]
    start = clock() + LEAD_SECONDS
    recorder = Recorder(items, start, connections, clock)
    answered = asyncio.Event()
    if not items:
        answered.set()

    async def read(connection: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            recorder.received(connection, line)
            if recorder.complete:
                answered.set()

    readers = [asyncio.ensure_future(read(index, reader))
               for index, (reader, _) in enumerate(streams)]
    try:
        for index, item in enumerate(items):
            delay = recorder.samples[index].scheduled - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[recorder.sent(index).connection][1]
            writer.write(item.payload)
            if writer.transport.get_write_buffer_size() > _HIGH_WATER:
                await writer.drain()
        delay = start + duration - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outstanding = recorder.outstanding()
        try:
            await asyncio.wait_for(answered.wait(), timeout=DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass  # unanswered requests stay failed
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        for task in readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
    return Step(recorder.samples, duration, outstanding)


def timetable(rate: float, duration: float, payloads: Sequence[bytes],
              connection: Optional[int] = None) -> List[Item]:
    """``rate`` reads per second for ``duration`` seconds, cycling payloads."""
    count = int(rate * duration + 1e-9)
    return [Item(index / rate, payloads[index % len(payloads)], "read",
                 connection)
            for index in range(count)]


def merge_timetables(*tables: Sequence[Item]) -> List[Item]:
    """One timetable holding every item, in due order (stable)."""
    merged = [item for table in tables for item in table]
    merged.sort(key=lambda item: item.due)
    return merged


def run(coroutine: Awaitable[Any]) -> Any:
    """Run ``coroutine`` to completion on a new ``select()`` event loop."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


async def _call(address: Tuple[str, int],
                messages: Sequence[Dict[str, object]]) -> List[bytes]:
    reader, writer = await asyncio.open_connection(*address, limit=READ_LIMIT)
    try:
        answers = []
        for message in messages:
            writer.write(encode_message(message))
            await writer.drain()
            answers.append(await reader.readline())
        return answers
    finally:
        writer.close()


def call(address: Tuple[str, int], messages: Sequence[Dict[str, object]],
         timeout: Optional[float] = 120.0) -> List[bytes]:
    """Send ``messages`` one at a time on one connection; raw answer lines."""
    return run(asyncio.wait_for(_call(address, messages), timeout))
