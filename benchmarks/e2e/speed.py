"""The machine's speed during a run, measured beside the program.

The machine this benchmark was sized on shares its cores with other
tenants.  Their load slows every instruction stream on it by up to 70%,
for anything from a few milliseconds to minutes, so whole runs of unchanged
code came out 20 to 40% apart whichever statistic of their own samples was
taken.  That slowdown moves the program's requests and any other code
running beside them together.  :class:`SpeedProbe` times a fixed kernel of
benchmark code between the program's requests; in-process timings are
reported at the *nominal* speed, at which that kernel takes
``NOMINAL_KERNEL_MS``, by multiplying them with :meth:`SpeedProbe.factor`.
The program cannot change the kernel's cost: the kernel is not program
code, and it allocates nothing the garbage collector tracks, so the size
of the program's heap does not enter it either.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List

#: The kernel's median time (ms) at the nominal machine speed: about its
#: median on the machine the benchmark was sized on.
NOMINAL_KERNEL_MS = 1.5

#: Keys the kernel looks up, about 1 ms of work there.
_KERNEL_KEYS = 3000


class SpeedProbe:
    """Samples of the reference kernel's time taken during one phase."""

    def __init__(self) -> None:
        rng = random.Random(_KERNEL_KEYS)
        self._keys = [rng.randrange(1 << 20) for _ in range(_KERNEL_KEYS)]
        self._ordered = sorted(self._keys)
        self._table = {key: index for index, key in enumerate(self._keys)}
        self.samples_ms: List[float] = []

    def kernel(self) -> int:
        """Dict lookups and binary searches over fixed integers."""
        table, ordered, total = self._table, self._ordered, 0
        for key in self._keys:
            total += table[key] & 7
            total += bisect.bisect_left(ordered, key) & 3
        return total

    def sample(self, times: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(times):
            started = clock()
            self.kernel()
            self.samples_ms.append((clock() - started) * 1000.0)

    def kernel_ms(self) -> float:
        """The kernel's median time over the samples taken."""
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """What a time measured beside these samples is multiplied by to
        give it at the nominal speed (below 1 on a slow machine)."""
        return NOMINAL_KERNEL_MS / self.kernel_ms()
