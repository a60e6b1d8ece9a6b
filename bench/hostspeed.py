"""Host-speed reference for the end-to-end times.

The shared virtual machines this benchmark runs on change speed by 30-50%
for seconds to minutes at a time (a neighbour on the same physical core).
A fixed reference kernel, timed between operations at most every
``INTERVAL_S``, measures that speed; every operation time is scaled by the
reference times around it to the speed at which the kernel takes
``NOMINAL_S``.  The kernel mixes interpreter work with numpy work on a
1 MB complex array.  It writes into buffers it allocated once, so its time
does not depend on the state the operation before it left the allocator in.
On the host it was tuned on, scaling cut the spread of trichotomy pass
times within a process from 8.5% to about 3%.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.009
INTERVAL_S = 0.1
LOOP = 150_000
ROUNDS = 12


class HostSpeed:
    def __init__(self):
        self._array = np.linspace(0.0, 1.0, 2**16) * (1 + 1j)
        self._out = np.empty(2**16)
        self._kernel()  # first call pays numpy's lazy set-up
        self.samples: list[float] = []
        self._last = -math.inf

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i
        for _ in range(ROUNDS):
            np.abs(self._array, out=self._out)
            np.power(self._out, 2.5, out=self._out)
        return time.perf_counter() - t0

    def tick(self, force: bool = False) -> int:
        """Time the kernel if ``INTERVAL_S`` has passed (or ``force``); index of the latest sample."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(self._kernel())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def factor(self, k: int) -> float:
        """Host slowdown for work done between samples ``k`` and ``k + 1``."""
        around = self.samples[k:k + 2]
        return sum(around) / len(around) / NOMINAL_S
