"""A fixed speed job that measures how fast the host is right now.

The benchmark shares its cores with other tenants of the machine. On a
2-core container of a shared x86_64 machine the speed one thread gets
drifts by a third or more over minutes, with the same work taking 3.5 s
in one minute and 6 s a few minutes later. Such drift moves
every timing in a run together, so the runner times this job before the
first repetition and after each one, and scales the run's mean host time
per unit by ``NOMINAL_S`` over the job's mean time: the result reads in
seconds of a host on which the job takes exactly ``NOMINAL_S``.

The job depends only on NumPy and this file, never on the simulator, so a
change to the simulator cannot move it. Its work mirrors the simulator's
mix: a Jacobi stencil on a small grid (the CFD solver's Poisson sweeps)
and a heap-and-bytes loop in the interpreter (the event engine and the
telemetry codec).
"""

from __future__ import annotations

import heapq
import struct
import time

import numpy as np

#: The job's time on the nominal host, in seconds.
NOMINAL_S = 0.60

_GRID = 64
_SWEEPS = 10_000
_EVENTS = 300_000


def _stencil() -> float:
    rhs = np.linspace(0.0, 1.0, _GRID * _GRID).reshape(_GRID, _GRID)
    p = np.zeros((_GRID + 2, _GRID + 2))
    for _ in range(_SWEEPS):
        p[1:-1, 1:-1] = 0.25 * (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - rhs)
    return float(p[_GRID // 2, _GRID // 2])


def _events() -> int:
    queue: list[tuple[int, int]] = []
    sink: dict[int, bytes] = {}
    for i in range(_EVENTS):
        heapq.heappush(queue, ((i * 7919) % 1000, i))
        sink[i & 1023] = struct.pack("<dI", i * 0.5, i)
        if len(queue) > 64:
            heapq.heappop(queue)
    return len(sink)


def time_job() -> float:
    """Host seconds the speed job takes now."""
    t0 = time.perf_counter()
    _stencil()
    _events()
    return time.perf_counter() - t0
