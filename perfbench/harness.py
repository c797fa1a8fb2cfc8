"""Measurement arithmetic shared by every workload.

Standard library only, so that ``run.py`` can import it at module level:
spawned shard workers re-import the ``__main__`` script, and anything it
pulls in at import time is paid once per worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

#: A tail percentile needs at least this many samples beyond it to be read.
MIN_SAMPLES_BEYOND = 10


# -- percentiles ---------------------------------------------------------------


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, stated with the sample it came from."""

    level: float
    value: float
    n: int

    @property
    def beyond(self) -> int:
        """Samples strictly above this rank (the tail the level summarises)."""
        return self.n - math.ceil(self.level / 100.0 * self.n)


def percentile(values: Sequence[float], level: float) -> Percentile:
    """Nearest-rank percentile: the smallest value with ``level``% at or below.

    An empty sample gives ``value == 0.0`` with ``n == 0``; callers report
    the count next to the value, so an empty percentile is never mistaken
    for a measured zero.
    """
    if not 0.0 < level <= 100.0:
        raise ValueError(f"percentile level out of (0, 100]: {level}")
    n = len(values)
    if n == 0:
        return Percentile(level, 0.0, 0)
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * n))
    return Percentile(level, float(ordered[rank - 1]), n)


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of a run's repeated measurements."""

    median: float
    q1: float
    q3: float
    n: int


def summarize(values: Sequence[float]) -> Summary:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        v = float(values[0])
        return Summary(v, v, v, 1)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return Summary(float(med), float(q1), float(q3), len(values))


# -- failure accounting -----------------------------------------------------------


@dataclass
class ErrorLedger:
    """Failed operations against attempted ones, summed over a run.

    An operation is whatever the workload counts (a telemetry send, a CFD
    trigger, a scenario, an output check). A repetition that raises fails
    every operation it would have attempted: :meth:`record_raise` charges
    the workload's nominal operation count as both attempted and failed.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int) -> None:
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(
                f"inconsistent operation counts: {failed} failed of {attempted}"
            )
        self.attempted += attempted
        self.failed += failed

    def record_raise(self, nominal_ops: int, error: BaseException) -> None:
        if nominal_ops < 1:
            raise ValueError(f"nominal_ops must be >= 1: {nominal_ops}")
        self.attempted += nominal_ops
        self.failed += nominal_ops
        self.errors.append(f"{type(error).__name__}: {error}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- tracing overhead ------------------------------------------------------------------


@dataclass(frozen=True)
class Overhead:
    traced_s: float
    untraced_s: float

    @property
    def overhead_s(self) -> float:
        """Traced minus untraced wall time of the same work."""
        return self.traced_s - self.untraced_s

    @property
    def ratio(self) -> float:
        """Overhead as a share of the untraced wall time."""
        if self.untraced_s <= 0:
            raise ValueError(f"untraced wall must be positive: {self.untraced_s}")
        return self.overhead_s / self.untraced_s


# -- host-speed drift ------------------------------------------------------------------------


def speed_scaled(
    per_unit: Sequence[float], job_times: Sequence[float], nominal_s: float
) -> float:
    """A run's mean host time per unit, rescaled to a host of nominal speed.

    ``job_times`` are the speed job's times, taken between the run's
    repetitions; their mean stands for the host's speed over the run. The
    result reads in seconds of a host on which the job takes ``nominal_s``.
    """
    if not per_unit or not job_times:
        raise ValueError("need at least one repetition and one job time")
    if min(job_times) <= 0 or nominal_s <= 0:
        raise ValueError("job times must be positive")
    return statistics.fmean(per_unit) * nominal_s / statistics.fmean(job_times)


# -- self-time folding --------------------------------------------------------------------


def fold_self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    layers: Sequence[str],
) -> dict[str, float]:
    """Per-layer self time of a span forest.

    Span ``i`` covers ``[starts[i], ends[i]]``; ``parents[i]`` is the
    index of the enclosing span or -1 for a root. Spans come from
    synchronous wrapped calls, so every child lies inside its parent and
    siblings do not overlap: the part of a parent its children cover is
    the sum of their durations. A span's self time is its duration minus
    that sum, and a layer's self time is the sum over its spans.
    """
    n = len(starts)
    if not (len(ends) == len(parents) == len(layers) == n):
        raise ValueError("span columns differ in length")
    child_cover = [0.0] * n
    durations = [ends[i] - starts[i] for i in range(n)]
    for i in range(n):
        d = durations[i]
        if d < 0:
            raise ValueError(f"span {i} ends before it starts")
        p = parents[i]
        if p >= 0:
            if not (starts[p] <= starts[i] and ends[i] <= ends[p]):
                raise ValueError(f"span {i} is not inside its parent {p}")
            child_cover[p] += d
    out: dict[str, float] = {}
    for i in range(n):
        out[layers[i]] = out.get(layers[i], 0.0) + durations[i] - child_cover[i]
    return out


# -- canonical outputs ------------------------------------------------------------------


def digest(obj: Any) -> str:
    """SHA-256 of an object's canonical JSON (sorted keys, exact floats)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- provenance stamp -------------------------------------------------------------------


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _dist_version(name: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def stamp(root: str) -> dict[str, Any]:
    """Host and software identity for a result record."""
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _dist_version("numpy"),
        "scipy": _dist_version("scipy"),
        "git_sha": git_sha(root),
    }


# -- memory ----------------------------------------------------------------------------


def _status_kb(pid: str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass  # the process ended between listing and reading
    return 0


def _child_pids() -> list[str]:
    pids: list[str] = []
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(fh.read().split())
        except OSError:
            continue
    return pids


class PeakRss:
    """Peak resident memory of this process plus its child processes.

    A daemon thread sums ``VmRSS`` over this process and its live children
    every ``interval_s``; the process's own high-water mark (``VmHWM``)
    catches peaks between samples. Linux ``/proc`` only: elsewhere the
    peak reads 0.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        total = _status_kb("self", "VmRSS:")
        for pid in _child_pids():
            total += _status_kb(pid, "VmRSS:")
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._sample()
        self.peak_kb = max(self.peak_kb, _status_kb("self", "VmHWM:"))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb * 1024 / 1e6


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return float(statistics.median(vals)) if vals else 0.0
