"""The coordinator: partition, barrier, exchange, merge.

Two generic executors drive any shard runner under the conservative
window-barrier protocol:

* :func:`run_shards_serial` -- every shard runs in-process, interleaved
  window by window. No pickling, no processes; the reference executor
  for byte-identity tests and the ``workers=1`` single-process baseline.
* :func:`run_shards_spawn` -- each shard runs on a worker of a
  process-wide **warm pool** (:mod:`repro.parallel.worker`), one pipe per
  worker. The **spawn** start method is required: a forked child would
  inherit the parent's RNG registry and import-time state mid-run (see
  REPRO404).

Both executors run the identical per-barrier exchange: deliver the
envelopes routed at the previous barrier, advance every shard to the
barrier, collect the envelopes each shard exported during the window,
and route them through the :class:`~repro.parallel.envelope.FabricBus`
for delivery no earlier than the *next* barrier. Scenarios without
cross-shard traffic (the radio scale workload) pass ``bus=None`` and the
exchange degenerates to the plain barrier loop.

Pool lifecycle: nothing starts at import or at scenario construction.
The first spawn run starts the workers; later runs reuse them, so a
campaign pays interpreter start-up once instead of once per run. The pool
grows to the largest worker count any run asks for, and a run with fewer
tasks uses the first workers. Each worker builds a fresh runner per task,
so reuse cannot leak state from one run into the next. A lock serialises
runs, an ``atexit`` hook closes the pool (:func:`shutdown_pool` closes it
early), and the workers are daemon processes as the last backstop.

Failure surface (tested in ``tests/parallel/test_worker_failures.py``):
a worker that raises ships an ``("error", ...)`` message the coordinator
re-raises with worker context; a worker that dies silently closes its
pipe, and the guarded send or timed receive turns the EOF, reset or
stall into a clear ``RuntimeError`` naming the worker -- the coordinator
never hangs. Any failure, ``KeyboardInterrupt`` included, discards the
whole pool: a worker whose protocol state is unknown is never reused,
and the next run starts a fresh pool.

:class:`ShardedScaleScenario` is the sharded counterpart of
:class:`repro.core.scale.ScaleScenario`: the same declarative population
and sampling horizon, partitioned by cell across workers and merged into
one :class:`~repro.parallel.report.ParallelReport`. (Its fabric sibling,
:class:`repro.core.fabric_sharded.ShardedFabricScenario`, drives the
same executors with a live bus.)

Determinism invariant (tested in ``tests/parallel/``): same seed + same
scenario produce byte-identical reports for any worker count and either
executor, because every quantity is keyed by cell, every RNG stream is
named by cell, every envelope is delivered at a partition-independent
time in a total order, and every merge is exact.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Optional, Sequence

from repro.cspot.boundary import FabricEnvelope
from repro.parallel.envelope import FabricBus, split_outbound
from repro.parallel.merge import fsum_ordered, merge_sketches, merge_streams
from repro.parallel.plan import CellFault, ShardPlan
from repro.parallel.report import ParallelReport
from repro.parallel.shard import CellShardResult, ShardTask
from repro.parallel.worker import AnyTask, build_runner, worker_main
from repro.radio.population import UEPopulation

EXECUTORS = ("serial", "spawn")

#: Default patience for one worker reply; generous because a barrier may
#: drain an arbitrarily dense window, but finite so a dead worker is an
#: error, not a hang.
DEFAULT_WORKER_TIMEOUT_S = 120.0


def _route(
    bus: Optional[FabricBus],
    per_worker_outbound: Sequence[tuple[FabricEnvelope, ...]],
    next_barrier_t: Optional[float],
    n_workers: int,
) -> list[tuple[FabricEnvelope, ...]]:
    """One barrier's exchange step: route outbound, return inbound."""
    if bus is None:
        for batch in per_worker_outbound:
            if batch:
                raise RuntimeError(
                    f"{len(batch)} cross-shard envelopes exported but the "
                    "scenario runs without a fabric bus"
                )
        return [() for _ in range(n_workers)]
    inbound = bus.route(split_outbound(per_worker_outbound), next_barrier_t)
    return [tuple(batch) for batch in inbound]


def run_shards_serial(
    tasks: Sequence[AnyTask],
    barriers: Sequence[float],
    bus: Optional[FabricBus] = None,
) -> list[Any]:
    """Drive every shard in-process under the barrier/exchange protocol."""
    runners = [build_runner(task) for task in tasks]
    n = len(runners)
    pending: list[tuple[FabricEnvelope, ...]] = [() for _ in range(n)]
    for i, barrier_t in enumerate(barriers):
        next_barrier_t = barriers[i + 1] if i + 1 < len(barriers) else None
        for w, runner in enumerate(runners):
            try:
                runner.deliver(pending[w])
                runner.advance(barrier_t)
            except (Exception, SystemExit) as error:
                # SystemExit is the "die without a reply" injection; under
                # the serial executor it must surface as the same clear
                # coordinator error the spawn executor produces, not kill
                # the host process.
                raise RuntimeError(
                    f"shard worker {w} (cells {tasks[w].cells}) failed at "
                    f"barrier t={barrier_t}: {error!r}"
                ) from error
        outbound = [runner.collect_outbound() for runner in runners]
        pending = _route(bus, outbound, next_barrier_t, n)
    results: list[Any] = []
    for runner in runners:
        results.extend(runner.finish())
    return results


def _send(conn: Connection, message: tuple[Any, ...], worker: int) -> None:
    """One guarded send; a vanished worker becomes a clear error."""
    try:
        conn.send(message)
    except OSError as broken:  # BrokenPipeError, ConnectionResetError, ...
        raise RuntimeError(
            f"shard worker {worker} is gone (sending {message[0]!r} failed: "
            f"{broken!r})"
        ) from broken


def _recv(
    conn: Connection, worker: int, timeout_s: float
) -> tuple[Any, ...]:
    """One timed receive; EOF, resets and stalls become clear errors."""
    try:
        if not conn.poll(timeout_s):
            raise RuntimeError(
                f"shard worker {worker} sent no reply within {timeout_s}s "
                "(stalled or deadlocked)"
            )
        message: tuple[Any, ...] = conn.recv()
    except (EOFError, OSError) as gone:
        raise RuntimeError(
            f"shard worker {worker} died without a reply ({gone!r})"
        ) from gone
    return message


def _expect(
    message: tuple[Any, ...], kind: str, worker: int
) -> tuple[Any, ...]:
    if message[0] == "error":
        raise RuntimeError(f"shard worker {worker} failed: {message[1]}")
    if message[0] != kind:
        raise RuntimeError(
            f"protocol violation from worker {worker}: expected {kind!r}, "
            f"got {message[0]!r}"
        )
    return message


@dataclass
class _PoolWorker:
    process: BaseProcess
    conn: Connection


#: The process-wide warm pool. Started lazily by the first spawn run,
#: grown to the largest worker count asked for, reused by every later
#: run, and discarded whole on any failure (see :func:`run_shards_spawn`).
_POOL: list[_PoolWorker] = []
#: Serialises runs: two threads must never interleave on the same pipes.
_POOL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _ensure_pool(n: int) -> list[_PoolWorker]:
    """The first ``n`` live pool workers, spawning any that are missing."""
    global _ATEXIT_REGISTERED
    if any(not w.process.is_alive() for w in _POOL):
        _discard_pool()  # a worker died while idle: start afresh
    ctx = mp.get_context("spawn")
    while len(_POOL) < n:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()  # the worker holds its own end
        _POOL.append(_PoolWorker(process, parent_conn))
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pool)
        _ATEXIT_REGISTERED = True
    return _POOL[:n]


def _discard_pool() -> None:
    """Kill every pool worker: after a failure, none is in a known state."""
    workers = list(_POOL)
    _POOL.clear()
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)


def shutdown_pool() -> None:
    """Close the warm worker pool gracefully; the next spawn run respawns it.

    Runs automatically at interpreter exit. Call it to release the
    workers' memory early.
    """
    with _POOL_LOCK:
        workers = list(_POOL)
        _POOL.clear()
        for worker in workers:
            try:
                worker.conn.send(("close",))
            except OSError:
                pass  # already gone; the join below reaps it
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()


def run_shards_spawn(
    tasks: Sequence[AnyTask],
    barriers: Sequence[float],
    bus: Optional[FabricBus] = None,
    timeout_s: float = DEFAULT_WORKER_TIMEOUT_S,
) -> tuple[list[Any], list[dict[str, Any]]]:
    """Drive every shard on a warm pool worker; returns (results, timings)."""
    n = len(tasks)
    results: list[Any] = []
    timings: list[dict[str, Any]] = []
    with _POOL_LOCK:
        try:
            pipes = [worker.conn for worker in _ensure_pool(n)]
            for w, (conn, task) in enumerate(zip(pipes, tasks)):
                _send(conn, ("task", task), w)
            pending: list[tuple[FabricEnvelope, ...]] = [() for _ in range(n)]
            for i, barrier_t in enumerate(barriers):
                next_barrier_t = (
                    barriers[i + 1] if i + 1 < len(barriers) else None
                )
                for w, conn in enumerate(pipes):
                    _send(conn, ("advance", barrier_t, pending[w]), w)
                outbound: list[tuple[FabricEnvelope, ...]] = []
                for w, conn in enumerate(pipes):
                    reply = _expect(_recv(conn, w, timeout_s), "done", w)
                    outbound.append(tuple(reply[3]))
                pending = _route(bus, outbound, next_barrier_t, n)
            for w, conn in enumerate(pipes):
                _send(conn, ("finish",), w)
            for w, conn in enumerate(pipes):
                reply = _expect(_recv(conn, w, timeout_s), "results", w)
                results.extend(reply[1])
                timings.append(dict(reply[2]))
        except BaseException:
            # Error, EOF, timeout, protocol violation, KeyboardInterrupt:
            # some worker's protocol state is now unknown, so none is
            # reused. The next run respawns the pool.
            _discard_pool()
            raise
    return results, timings


@dataclass
class ShardedScaleScenario:
    """A population-scale radio simulation, sharded across workers.

    Parameters
    ----------
    population:
        Declarative fleet description; realized per cell from
        ``shard.cell<ccc>.*`` streams inside each owning worker.
    seed:
        Master seed shared by every shard's registry.
    horizon_s / window_s:
        Sampling horizon and window, as in ``ScaleScenario``.
    workers:
        Number of shards to execute concurrently (1..n_cells).
    executor:
        ``"serial"`` or ``"spawn"`` (see module docstring).
    interaction_delay_s:
        Minimum cross-shard interaction delay bounding the conservative
        sync window; ``None`` declares the shards decoupled (the default
        for the pure sampling workload, where no cross-shard message
        exists). Pass
        :data:`~repro.parallel.plan.CSPOT_TRANSFER_FLOOR_S` to model the
        CSPOT transfer floor.
    faults:
        Chaos faults, each routed to the worker owning its cell.
    relative_error:
        Error bound of the per-cell throughput sketches.
    worker_timeout_s:
        Patience for one spawn-worker reply before declaring it dead.
    """

    population: UEPopulation
    seed: int = 0
    horizon_s: float = 60.0
    window_s: float = 10.0
    workers: int = 1
    executor: str = "spawn"
    interaction_delay_s: Optional[float] = None
    faults: tuple[CellFault, ...] = ()
    relative_error: float = 0.01
    worker_timeout_s: float = DEFAULT_WORKER_TIMEOUT_S
    #: Per-worker timing side channel from the last spawn run (empty for
    #: serial); wall-clock data stays out of the canonical report.
    last_timings: list[dict[str, Any]] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive: {self.horizon_s}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive: {self.window_s}")
        if self.window_s > self.horizon_s:
            raise ValueError(
                f"window_s {self.window_s} exceeds horizon_s {self.horizon_s}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; valid: {EXECUTORS}"
            )
        # Fails fast on workers < 1 or workers > n_cells.
        self.plan: ShardPlan = ShardPlan.build(
            self.population.n_cells, self.workers
        )

    @property
    def n_windows(self) -> int:
        return int(self.horizon_s // self.window_s)

    def _tasks(self) -> list[ShardTask]:
        routed = self.plan.route_faults(self.faults)
        return [
            ShardTask(
                population=self.population,
                seed=self.seed,
                horizon_s=self.horizon_s,
                window_s=self.window_s,
                cells=cells,
                faults=routed[w],
                relative_error=self.relative_error,
            )
            for w, cells in enumerate(self.plan.assignments)
        ]

    def _barriers(self) -> tuple[float, ...]:
        return self.plan.barrier_times(
            self.horizon_s, self.window_s, self.interaction_delay_s
        )

    # -- the run -----------------------------------------------------------------

    def run(self) -> ParallelReport:
        """Execute every shard and merge the results canonically."""
        tasks = self._tasks()
        barriers = self._barriers()
        results: list[CellShardResult]
        if self.executor == "serial":
            results = run_shards_serial(tasks, barriers)
            self.last_timings = []
        else:
            results, self.last_timings = run_shards_spawn(
                tasks, barriers, timeout_s=self.worker_timeout_s
            )
        results.sort(key=lambda r: r.cell_index)
        merged_sketch = merge_sketches(
            (r.sketch for r in results), self.relative_error
        )
        trace = merge_streams([r.records for r in results])
        per_cell_ues = tuple(r.n_ues for r in results)
        samples = sum(r.samples for r in results)
        # fsum over cell-ordered per-cell sums would equal merged_sketch.sum
        # (exact partials); use the sketch so one code path owns the sum.
        mean_bps = (
            merged_sketch.sum / merged_sketch.count
            if merged_sketch.count
            else fsum_ordered(())
        )
        return ParallelReport(
            n_cells=self.plan.n_cells,
            total_ues=sum(per_cell_ues),
            sim_seconds=self.horizon_s,
            n_windows=self.n_windows,
            events_processed=sum(r.events for r in results),
            samples_generated=samples,
            aggregate_mean_bps=mean_bps,
            per_cell_ues=per_cell_ues,
            sketch=merged_sketch.to_dict(),
            trace=tuple(trace),
        )
