"""The spawned pool worker: a pipe-driven loop that runs one task after another.

Protocol (coordinator -> worker, worker -> coordinator), all messages
pickled over a ``multiprocessing`` duplex pipe:

============================  ==========================================
``("task", task)``            build a fresh runner for ``task`` (no
                              reply); the advance/finish exchange below
                              follows
``("advance", t, inbound)``   deliver the inbound cross-shard envelopes,
                              drain the shard to barrier ``t``, then
                              reply ``("done", t, events_processed,
                              outbound)`` with the envelopes exported
                              during the window
``("finish",)``               reply ``("results", [result, ...],
                              timings)``, drop the runner and wait for
                              the next ``("task", ...)``
``("close",)``                exit the loop (EOF on the pipe does too)
============================  ==========================================

``inbound``/``outbound`` are tuples of
:class:`~repro.cspot.boundary.FabricEnvelope`; radio scale shards carry
empty tuples on both legs, so the two scenario families share one
protocol. The task selects the runner class (:func:`build_runner`), so
the spawned interpreter only needs the module import path -- the
**spawn** start method is the whole point: a fresh interpreter with no
inherited RNG state, no copy-on-write heap, and the same behaviour on
every platform. (The ``repro.lint`` REPRO404 rule bans fork-context
multiprocessing precisely because a forked child inherits the parent's
RNG registry state mid-run.) Nothing but the pipe survives from one task
to the next: each task gets a new runner, and a runner's results are a
function of its task alone.

Failure surface: an exception inside the loop is shipped as an
``("error", repr)`` message before the worker dies, so the coordinator
can re-raise with context instead of timing out. A worker that dies
*without* a reply (e.g. ``SystemExit``, which is not an ``Exception``)
closes the pipe, and the coordinator's timed receive turns the EOF into
a clear error -- never a hang. Either way the coordinator discards the
whole pool.

Wall-clock note: this module is one of the deliberate REPRO101 allowlist
seams (like the CFD solver's perf probe). The worker measures its own
compute wall time so the benchmark harness can model parallel efficiency
on machines with fewer cores than workers; the timings travel in a
separate side channel and are excluded from every canonical report.
"""

from __future__ import annotations

import os
import time
from multiprocessing.connection import Connection
from typing import Any, Union

from repro.parallel.fabric_shard import FabricShardRunner, FabricShardTask
from repro.parallel.shard import ShardRunner, ShardTask

#: Either runner drives the same barrier protocol (deliver / advance /
#: collect_outbound / finish); the task type selects the class.
AnyRunner = Union[ShardRunner, FabricShardRunner]
AnyTask = Union[ShardTask, FabricShardTask]

#: The classes that cross the coordinator->worker pickling seam. The
#: whole-program lint pass (REPRO511) walks every dataclass field
#: reachable from these roots and rejects ambient state (engines,
#: tracers, live generators, open handles): anything pickled here must
#: be pure data, or worker results silently stop being a function of
#: (task, seed).
PICKLE_SEAM_ROOTS = (
    "repro.parallel.shard.ShardTask",
    "repro.parallel.fabric_shard.FabricShardTask",
)


def build_runner(task: AnyTask) -> AnyRunner:
    """Instantiate the runner class a task calls for (both executors)."""
    if isinstance(task, ShardTask):
        return ShardRunner(task)
    if isinstance(task, FabricShardTask):
        return FabricShardRunner(task)
    raise TypeError(
        f"expected a ShardTask or FabricShardTask, got {type(task)!r}"
    )


def _drop_resource_tracker_fd() -> None:
    """Close the inherited write end of the parent's resource-tracker pipe.

    A spawned child holds that write end for its whole life, and the
    tracker exits only once every write end is closed -- so a parent that
    stops its tracker (``resource_tracker._resource_tracker._stop()``
    waits for the tracker process) would block for as long as an idle
    pool worker lives, i.e. forever. Workers create no tracked resources
    (no semaphores, no shared memory), so they do not need the tracker.
    Imported here: only spawned workers pay for the import.
    """
    from multiprocessing import resource_tracker

    tracker: Any = resource_tracker._resource_tracker  # private: no stub
    fd = tracker._fd
    if fd is not None:
        tracker._fd = None
        os.close(fd)


def _run_task(conn: Connection, task: AnyTask) -> None:
    """Drive one task's advance/finish exchange; the runner dies with it."""
    runner = build_runner(task)
    compute_wall = 0.0
    while True:
        message: tuple[Any, ...] = conn.recv()
        if message[0] == "advance":
            barrier_t = float(message[1])
            inbound = message[2] if len(message) > 2 else ()
            t0 = time.perf_counter()
            runner.deliver(inbound)
            events = runner.advance(barrier_t)
            outbound = runner.collect_outbound()
            compute_wall += time.perf_counter() - t0
            conn.send(("done", barrier_t, events, outbound))
        elif message[0] == "finish":
            results = runner.finish()
            timings = {"compute_wall_s": compute_wall, "cells": len(task.cells)}
            conn.send(("results", results, timings))
            return
        else:
            raise ValueError(f"unknown command mid-task: {message[0]!r}")


def worker_main(conn: Connection) -> None:
    """Serve tasks behind a pipe until ``("close",)`` or EOF; the spawn entry point."""
    _drop_resource_tracker_fd()
    try:
        while True:
            message: tuple[Any, ...] = conn.recv()
            if message[0] == "close":
                return
            if message[0] != "task":
                raise ValueError(f"expected a task, got {message[0]!r}")
            _run_task(conn, message[1])
    except EOFError:
        # The coordinator closed its end: either it discarded the pool
        # (some *other* worker failed mid-run) or it is exiting. Nothing to
        # report and nobody listening: exit quietly.
        return
    except Exception as error:  # ship the failure instead of hanging the pipe
        try:
            conn.send(("error", repr(error)))
        except OSError:
            pass  # coordinator already gone; the EOF on its side suffices
        raise
    finally:
        conn.close()
