"""The coordinator's failure surface: crashes become errors, never hangs.

Two injected failure modes (:class:`~repro.parallel.shard.WorkerCrash`):
``"raise"`` -- the worker raises mid-window and ships the error over the
pipe; ``"exit"`` -- the worker dies without a protocol reply
(``SystemExit`` is not an ``Exception``, so the worker loop cannot
convert it to an ``("error", ...)`` message and the coordinator sees the
pipe close). Both must surface as a clear ``RuntimeError`` naming the
worker, on both executors, within bounded time. So must a worker that
vanishes mid-exchange: a reset connection or a failed send (the
``finish`` send included) is an error naming the worker, never a raw
``OSError``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.parallel import (
    FabricBus,
    FabricShardTask,
    ShardPlan,
    ShardTask,
    WorkerCrash,
    run_shards_serial,
    run_shards_spawn,
)
from repro.parallel.coordinator import _recv, _send
from repro.radio.population import Distribution, RandomVariable, UEPopulation

pytestmark = pytest.mark.filterwarnings("error")

N_SITES = 4


def _fabric_tasks(crash=None, crash_worker=1):
    plan = ShardPlan.build(N_SITES, 2)
    return plan, [
        FabricShardTask(
            n_cells=N_SITES,
            seed=3,
            horizon_s=4.0,
            window_s=2.0,
            cells=cells,
            crash=crash if w == crash_worker else None,
        )
        for w, cells in enumerate(plan.assignments)
    ]


def _fabric_barriers(plan):
    return plan.barrier_times(4.0, 2.0, 0.2)


def _radio_tasks(crash=None):
    population = UEPopulation(
        n_cells=2, ues_per_cell=RandomVariable(5.0, Distribution.POISSON)
    )
    plan = ShardPlan.build(2, 2)
    return plan, [
        ShardTask(
            population=population,
            seed=3,
            horizon_s=4.0,
            window_s=2.0,
            cells=cells,
            crash=crash if w == 1 else None,
        )
        for w, cells in enumerate(plan.assignments)
    ]


class TestCrashValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            WorkerCrash(barrier_index=0, mode="segfault")

    def test_negative_barrier_rejected(self):
        with pytest.raises(ValueError, match="barrier"):
            WorkerCrash(barrier_index=-1)


class TestSerialExecutor:
    def test_raise_surfaces_with_worker_context(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=1))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match=r"worker 1 .*barrier"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus)

    def test_exit_is_contained_not_propagated(self):
        # SystemExit from a shard must not terminate the host process
        # (which would kill pytest itself); the serial executor converts
        # it to the same coordinator error the spawn path produces.
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus)

    def test_radio_shard_crash_surfaces_too(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_serial(tasks, plan.barrier_times(4.0, 2.0, None))


class TestSpawnExecutor:
    def test_raise_ships_the_error_over_the_pipe(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=1))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(
            RuntimeError, match=r"worker 1 failed.*injected shard crash"
        ):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), bus, timeout_s=60.0
            )

    def test_exit_closes_the_pipe_and_raises_cleanly(self):
        plan, tasks = _fabric_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        bus = FabricBus(plan, 4.0)
        with pytest.raises(RuntimeError, match=r"worker 1 died|worker 1"):
            run_shards_spawn(
                tasks, _fabric_barriers(plan), bus, timeout_s=60.0
            )

    def test_radio_spawn_crash_does_not_hang(self):
        plan, tasks = _radio_tasks(WorkerCrash(barrier_index=0, mode="exit"))
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_spawn(
                tasks, plan.barrier_times(4.0, 2.0, None), timeout_s=60.0
            )


class TestHealthyProtocol:
    def test_serial_and_spawn_agree_without_crashes(self):
        plan, tasks = _fabric_tasks(None)
        barriers = _fabric_barriers(plan)
        serial = run_shards_serial(tasks, barriers, FabricBus(plan, 4.0))
        spawned, timings = run_shards_spawn(
            tasks, barriers, FabricBus(plan, 4.0)
        )
        assert len(timings) == 2
        serial.sort(key=lambda r: r.cell_index)
        spawned.sort(key=lambda r: r.cell_index)
        assert [r.records for r in serial] == [r.records for r in spawned]

    def test_busless_run_rejects_cross_shard_traffic(self):
        plan, tasks = _fabric_tasks(None)
        with pytest.raises(RuntimeError, match="without a fabric bus"):
            run_shards_serial(tasks, _fabric_barriers(plan), bus=None)


class _ResetConnection:
    """A pipe end whose peer is gone: every operation fails like a socket."""

    def poll(self, timeout):
        return True

    def recv(self):
        raise ConnectionResetError(104, "Connection reset by peer")

    def send(self, message):
        raise BrokenPipeError(32, "Broken pipe")


class TestVanishedWorker:
    def test_reset_during_receive_names_the_worker(self):
        with pytest.raises(RuntimeError, match="worker 3 died") as info:
            _recv(_ResetConnection(), 3, timeout_s=1.0)
        assert isinstance(info.value.__cause__, ConnectionResetError)

    def test_failed_finish_send_names_the_worker(self):
        with pytest.raises(RuntimeError, match="worker 2 is gone.*finish"):
            _send(_ResetConnection(), ("finish",), 2)

    def test_worker_dying_in_bootstrap_is_a_clear_error(self, tmp_path):
        # A driver script without an ``if __name__ == "__main__"`` guard:
        # each spawned worker re-imports it, tries to spawn again during
        # its bootstrap and dies before reading its task, so the
        # coordinator's receive meets a reset connection.
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from repro.parallel import ShardedScaleScenario
            from repro.radio.population import RandomVariable, UEPopulation

            pop = UEPopulation(n_cells=2, ues_per_cell=RandomVariable(5.0))
            ShardedScaleScenario(pop, horizon_s=20.0, workers=2).run()
        """))
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 1
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: shard worker"), done.stderr
