"""The warm worker pool behind ``executor="spawn"``.

Workers are started by the first spawn run and reused by later ones; any
failure discards the whole pool and the next run respawns it. Reuse must
never change a byte: every spawn digest here is checked against the
serial executor's.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.parallel import (
    ShardedScaleScenario,
    ShardPlan,
    ShardTask,
    WorkerCrash,
    run_shards_spawn,
    shutdown_pool,
)
from repro.radio.population import Distribution, RandomVariable, UEPopulation

pytestmark = pytest.mark.filterwarnings("error")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _scenario(seed=11, workers=2, executor="spawn", n_cells=8):
    return ShardedScaleScenario(
        population=UEPopulation(
            n_cells=n_cells,
            ues_per_cell=RandomVariable(30.0, Distribution.POISSON),
        ),
        seed=seed,
        horizon_s=30.0,
        window_s=10.0,
        workers=workers,
        executor=executor,
    )


def _serial_digest(seed=11):
    return _scenario(seed=seed, workers=1, executor="serial").run().digest


def _pool_pids():
    return {p.pid for p in mp.active_children()}


def _crash_tasks(mode):
    population = UEPopulation(
        n_cells=2, ues_per_cell=RandomVariable(5.0, Distribution.POISSON)
    )
    plan = ShardPlan.build(2, 2)
    tasks = [
        ShardTask(
            population=population,
            seed=3,
            horizon_s=4.0,
            window_s=2.0,
            cells=cells,
            crash=WorkerCrash(barrier_index=0, mode=mode) if w == 1 else None,
        )
        for w, cells in enumerate(plan.assignments)
    ]
    return tasks, plan.barrier_times(4.0, 2.0, None)


def _run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestReuse:
    def test_a_b_a_matches_serial(self):
        serial_a, serial_b = _serial_digest(11), _serial_digest(12)
        first_a = _scenario(seed=11).run().digest
        pids = _pool_pids()
        b = _scenario(seed=12).run().digest
        second_a = _scenario(seed=11).run().digest
        assert first_a == second_a == serial_a
        assert b == serial_b
        assert _pool_pids() == pids, "the warm pool was not reused"

    def test_worker_count_changes_between_runs(self):
        serial = _serial_digest()
        for workers in (2, 4, 1):
            assert _scenario(workers=workers).run().digest == serial, workers
        # The pool grew to the largest count asked for and kept it.
        assert len(_pool_pids()) >= 4

    def test_last_timings_cover_only_the_workers_used(self):
        _scenario(workers=4).run()
        scenario = _scenario(workers=2)
        scenario.run()
        assert [t["cells"] for t in scenario.last_timings] == [4, 4]


class TestConcurrency:
    def test_threads_share_the_pool_without_interleaving(self):
        # More runs in flight than cores: the pool lock must serialise
        # them, or two threads' messages would interleave on one pipe.
        serial = {seed: _serial_digest(seed) for seed in (11, 12, 13)}
        digests = {}

        def run(seed):
            digests[seed] = _scenario(seed=seed, workers=3).run().digest

        threads = [
            threading.Thread(target=run, args=(seed,)) for seed in serial
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert digests == serial


class TestRespawn:
    @pytest.mark.parametrize("mode", ["raise", "exit"])
    def test_crash_discards_pool_and_next_run_matches_serial(self, mode):
        _scenario().run()
        before = _pool_pids()
        tasks, barriers = _crash_tasks(mode)
        with pytest.raises(RuntimeError, match="worker 1"):
            run_shards_spawn(tasks, barriers, timeout_s=60.0)
        assert not (_pool_pids() & before), "a failed run left workers alive"
        assert _scenario().run().digest == _serial_digest()
        assert not (_pool_pids() & before)

    def test_worker_killed_while_idle_is_replaced(self):
        _scenario().run()
        victim = min(_pool_pids())
        os.kill(victim, signal.SIGKILL)
        for _ in range(1000):  # active_children() reaps the dead worker
            if victim not in _pool_pids():
                break
            time.sleep(0.01)
        assert _scenario().run().digest == _serial_digest()
        assert victim not in _pool_pids()

    def test_interrupt_mid_run_discards_pool(self):
        class InterruptingBus:
            def route(self, outbound, next_barrier_t):
                raise KeyboardInterrupt

        scenario = _scenario()
        scenario.run()
        before = _pool_pids()
        with pytest.raises(KeyboardInterrupt):
            run_shards_spawn(
                scenario._tasks(), scenario._barriers(), InterruptingBus()
            )
        assert not (_pool_pids() & before)
        assert _scenario().run().digest == _serial_digest()


class TestLifecycle:
    def test_shutdown_leaves_no_child_alive(self):
        _scenario().run()
        assert _pool_pids()
        shutdown_pool()
        assert mp.active_children() == []
        # ... and the next spawn run simply starts a new pool.
        assert _scenario().run().digest == _serial_digest()

    def test_construction_starts_no_process(self):
        shutdown_pool()
        _scenario(workers=4)
        assert mp.active_children() == []

    def test_import_starts_no_process(self):
        out = _run_python(
            "import multiprocessing as mp\n"
            "import repro.parallel, repro.core\n"
            "print(len(mp.active_children()))\n"
        )
        assert out.strip() == "0"

    def test_interpreter_exit_closes_the_pool(self):
        # The atexit hook closes the workers; the interpreter must exit
        # promptly (the subprocess timeout is the hang detector).
        out = _run_python(
            "import multiprocessing as mp\n"
            "from repro.parallel import ShardedScaleScenario\n"
            "from repro.radio.population import RandomVariable, UEPopulation\n"
            "pop = UEPopulation(n_cells=4, ues_per_cell=RandomVariable(5.0))\n"
            "ShardedScaleScenario(pop, horizon_s=20.0, workers=2).run()\n"
            "print(len(mp.active_children()))\n"
        )
        assert out.strip() == "2"

    def test_resource_tracker_stop_returns_while_pool_idle(self):
        # Spawned children inherit the write end of the resource tracker's
        # pipe, and the tracker exits only when every write end is closed:
        # unless workers drop it, stopping the tracker blocks for as long
        # as an idle pool worker lives.
        out = _run_python(
            "import multiprocessing as mp, time\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.parallel import ShardedScaleScenario\n"
            "from repro.radio.population import RandomVariable, UEPopulation\n"
            "pop = UEPopulation(n_cells=4, ues_per_cell=RandomVariable(5.0))\n"
            "ShardedScaleScenario(pop, horizon_s=20.0, workers=2).run()\n"
            "t0 = time.perf_counter()\n"
            "resource_tracker._resource_tracker._stop()\n"
            "elapsed = time.perf_counter() - t0\n"
            "alive = sum(p.is_alive() for p in mp.active_children())\n"
            "print(f'{elapsed:.3f} {alive}')\n"
        )
        elapsed, alive = out.split()
        assert int(alive) == 2
        assert float(elapsed) < 2.0
