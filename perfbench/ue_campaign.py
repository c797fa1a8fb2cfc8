"""The ``ue_campaign`` workload: four sharded 100k-UE radio scenarios.

This module imports only ``repro.parallel`` and ``repro.radio`` (and the
benchmark's standard-library helpers). Spawned shard workers re-import
the entry script, so a heavier import here would be paid once per worker
and measured as campaign time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.parallel import ParallelReport, ShardedScaleScenario
from repro.radio.population import Distribution, RandomVariable, UEPopulation

from harness import digest
from tracing import SpanRecorder, Target
from workload import SIM_METRICS, Evaluation, Workload

N_SCENARIOS = 4
N_CELLS = 20
UES_PER_CELL = 5000.0
HORIZON_S = 60.0
WINDOW_S = 10.0
WORKERS = 2
#: ``ShardRunner`` draws one sample per simulated second of each window.
SAMPLES_PER_UE = int(HORIZON_S // WINDOW_S) * int(round(WINDOW_S))


def _count_ue_samples(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    return {"radio.ue_samples": float(result.size)}


def _count_sketch_values(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    return {"obs.sketch_values": float(len(args[1]))}


UE_TARGETS = (
    Target("repro.parallel.coordinator", "ShardedScaleScenario.run", "parallel.scenario",
           "parallel"),
    Target("repro.parallel.shard", "ShardRunner.advance", "parallel.shard_advance",
           "parallel"),
    Target("repro.parallel.coordinator", "merge_sketches", "parallel.merge_sketches",
           "parallel"),
    Target("repro.parallel.coordinator", "merge_streams", "parallel.merge_streams",
           "parallel"),
    Target("repro.simkernel.engine", "Engine.step", "simkernel.step", "simkernel",
           mode="count"),
    Target("repro.radio.population", "UEPopulation.realize_cells", "radio.realize",
           "radio"),
    Target("repro.radio.population", "CellPopulation.uplink_matrix", "radio.uplink",
           "radio", measure=_count_ue_samples),
    Target("repro.obs.stream", "QuantileSketch.add_array", "obs.sketch_add", "obs",
           measure=_count_sketch_values),
)


def scenario_seeds(seed: int) -> list[int]:
    return [seed * 1000 + k for k in range(N_SCENARIOS)]


@dataclass
class CampaignRun:
    scenarios: list[ShardedScaleScenario]
    #: Host seconds per scenario, filled by :meth:`UeCampaign.run`.
    walls: list[float]


class UeCampaign(Workload):
    """Four 20-cell x Poisson(5000)-UE scenarios, one after another."""

    unit = "scenario"
    targets = UE_TARGETS
    nominal_ops = N_SCENARIOS + 2
    reference_differs = True

    def build(self, seed: int, reference: bool = False) -> CampaignRun:
        population = UEPopulation(
            n_cells=N_CELLS,
            ues_per_cell=RandomVariable(UES_PER_CELL, Distribution.POISSON),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        )
        # The reference variant runs in-process, where tracing can see it;
        # its reports must be byte-identical to the spawned ones.
        workers, executor = (1, "serial") if reference else (WORKERS, "spawn")
        return CampaignRun(
            [
                ShardedScaleScenario(
                    population, seed=s, horizon_s=HORIZON_S, window_s=WINDOW_S,
                    workers=workers, executor=executor,
                )
                for s in scenario_seeds(seed)
            ],
            [],
        )

    def run(self, scenario: CampaignRun) -> list[ParallelReport]:
        reports = []
        for sc in scenario.scenarios:
            t0 = time.perf_counter()
            reports.append(sc.run())
            scenario.walls.append(time.perf_counter() - t0)
        return reports

    def evaluate(
        self,
        scenario: CampaignRun,
        output: list[ParallelReport],
        recorder: Optional[SpanRecorder] = None,
    ) -> Evaluation:
        samples_ok = all(
            r.samples_generated == r.total_ues * SAMPLES_PER_UE for r in output
        )
        checks = {
            "samples_per_ue": samples_ok,
            "all_scenarios_reported": len(output) == N_SCENARIOS,
        }
        mean_mbps = statistics.fmean(r.aggregate_mean_bps for r in output) / 1e6
        return Evaluation(
            digest=digest([r.digest for r in output]),
            checks=checks,
            attempted=N_SCENARIOS + len(checks),
            failed=(N_SCENARIOS - len(output)) + sum(not ok for ok in checks.values()),
            units=len(output),
            sim_seconds=sum(r.sim_seconds for r in output),
            sim={**dict.fromkeys(SIM_METRICS, 0.0), "sim.ue_mean_mbps": mean_mbps},
            notes=[f"UEs per scenario {[r.total_ues for r in output]}"],
        )

    def close(self) -> None:
        # Spawning starts multiprocessing's resource-tracker process, which
        # would otherwise outlive this one by a moment, unwaited.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    def host_layer(self, scenario: CampaignRun, output: Any) -> dict[str, float]:
        """Spawn phases from the workers' compute-time side channel."""
        max_compute, imbalance, overhead = [], [], []
        for sc, wall in zip(scenario.scenarios, scenario.walls):
            compute = [t["compute_wall_s"] for t in sc.last_timings]
            if not compute:
                continue
            max_compute.append(max(compute))
            imbalance.append(max(compute) / statistics.fmean(compute))
            overhead.append(wall - max(compute))
        if not max_compute:
            return {}
        return {
            "parallel.worker_compute_max_s": statistics.median(max_compute),
            "parallel.imbalance": statistics.median(imbalance),
            "parallel.overhead_s": statistics.median(overhead),
        }
