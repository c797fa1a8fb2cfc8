"""The two ``XGFabric`` workloads: ``fabric_day`` and ``dense_ingest``.

Both drive the full Fig. 3 pipeline through the package's public API.
``fabric_day`` is the paper's day with a front, a breach and the standard
chaos campaign, and its host time is dominated by CFD twin solves.
``dense_ingest`` sends telemetry every minute for three days under a
detector that cannot fire, so it bypasses CFD, pilots and HPC and loads
the engine, CSPOT appends and log scans, the telemetry codec, sensors and
Laminar instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.chaos import RESILIENT_POLICIES, audit_delivery, run_campaign, standard_campaign
from repro.chaos.campaign import ChaosCampaign
from repro.core import FabricConfig, TelemetryRecord, XGFabric, analyze_end_to_end
from repro.cspot.log import WooF
from repro.sensors import BreachEvent
from repro.sensors.weather import RegimeShift

from harness import MIN_SAMPLES_BEYOND, digest, percentile
from tracing import Target
from workload import Evaluation, Workload

HOUR_S = 3600.0
FRONT_AT_S = 2 * HOUR_S
# Mid-afternoon, near the diurnal wind peak. At 5 h (pre-dawn lull) the
# twin never even suspects the breach on some seeds (20 and 21 of 0-31):
# its interior signature stays inside the residual threshold and is
# calibrated away. At 14 h every seed tried confirms it.
BREACH_AT_S = 14 * HOUR_S


def _solver_amounts(args: tuple[Any, ...], result: Any) -> dict[str, float]:
    solver = args[0]
    steps = float(result.steps_run)
    return {
        "cfd.steps": steps,
        "cfd.cell_steps": steps * solver.mesh.n_cells,
        "cfd.poisson_sweeps": steps * solver.config.poisson_iterations,
    }


#: Public calls wrapped in the traced run, grouped by ``src/repro`` layer.
FABRIC_TARGETS = (
    Target("repro.simkernel.engine", "Engine.run", "simkernel.run", "simkernel"),
    Target("repro.simkernel.engine", "Engine.step", "simkernel.step", "simkernel",
           mode="count"),
    Target("repro.cfd.solver", "ProjectionSolver.solve", "cfd.solve", "cfd",
           measure=_solver_amounts),
    Target("repro.core.fabric", "case_from_telemetry", "cfd.case_from_telemetry", "cfd"),
    Target("repro.cfd.case", "CfdCase.build_solver", "cfd.build_solver", "cfd"),
    Target("repro.cspot.transport", "RemoteAppendClient.append", "cspot.reliable_append",
           "cspot", keep_instance=True),
    Target("repro.cspot.transport", "Transport.remote_fetch", "cspot.remote_fetch", "cspot"),
    Target("repro.cspot.log", "WooF.append", "cspot.woof_append", "cspot"),
    Target("repro.cspot.log", "WooF.scan", "cspot.woof_scan", "cspot",
           mode="leaf", eager=True),
    Target("repro.cspot.log", "WooF.get", "cspot.woof_get", "cspot"),
    Target("repro.core.telemetry", "TelemetryRecord.from_bytes", "core.telemetry_decode",
           "core"),
    Target("repro.core.digital_twin", "DigitalTwin.compare", "core.twin_compare", "core"),
    Target("repro.core.digital_twin", "DigitalTwin.update", "core.twin_update", "core"),
    Target("repro.sensors.station", "WeatherStation.read", "sensors.read", "sensors"),
    Target("repro.laminar.runtime", "LaminarRuntime.submit", "laminar.submit", "laminar"),
    Target("repro.laminar.change_detect", "welch_t_test", "laminar.welch_t", "laminar"),
    Target("repro.laminar.change_detect", "mann_whitney_test", "laminar.mann_whitney",
           "laminar"),
    Target("repro.laminar.change_detect", "ks_test", "laminar.ks", "laminar"),
    Target("repro.pilot.controller", "PilotController.on_data", "pilot.on_data", "pilot"),
    Target("repro.pilot.pilot", "Pilot.run_task", "pilot.run_task", "pilot"),
    Target("repro.hpc.cluster", "Cluster.submit", "hpc.submit", "hpc"),
)


@dataclass
class FabricRun:
    fabric: XGFabric
    campaign: ChaosCampaign | None
    duration_s: float


def _telemetry_sim(fab: XGFabric) -> tuple[dict[str, float], str]:
    """The simulated-clock metrics, and a note on the p99's tail size."""
    lat = fab.metrics.telemetry_latencies_s
    p50, p99 = percentile(lat, 50.0), percentile(lat, 99.0)
    runs = fab.metrics.cfd_runs
    response = percentile([r.total_response_s for r in runs], 50.0)
    tail = "" if p99.beyond >= MIN_SAMPLES_BEYOND else " (too few to read)"
    note = f"telemetry latency p99 over {p99.n} samples, {p99.beyond} beyond it{tail}"
    return {
        "sim.telemetry_latency_p50_ms": p50.value * 1e3,
        "sim.telemetry_latency_p99_ms": p99.value * 1e3,
        "sim.telemetry_latency_n": float(p99.n),
        "sim.cfd_response_p50_s": response.value,
        "sim.cfd_response_n": float(response.n),
        "sim.validity_window_min_s": min((r.validity_window_s for r in runs), default=0.0),
        "sim.ue_mean_mbps": 0.0,
    }, note


def _layer_extras(fab: XGFabric, recorder: Any) -> dict[str, float]:
    """Per-layer values read from the finished fabric and the recorder."""
    runs = fab.metrics.cfd_runs
    clients = recorder.instances.get("cspot.reliable_append", {}).values()
    attempts = sum(c.attempts for c in clients)
    appends = recorder.count("cspot.reliable_append")
    mean_wait, max_wait = fab.site.cluster.queue_wait_stats()
    return {
        "cspot.append_attempts": float(attempts),
        "cspot.retry_ratio": attempts / appends if appends else 0.0,
        "laminar.alerts": float(fab.metrics.change_alerts),
        "pilot.task_retries": float(recorder.count("pilot.run_task") - len(runs)),
        "pilot.dispatch_wait_p50_s": percentile([r.queue_wait_s for r in runs], 50.0).value,
        "hpc.queue_wait_mean_s": float(mean_wait),
        "hpc.queue_wait_max_s": float(max_wait),
    }


def _fabric_outputs(fab: XGFabric) -> dict[str, Any]:
    m = fab.metrics
    return {
        "telemetry_sent": m.telemetry_sent,
        "telemetry_bytes": m.telemetry_bytes,
        "telemetry_latencies_s": m.telemetry_latencies_s,
        "duty_cycles": m.duty_cycles,
        "change_alerts": m.change_alerts,
        "alerts_log": [e.payload.decode() for e in fab.ucsb.get_log("alerts").scan()],
        "cfd_runs": [dataclasses.asdict(r) for r in m.cfd_runs],
        "cfd_failures": m.cfd_failures,
        "breach_suspicions": m.breach_suspicions,
        "robot_reports": [dataclasses.asdict(r) for r in m.robot_reports],
        "operator_latencies_s": m.operator_notification_latencies_s,
    }


class FabricDay(Workload):
    """24 simulated hours: front at 2 h, panel-0 breach at 14 h, standard chaos."""

    unit = "CFD twin refresh"
    targets = FABRIC_TARGETS
    duration_s = 24 * HOUR_S
    # 5 stations x 288 sends, plus the output checks.
    nominal_ops = 5 * 288 + 5

    def build(self, seed: int, reference: bool = False) -> FabricRun:
        fab = XGFabric(FabricConfig(seed=seed, policies=RESILIENT_POLICIES))
        fab.weather.add_shift(
            RegimeShift(at_time_s=FRONT_AT_S, wind_delta_mps=2.5, temperature_delta_k=-3.0)
        )
        fab.breaches.add(BreachEvent(panel_index=0, at_time_s=BREACH_AT_S, cause="bird-strike"))
        return FabricRun(fab, standard_campaign(self.duration_s), self.duration_s)

    def run(self, scenario: FabricRun) -> Any:
        return run_campaign(scenario.fabric, scenario.campaign, scenario.duration_s)

    def evaluate(self, scenario: FabricRun, output: Any, recorder: Any = None) -> Evaluation:
        fab, report = scenario.fabric, output
        m = fab.metrics
        e2e = analyze_end_to_end(fab)
        alert_times = [
            float(e.payload.decode().split("@", 1)[1])
            for e in fab.ucsb.get_log("alerts").scan()
        ]
        checks = {
            "meets_real_time_requirement": e2e.meets_real_time_requirement,
            "chaos_all_recovered": report.all_recovered,
            "chaos_exactly_once": report.exactly_once,
            "breach_confirmed_panel_0": any(
                r.breach_confirmed and r.panel_index == 0 for r in m.robot_reports
            ),
            "alert_after_front": any(t >= FRONT_AT_S for t in alert_times),
        }
        delivery_failed = report.delivery.lost + report.delivery.duplicates
        cfd_attempted = len(m.cfd_runs) + m.cfd_failures
        sim, tail_note = _telemetry_sim(fab)
        outputs = _fabric_outputs(fab)
        outputs["resilience_report"] = report.to_json()
        outputs["e2e"] = dataclasses.asdict(e2e)
        return Evaluation(
            digest=digest(outputs),
            checks=checks,
            attempted=m.telemetry_sent + cfd_attempted + len(checks),
            failed=delivery_failed + m.cfd_failures + sum(not ok for ok in checks.values()),
            units=len(m.cfd_runs),
            sim_seconds=scenario.duration_s,
            sim=sim,
            layer=_layer_extras(fab, recorder) if recorder is not None else {},
            notes=[f"cfd refreshes {len(m.cfd_runs)}, change alerts {m.change_alerts}",
                   tail_note],
        )


def seqno_delivery(fab: XGFabric) -> tuple[int, list[str]]:
    """Exactly-once failures counted from log sequence numbers.

    Each station's sends are sequential, so its log's ``last_seqno`` is
    the number of records the repository committed for it, including the
    ones the 4096-slot ring has since evicted. Completed sends must match
    the committed total (allowing the one append that may be committed
    but not yet acknowledged when the run stops); the retained window
    ``earliest_seqno..last_seqno`` must be whole; and its records must be
    strictly increasing in time, so none is duplicated.
    """
    failures = 0
    notes: list[str] = []
    committed = 0
    evicted = 0
    for station in fab.stations:
        log: WooF = fab.ucsb.get_log(f"telemetry.{station.station_id}")
        committed += log.last_seqno
        evicted += max(0, log.earliest_seqno - 1)
        entries = list(log.scan())
        window = list(range(log.earliest_seqno, log.last_seqno + 1)) if log.last_seqno else []
        if [e.seqno for e in entries] != window:
            failures += max(1, abs(len(window) - len(entries)))
        times = [TelemetryRecord.from_bytes(e.payload).time_s for e in entries]
        failures += sum(1 for a, b in zip(times, times[1:]) if b <= a)
    sent = fab.metrics.telemetry_sent
    failures += max(0, sent - committed) + max(0, committed - sent - 1)
    notes.append(f"committed {committed}, completed {sent}, evicted from rings {evicted}")
    return failures, notes


class DenseIngest(Workload):
    """72 simulated hours, telemetry every 60 s, a detector that cannot fire."""

    unit = "simulated hour"
    targets = FABRIC_TARGETS
    duration_s = 72 * HOUR_S
    # 5 stations x 4320 sends, plus the output checks.
    nominal_ops = 5 * 4320 + 2

    def build(self, seed: int, reference: bool = False) -> FabricRun:
        # With 6-sample windows the exact Mann-Whitney test cannot reach
        # p < 0.001 (its smallest two-sided p is 2/924), so a 3-of-3 vote
        # at alpha=0.001 never alerts, whatever the seed.
        cfg = FabricConfig(seed=seed, telemetry_interval_s=60.0, alpha=0.001,
                           vote_threshold=3)
        return FabricRun(XGFabric(cfg), None, self.duration_s)

    def run(self, scenario: FabricRun) -> Any:
        return scenario.fabric.run(scenario.duration_s)

    def evaluate(self, scenario: FabricRun, output: Any, recorder: Any = None) -> Evaluation:
        fab = scenario.fabric
        m = fab.metrics
        delivery_failed, notes = seqno_delivery(fab)
        checks = {
            "zero_cfd_runs": not m.cfd_runs and m.cfd_failures == 0,
            "seqno_exactly_once": delivery_failed == 0,
        }
        # Known defect, out of scope here: the chaos audit counts records
        # the log ring evicted as lost. Reported, not counted.
        audit = audit_delivery(fab)
        notes.append(f"chaos audit (counts evictions as lost): lost={audit.lost}, "
                     f"exactly_once={audit.exactly_once}")
        sim, tail_note = _telemetry_sim(fab)
        notes.append(tail_note)
        outputs = _fabric_outputs(fab)
        outputs["log_heads"] = [
            fab.ucsb.get_log(f"telemetry.{s.station_id}").last_seqno for s in fab.stations
        ]
        return Evaluation(
            digest=digest(outputs),
            checks=checks,
            attempted=m.telemetry_sent + len(checks),
            failed=delivery_failed + sum(not ok for ok in checks.values()),
            units=int(scenario.duration_s // HOUR_S),
            sim_seconds=scenario.duration_s,
            sim=sim,
            layer=_layer_extras(fab, recorder) if recorder is not None else {},
            notes=notes,
        )
