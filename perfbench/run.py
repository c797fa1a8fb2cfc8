"""Benchmark of the xGFabric simulator: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fabric_day --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3

A run sets the workload up several times in fresh interpreters (``setup_s``),
then repeats the workload for ``--seconds`` of host time in a closed loop
(each repetition starts after the previous one ends, all with the same
seed-generated inputs), times a fixed speed job between
repetitions to rescale them to a host of nominal speed, checks every
repetition's outputs, and prints a table of every metric followed by one
JSON result line. ``--trace 1`` spends half the time untraced and then
makes one traced run that wraps each layer's public calls, for the
per-layer metrics in ``BENCHMARK.json``.
Metric names, units and directions live in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.

The exit code is 0 when every output check held, 1 when one failed, and 2
when the benchmark could not run at all (for example without ``src/``).

This script is re-imported by every spawned shard worker, so at module
level it imports only the standard library and ``harness``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = {
    "fabric_day": ("fabric_workloads", "FabricDay"),
    "dense_ingest": ("fabric_workloads", "DenseIngest"),
    "ue_campaign": ("ue_campaign", "UeCampaign"),
}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0
#: Layers named after ``src/repro`` modules, plus the traced run's own root.
LAYERS = ("cfd", "simkernel", "cspot", "core", "sensors", "laminar", "pilot", "hpc",
          "radio", "obs", "parallel", "unattributed")


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def load_spec() -> dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec: dict[str, Any] = json.load(fh)
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path}: {error}") from error
    return spec


def load_workload(name: str) -> Any:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"no simulator sources at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module_name, class_name = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Host seconds from interpreter start to a built scenario, per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return times


def timed_run(wl: Any, scenario: Any) -> tuple[Any, float]:
    t0 = time.perf_counter()
    output = wl.run(scenario)
    return output, time.perf_counter() - t0


def traced_run(wl: Any, seed: int) -> tuple[Any, Any, Any]:
    """One run of the reference variant with every target wrapped."""
    from tracing import SpanRecorder, installed

    recorder = SpanRecorder()
    scenario = wl.build(seed, reference=True)
    with installed(recorder, wl.targets):
        with recorder.root():
            output = wl.run(scenario)
    return scenario, output, recorder


def layer_metrics(rec: Any, extras: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans, counts and amounts."""
    self_s = rec.self_times()
    solves = rec.durations("cfd.solve")
    solve_s = float(sum(solves))
    amounts = rec.amounts
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "cfd.solves": float(len(solves)),
        "cfd.steps": amounts.get("cfd.steps", 0.0),
        "cfd.poisson_sweeps": amounts.get("cfd.poisson_sweeps", 0.0),
        "cfd.solve_s": solve_s,
        "cfd.solve_p50_s": harness.percentile(solves, 50.0).value,
        "cfd.cell_steps_per_s": amounts.get("cfd.cell_steps", 0.0) / solve_s if solve_s else 0.0,
        "cfd.case_build_s": rec.inclusive_s("cfd.case_from_telemetry", "cfd.build_solver"),
        "simkernel.events": float(rec.count("simkernel.step")),
        "cspot.appends": float(rec.count("cspot.reliable_append")),
        "cspot.append_attempts": 0.0,
        "cspot.retry_ratio": 0.0,
        "cspot.log_append_s": rec.inclusive_s("cspot.woof_append"),
        "cspot.log_read_s": rec.inclusive_s("cspot.woof_scan", "cspot.woof_get"),
        "cspot.entries_read": float(rec.count("cspot.woof_get")),
        "cspot.fetches": float(rec.count("cspot.remote_fetch")),
        "core.telemetry_decodes": float(rec.count("core.telemetry_decode")),
        "core.telemetry_decode_s": rec.inclusive_s("core.telemetry_decode"),
        "core.twin_compare_s": rec.inclusive_s("core.twin_compare"),
        "core.twin_update_s": rec.inclusive_s("core.twin_update"),
        "sensors.reads": float(rec.count("sensors.read")),
        "sensors.read_s": rec.inclusive_s("sensors.read"),
        "laminar.epochs": float(rec.count("laminar.submit")),
        "laminar.alerts": 0.0,
        "laminar.stat_tests_s": rec.inclusive_s("laminar.welch_t", "laminar.mann_whitney",
                                                "laminar.ks"),
        "pilot.decisions": float(rec.count("pilot.on_data")),
        "pilot.tasks": float(rec.count("pilot.run_task")),
        "pilot.task_retries": 0.0,
        "pilot.dispatch_wait_p50_s": 0.0,
        "hpc.jobs_submitted": float(rec.count("hpc.submit")),
        "hpc.queue_wait_mean_s": 0.0,
        "hpc.queue_wait_max_s": 0.0,
        "radio.ue_samples": amounts.get("radio.ue_samples", 0.0),
        "radio.realize_s": rec.inclusive_s("radio.realize"),
        "radio.uplink_s": rec.inclusive_s("radio.uplink"),
        "obs.sketch_values": amounts.get("obs.sketch_values", 0.0),
        "obs.sketch_add_s": rec.inclusive_s("obs.sketch_add"),
        "parallel.shard_advance_s": rec.inclusive_s("parallel.shard_advance"),
        "parallel.merge_s": rec.inclusive_s("parallel.merge_sketches", "parallel.merge_streams"),
        "parallel.worker_compute_max_s": 0.0,
        "parallel.imbalance": 0.0,
        "parallel.overhead_s": 0.0,
        "trace.spans": float(rec.n_spans),
    })
    out.update(extras)
    return out


def reference_runs(
    wl: Any,
    args: argparse.Namespace,
    evals: list[Any],
    walls: list[float],
    host_layers: list[dict[str, float]],
    checks: dict[str, bool],
) -> dict[str, float]:
    """Cross-check runs after the timed loop; the traced one gives per-layer metrics.

    A workload whose reference variant differs from the timed one (the
    serial executor for ``ue_campaign``) runs it once untraced: its digest
    must match, and its wall time is the base of the tracing overhead.
    """
    untraced_ref = None
    if wl.reference_differs:
        ref_scenario = wl.build(args.seed, reference=True)
        ref_output, untraced_ref = timed_run(wl, ref_scenario)
        ref_ev = wl.evaluate(ref_scenario, ref_output)
        checks["reference_variant_identical"] = ref_ev.digest == evals[0].digest
    if not args.trace:
        return {}
    scenario, output, rec = traced_run(wl, args.seed)
    traced_ev = wl.evaluate(scenario, output, rec)
    checks["traced_run_identical"] = traced_ev.digest == evals[0].digest
    traced_wall = rec.durations("run")[0]
    checks["self_times_sum_to_wall"] = math.isclose(
        sum(rec.self_times().values()), traced_wall, rel_tol=1e-9, abs_tol=1e-6)
    untraced = untraced_ref if untraced_ref is not None else harness.median(walls)
    overhead = harness.Overhead(traced_wall, untraced)
    host_keys = sorted({k for h in host_layers for k in h})
    host = {k: harness.median(h[k] for h in host_layers if k in h) for k in host_keys}
    per_layer = layer_metrics(rec, {**traced_ev.layer, **host})
    per_layer.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": overhead.overhead_s,
        "trace.overhead_ratio": overhead.ratio,
    })
    rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.npz"))
    return per_layer


def print_table(rows: list[tuple[str, str, str, str]]) -> None:
    width = max(len(r[0]) for r in rows)
    for name, unit, clock, text in rows:
        print(f"  {name:<{width}}  {text:>34}  {unit:<8} {clock}")


def fmt(summary: harness.Summary, digits: int = 4) -> str:
    return (f"{summary.median:.{digits}f} [{summary.q1:.{digits}f}, "
            f"{summary.q3:.{digits}f}] n={summary.n}")


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    wl = load_workload(args.workload)
    try:
        return measure(args, spec, wl)
    finally:
        wl.close()


def measure(args: argparse.Namespace, spec: dict[str, Any], wl: Any) -> int:
    import hostspeed

    setup_times = measure_setup(args.workload, args.seed)

    ledger = harness.ErrorLedger()
    walls: list[float] = []
    per_unit: list[float] = []
    evals: list[Any] = []
    host_layers: list[dict[str, float]] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    hostspeed.time_job()  # warm-up, untimed
    job_times = [hostspeed.time_job()]
    with harness.PeakRss() as rss:
        started = time.perf_counter()
        while True:
            scenario = wl.build(args.seed)
            try:
                output, wall = timed_run(wl, scenario)
            except Exception as error:  # a raising run fails all its operations
                ledger.record_raise(wl.nominal_ops, error)
                break
            job_times.append(hostspeed.time_job())
            ev = wl.evaluate(scenario, output)
            ledger.record(ev.attempted, ev.failed)
            walls.append(wall)
            per_unit.append(wall / max(ev.units, 1))
            evals.append(ev)
            host_layers.append(wl.host_layer(scenario, output))
            if time.perf_counter() - started >= budget:
                break

    checks: dict[str, bool] = {
        name: all(ev.checks[name] for ev in evals) for name in (evals[0].checks if evals else ())
    }
    harness_checks: dict[str, bool] = {}
    if evals:
        harness_checks["repeat_runs_identical"] = len({ev.digest for ev in evals}) == 1
    per_layer: dict[str, float] = {}
    if evals and (args.trace or wl.reference_differs):
        try:
            per_layer = reference_runs(wl, args, evals, walls, host_layers, harness_checks)
        except Exception as error:  # a raising run fails all its operations
            ledger.record_raise(wl.nominal_ops, error)
    for ok in harness_checks.values():
        ledger.record(1, 0 if ok else 1)
    checks.update(harness_checks)

    correct = bool(evals) and not ledger.errors and ledger.failed == 0 and all(checks.values())
    first = evals[0] if evals else None
    wall_s = harness.summarize(walls) if walls else None
    sim_rate = harness.summarize([first.sim_seconds / w for w in walls]) if first else None

    values: dict[str, float] = {
        "setup_s": harness.median(setup_times),
        "norm_s_per_unit": (harness.speed_scaled(per_unit, job_times, hostspeed.NOMINAL_S)
                            if per_unit else math.nan),
        "peak_rss_mb": rss.peak_mb,
    }
    if first is not None:
        values.update(first.sim)
        values.update(per_layer)
        values.update({
            "run.wall_s": wall_s.median,
            "run.host_s_per_unit": harness.median(per_unit),
            "run.speed_job_s": statistics.fmean(job_times),
            "run.sim_s_per_wall_s": sim_rate.median,
            "run.error_rate": ledger.error_rate,
        })

    # -- human-readable report ----------------------------------------------------
    stamp = harness.stamp(ROOT)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({wl.unit} per unit)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if first is not None:
        rows = [
            ("setup_s", "s", "host", fmt(harness.summarize(setup_times))),
            ("wall_s", "s", "host", fmt(wall_s)),
            ("host_s_per_unit", "s", "host", fmt(harness.summarize(per_unit))),
            ("speed_job_s", "s", "host", fmt(harness.summarize(job_times))),
            ("norm_s_per_unit", "s", "host",
             f"{values['norm_s_per_unit']:.4f} (run mean, n={len(per_unit)})"),
            ("sim_s_per_wall_s", "sim-s/s", "host", fmt(sim_rate, 1)),
            ("peak_rss_mb", "MB", "host", f"{rss.peak_mb:.1f}"),
            ("error_rate", "ratio", "-",
             f"{ledger.error_rate:.4f} ({ledger.failed}/{ledger.attempted})"),
        ]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        rows += [(k, units[k], "simulated", f"{v:.6g}") for k, v in sorted(first.sim.items())]
        print_table(rows)
        print(f"digest {first.digest}")
        for note in first.notes:
            print(f"note {note}")
    for name, ok in sorted(checks.items()):
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for error in ledger.errors:
        print(f"error {error}")
    if per_layer:
        layers = sorted(((per_layer[f"{layer}.self_s"], layer) for layer in LAYERS),
                        reverse=True)
        print("layer self time (traced): " + ", ".join(f"{n} {s:.3f}s" for s, n in layers))

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in metric_specs:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "stamp": stamp, "checks": checks, "values": values, "walls_s": walls,
              "speed_job_s": job_times,
              "setup_probes_s": setup_times, **result}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the scenario, then exit (times set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another; worst exit code wins."""
    codes = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        codes[name] = subprocess.run(cmd, cwd=ROOT).returncode
    print("all: " + ", ".join(f"{name} exit {code}" for name, code in codes.items()))
    return max(codes.values())


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            load_workload(args.workload).build(args.seed)
            return 0
        return run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
