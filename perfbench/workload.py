"""What every workload gives the runner: build, run, evaluate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from tracing import SpanRecorder, Target


@dataclass
class Evaluation:
    """Outputs of one run of a workload, judged.

    ``digest`` hashes the run's canonical outputs; ``checks`` name each
    output check and whether it held. ``units`` counts the workload's work
    unit (the divisor of the per-unit host times); ``sim`` holds the
    simulated-clock outcome metrics, deterministic per seed; ``layer``
    holds per-layer values read from the finished run (traced runs only).
    """

    digest: str
    checks: dict[str, bool]
    attempted: int
    failed: int
    units: int
    sim_seconds: float
    sim: dict[str, float]
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


#: Simulated-clock outcome metrics every workload reports (0 where a
#: workload has no such outcome, with its sample count 0).
SIM_METRICS = (
    "sim.cfd_response_p50_s",
    "sim.cfd_response_n",
    "sim.validity_window_min_s",
    "sim.telemetry_latency_p50_ms",
    "sim.telemetry_latency_p99_ms",
    "sim.telemetry_latency_n",
    "sim.ue_mean_mbps",
)


class Workload:
    """One named set of inputs, generated from the seed."""

    #: What one unit of the per-unit host times is.
    unit: str
    #: Calls wrapped in the traced run.
    targets: Sequence[Target] = ()
    #: Operations charged as failed when a run raises.
    nominal_ops: int
    #: Whether ``build(reference=True)`` differs from the timed variant.
    reference_differs = False

    def build(self, seed: int, reference: bool = False) -> Any:
        """Set up one run. ``reference`` builds the cross-check variant."""
        raise NotImplementedError

    def run(self, scenario: Any) -> Any:
        """The timed part: simulate and return the raw outputs."""
        raise NotImplementedError

    def evaluate(
        self, scenario: Any, output: Any, recorder: Optional[SpanRecorder] = None
    ) -> Evaluation:
        """Check the outputs and derive the workload's metrics (untimed)."""
        raise NotImplementedError

    def host_layer(self, scenario: Any, output: Any) -> dict[str, float]:
        """Per-layer values that come from untraced runs (host timings)."""
        return {}

    def close(self) -> None:
        """Stop any helper process the runs left behind, and wait for it."""
