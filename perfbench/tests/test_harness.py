"""Tests of the benchmark's own measuring machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import harness
import run
from harness import MIN_SAMPLES_BEYOND, ErrorLedger, Overhead, fold_self_times, percentile
from tracing import SpanRecorder, Target, installed
from workload import SIM_METRICS

# -- self-time folding ----------------------------------------------------------


def test_fold_nested_spans_subtracts_children():
    # root [0, 10] > a [1, 6] > b [2, 4]
    self_s = fold_self_times([0, 1, 2], [10, 6, 4], [-1, 0, 1], ["root", "a", "b"])
    assert self_s == {"root": 5.0, "a": 3.0, "b": 2.0}
    assert sum(self_s.values()) == 10.0


def test_fold_sibling_spans_add_up_per_layer():
    # root [0, 10] with siblings x [1, 3], y [3, 4], x [5, 9]
    self_s = fold_self_times(
        [0, 1, 3, 5], [10, 3, 4, 9], [-1, 0, 0, 0], ["root", "x", "y", "x"]
    )
    assert self_s == {"root": 3.0, "x": 6.0, "y": 1.0}


def test_fold_same_layer_nesting_is_not_double_counted():
    self_s = fold_self_times([0, 1], [4, 3], [-1, 0], ["cfd", "cfd"])
    assert self_s == {"cfd": 4.0}


def test_fold_rejects_child_outside_parent():
    with pytest.raises(ValueError, match="not inside its parent"):
        fold_self_times([0, 1], [2, 3], [-1, 0], ["a", "b"])


# -- percentiles ---------------------------------------------------------------------


def test_percentile_nearest_rank_with_count():
    values = list(range(1, 101))  # 1..100
    p50 = percentile(values, 50.0)
    assert (p50.value, p50.n, p50.beyond) == (50.0, 100, 50)
    p99 = percentile(values, 99.0)
    assert (p99.value, p99.beyond) == (99.0, 1)


def test_percentile_of_empty_sample_reports_zero_count():
    p = percentile([], 99.0)
    assert (p.value, p.n) == (0.0, 0)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert percentile([float(i) for i in range(1000)], 99.0).beyond == MIN_SAMPLES_BEYOND
    assert percentile([float(i) for i in range(999)], 99.0).beyond < MIN_SAMPLES_BEYOND


def test_summarize_matches_statistics_quantiles():
    s = harness.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s.median, s.n) == (3.0, 5)
    assert s.q1 <= s.median <= s.q3


# -- error accounting -------------------------------------------------------------------


def test_error_rate_counts_failed_over_attempted():
    ledger = ErrorLedger()
    ledger.record(attempted=95, failed=0)
    ledger.record(attempted=5, failed=2)
    assert (ledger.attempted, ledger.failed) == (100, 2)
    assert ledger.error_rate == pytest.approx(0.02)


def test_a_raising_run_fails_all_its_operations():
    ledger = ErrorLedger()
    ledger.record(attempted=10, failed=0)
    ledger.record_raise(30, RuntimeError("boom"))
    assert (ledger.attempted, ledger.failed) == (40, 30)
    assert ledger.error_rate == pytest.approx(0.75)
    assert ledger.errors == ["RuntimeError: boom"]


def test_ledger_rejects_more_failures_than_attempts():
    with pytest.raises(ValueError):
        ErrorLedger().record(attempted=1, failed=2)
    assert ErrorLedger().error_rate == 0.0


# -- tracing overhead -------------------------------------------------------------------


def test_overhead_is_traced_minus_untraced():
    o = Overhead(traced_s=5.5, untraced_s=5.0)
    assert o.overhead_s == pytest.approx(0.5)
    assert o.ratio == pytest.approx(0.1)
    # Noise can make the traced run faster; the sign is kept, not clamped.
    assert Overhead(4.0, 5.0).overhead_s == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        _ = Overhead(1.0, 0.0).ratio


# -- host-speed drift ----------------------------------------------------------------------


def test_speed_scaling_cancels_a_host_that_runs_at_half_speed():
    quiet = harness.speed_scaled([2.0, 2.2], [0.5, 0.5, 0.5], nominal_s=0.5)
    slow = harness.speed_scaled([4.0, 4.4], [1.0, 1.0, 1.0], nominal_s=0.5)
    assert quiet == pytest.approx(2.1) and slow == pytest.approx(2.1)


def test_speed_scaling_needs_positive_job_times():
    with pytest.raises(ValueError):
        harness.speed_scaled([1.0], [], nominal_s=0.5)
    with pytest.raises(ValueError):
        harness.speed_scaled([1.0], [0.5, 0.0], nominal_s=0.5)


# -- wrapping --------------------------------------------------------------------------------


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    def items(self, n):
        for i in range(n):
            yield self.inner(i)

    @classmethod
    def make(cls):
        return cls()


TOY = __name__


def test_wrapped_calls_nest_and_fold_to_the_root():
    rec = SpanRecorder()
    targets = [
        Target(TOY, "Toy.outer", "toy.outer", "outer"),
        Target(TOY, "Toy.inner", "toy.inner", "inner"),
        Target(TOY, "Toy.make", "toy.make", "outer", mode="count"),
    ]
    with installed(rec, targets):
        with rec.root():
            assert Toy.make().outer(3) == 3
    assert rec.stack == [-1]
    assert rec.count("toy.outer") == 1 and rec.count("toy.inner") == 3
    assert rec.count("toy.make") == 1 and rec.n_spans == 1 + 1 + 3
    # Every inner span's parent is the outer span.
    outer_idx = list(rec.span_names).index(rec.name_id("toy.outer", "outer"))
    assert [p for p, n in zip(rec.parents, rec.span_names)
            if rec.names[n] == "toy.inner"] == [outer_idx] * 3
    self_s = rec.self_times()
    assert math.isclose(sum(self_s.values()), rec.durations("run")[0], abs_tol=1e-9)


def test_leaf_spans_count_nested_calls_without_spans_and_eager_drains():
    rec = SpanRecorder()
    targets = [
        Target(TOY, "Toy.items", "toy.items", "outer", mode="leaf", eager=True),
        Target(TOY, "Toy.inner", "toy.inner", "inner"),
    ]
    with installed(rec, targets):
        with rec.root():
            items = Toy().items(4)
            assert isinstance(items, list) and items == [0, 1, 2, 3]
    assert rec.count("toy.inner") == 4
    assert rec.durations("toy.inner") == []  # counted, not spanned
    assert rec.n_spans == 2


def test_originals_are_restored_after_tracing():
    before = dict(Toy.__dict__)
    with installed(SpanRecorder(), [Target(TOY, "Toy.inner", "toy.inner", "inner"),
                                    Target(TOY, "Toy.make", "toy.make", "inner")]):
        assert Toy.__dict__["inner"] is not before["inner"]
    assert Toy.__dict__["inner"] is before["inner"]
    assert Toy.__dict__["make"] is before["make"]


# -- the metric catalogue ----------------------------------------------------------------


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_per_layer_metric_is_produced():
    produced = set(run.layer_metrics(SpanRecorder(), {}))
    produced |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.overhead_ratio", "run.wall_s", "run.sim_s_per_wall_s",
                 "run.error_rate", "run.host_s_per_unit", "run.speed_job_s"}
    produced |= set(SIM_METRICS)
    assert {m["name"] for m in _spec()["per_layer"]} == produced


def test_end_to_end_metrics_include_setup_time():
    e2e = {m["name"]: m for m in _spec()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_campaign_entry_does_not_import_scipy_or_core():
    # Spawned workers re-import the entry script; it must stay light.
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import run, ue_campaign; "
        "print('scipy' in sys.modules, 'repro.core' in sys.modules)"
    ) % (run.HERE, run.SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "False"]
