"""The delivery audit on a log ring that has wrapped.

A telemetry log keeps only its last ``history_size`` records. Records the
ring overwrote were committed, so they count as delivered (``evicted``),
not as lost; duplicates can only be checked in the retained window.
"""

from types import SimpleNamespace

from repro.chaos import audit_delivery
from repro.core.telemetry import TelemetryRecord
from repro.cspot.log import WooF

RING = 8


def _record(station: str, t: float) -> bytes:
    return TelemetryRecord(
        station_id=station,
        time_s=t,
        wind_speed_mps=2.0,
        wind_direction_deg=180.0,
        temperature_k=290.0,
        relative_humidity=0.5,
        interior=False,
    ).to_bytes()


def _fabric(logs: dict[str, WooF], sent: int) -> SimpleNamespace:
    """Just the parts of an ``XGFabric`` the audit reads."""
    return SimpleNamespace(
        metrics=SimpleNamespace(telemetry_sent=sent),
        stations=[SimpleNamespace(station_id=name) for name in logs],
        ucsb=SimpleNamespace(get_log=lambda name: logs[name.split(".", 1)[1]]),
    )


def _log(station: str, times: list[float]) -> WooF:
    log = WooF(f"telemetry.{station}", element_size=128, history_size=RING)
    for t in times:
        log.append(_record(station, t), now=t)
    return log


def test_evicted_records_are_delivered_not_lost() -> None:
    times = [60.0 * k for k in range(3 * RING)]
    logs = {"s1": _log("s1", times), "s2": _log("s2", times[:RING])}
    audit = audit_delivery(_fabric(logs, sent=4 * RING))
    assert audit.evicted == 2 * RING
    assert audit.records_in_log == 2 * RING
    assert audit.unique_delivered == 4 * RING
    assert audit.lost == 0 and audit.duplicates == 0
    assert audit.exactly_once
    assert audit.to_dict()["evicted"] == 2 * RING


def test_duplicates_in_the_retained_window_still_count() -> None:
    times = [60.0 * k for k in range(2 * RING)]
    times.append(times[-1])  # a retried append committed twice
    audit = audit_delivery(_fabric({"s1": _log("s1", times)}, sent=2 * RING))
    assert audit.duplicates == 1
    assert audit.lost == 0
    assert not audit.exactly_once


def test_a_completed_send_missing_from_the_log_is_lost() -> None:
    times = [60.0 * k for k in range(2 * RING)]
    audit = audit_delivery(_fabric({"s1": _log("s1", times)}, sent=2 * RING + 3))
    assert audit.lost == 3
    assert not audit.exactly_once
