from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from cvsim.apps import (
    WINDOW_MS,
    Verdict,
    VehicleSummary,
    WarningMessage,
    accuracy,
    decide_avoidance,
    detect_queue,
    window_by_vehicle,
)
from cvsim.core import Bsm, GeoPoint, SimConstants, ft_to_m, m_to_ft, mph_to_mps
from cvsim.radio import LinkKind

CONSTANTS = SimConstants()
LAT_PER_M = 1.0 / 111_194.92664455873  # meridian degrees per meter


def geo(s_m: float) -> GeoPoint:
    return GeoPoint(40.0 + s_m * LAT_PER_M, -75.0)


def order_key(p: GeoPoint) -> float:
    return p.lat


def warning(src="cv1", t_emit=2000, s_m=500.0):
    return WarningMessage(source_vehicle=src, t_emit=t_emit, pos=geo(s_m))


def test_avoidance_20mph_305ft_safe_within_budget():
    w = warning()
    d = decide_avoidance(
        vehicle="cv2",
        rx_pos=geo(500.0 - ft_to_m(305)),
        rx_speed=mph_to_mps(20),
        warning=w,
        t_recv=2088,
        link_used=LinkKind.DSRC,
        constants=CONSTANTS,
    )
    assert d.verdict is Verdict.SAFE
    assert m_to_ft(d.gap_m) == pytest.approx(305.0, abs=0.01)
    assert m_to_ft(d.d_min_m) == pytest.approx(38.41, abs=0.01)
    assert d.latency_ms == 88 and d.within_safety_latency


def test_avoidance_50mph_short_gap_unsafe():
    # 200 ft available vs 240.08 ft required
    d = decide_avoidance(
        vehicle="cv2",
        rx_pos=geo(500.0 - ft_to_m(200)),
        rx_speed=mph_to_mps(50),
        warning=warning(),
        t_recv=2125,
        link_used=LinkKind.DSRC,
        constants=CONSTANTS,
    )
    assert d.verdict is Verdict.UNSAFE
    assert d.gap_m < d.d_min_m


def test_avoidance_stationary_receiver_always_safe():
    d = decide_avoidance(
        vehicle="cv2",
        rx_pos=geo(499.9),
        rx_speed=0.0,
        warning=warning(),
        t_recv=5000,
        link_used=LinkKind.LTE,
        constants=CONSTANTS,
    )
    assert d.d_min_m == 0.0 and d.verdict is Verdict.SAFE
    assert not d.within_safety_latency  # 3000 ms > 200 ms


def window(speeds_by_vehicle, t=5000, gap_m=3.0, base_s=600.0):
    """Build one evaluation window: 10 reports per vehicle, positions spaced
    ``gap_m`` apart down the corridor."""
    bsms = []
    for i, (vid, speed) in enumerate(speeds_by_vehicle.items()):
        s = base_s - i * gap_m
        for k in range(10):
            bsms.append(Bsm(t=t - 950 + k * 100, vehicle_id=vid, pos=geo(s), speed=speed))
    return bsms


def summaries(bsms, t=5000):
    return window_by_vehicle(bsms, t)


def test_queue_detected_when_stopped_and_tight():
    bsms = window({"a": 0.0, "b": 0.0, "c": 0.0}, gap_m=ft_to_m(10))
    decision = detect_queue("rsu1", 5000, summaries(bsms), order_key, CONSTANTS)
    assert decision.queued and decision.n_cvs == 3
    assert decision.avg_speed_mps == 0.0
    assert m_to_ft(decision.avg_gap_m) == pytest.approx(10.0, abs=0.01)


def test_queue_rejected_at_cruise_speed():
    v = mph_to_mps(30)
    decision = detect_queue(
        "rsu1", 5000, summaries(window({"a": v, "b": v, "c": v}, gap_m=3.0)), order_key, CONSTANTS
    )
    assert not decision.queued
    assert decision.avg_speed_mps == pytest.approx(v)


def test_queue_false_negative_from_hidden_vehicle_gap():
    # stopped, but one 45 ft separation where a non-connected vehicle hides
    bsms = window({"a": 0.0, "b": 0.0}, gap_m=ft_to_m(10))
    bsms += [
        Bsm(t=4050 + k * 100, vehicle_id="c", pos=geo(600.0 - ft_to_m(10) - ft_to_m(45)), speed=0.0)
        for k in range(10)
    ]
    decision = detect_queue("rsu1", 5000, summaries(bsms), order_key, CONSTANTS)
    assert not decision.queued
    assert decision.avg_speed_mps == 0.0
    assert decision.avg_gap_m >= CONSTANTS.queue_gap_threshold_m


def test_queue_requires_two_reporting_vehicles():
    decision = detect_queue("rsu1", 5000, summaries(window({"a": 0.0})), order_key, CONSTANTS)
    assert not decision.queued and decision.n_cvs == 1
    assert decision.avg_gap_m is None

    decision = detect_queue("rsu1", 5000, summaries([]), order_key, CONSTANTS)
    assert not decision.queued and decision.n_cvs == 0
    assert decision.avg_speed_mps is None


def test_queue_window_bounds_are_half_open():
    inside = Bsm(t=4001, vehicle_id="a", pos=geo(600), speed=0.0)
    edge = Bsm(t=5000, vehicle_id="b", pos=geo(597), speed=0.0)
    outside = Bsm(t=4000, vehicle_id="c", pos=geo(594), speed=0.0)
    future = Bsm(t=5001, vehicle_id="d", pos=geo(591), speed=0.0)
    decision = detect_queue("rsu1", 5000, summaries([inside, edge, outside, future]), order_key, CONSTANTS)
    assert decision.n_cvs == 2  # a and b only


def test_detect_queue_is_pure():
    bsms = window({"a": 0.0, "b": 0.1, "c": 0.2})
    first = detect_queue("rsu1", 5000, summaries(bsms), order_key, CONSTANTS)
    second = detect_queue("rsu1", 5000, summaries(list(bsms)), order_key, CONSTANTS)
    assert first == second


def reference_summaries(bsms, t):
    """Per vehicle in first-seen order: (id, fmean of speeds, first latest position, count).

    The mean is ``fmean`` over a generator, which counts the items itself; equal
    floats show that a mean over a list sums and divides alike.
    """
    inside = [b for b in bsms if t - WINDOW_MS < b.t <= t]
    order = list(dict.fromkeys(b.vehicle_id for b in inside))
    rows = []
    for vid in order:
        mine = [b for b in inside if b.vehicle_id == vid]
        latest_t = max(b.t for b in mine)
        latest = [b for b in mine if b.t == latest_t][0]
        rows.append((vid, fmean(b.speed for b in mine), latest.pos, len(mine)))
    return rows


T_EVAL = 5000
# The window's edges and their neighbours, plus times anywhere around it.
EDGES = [T_EVAL - WINDOW_MS - 1, T_EVAL - WINDOW_MS, T_EVAL - WINDOW_MS + 1, T_EVAL - 1, T_EVAL, T_EVAL + 1]
message_time = st.one_of(st.sampled_from(EDGES), st.integers(T_EVAL - 2 * WINDOW_MS, T_EVAL + WINDOW_MS))
message = st.tuples(
    message_time,
    st.sampled_from(["a", "b", "c"]),
    # Speeds of mixed magnitude, so a mean summed in another order or precision differs in its last bits.
    st.one_of(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), st.sampled_from([0.1, 1e-9, 33.3, 1e15])),
)


@settings(max_examples=300, deadline=None)
@given(messages=st.lists(message, max_size=30))
def test_window_by_vehicle_agrees_with_brute_force(messages):
    # Each message gets its own position, so a wrong pick among equal-t messages shows.
    bsms = [Bsm(t=t, vehicle_id=vid, pos=geo(i), speed=speed) for i, (t, vid, speed) in enumerate(messages)]
    got = [(v.vehicle_id, v.mean_speed.hex(), v.pos, v.reports) for v in window_by_vehicle(bsms, T_EVAL)]
    assert got == [(vid, mean.hex(), pos, n) for vid, mean, pos, n in reference_summaries(bsms, T_EVAL)]


def test_accuracy_basics():
    assert accuracy([True, False, True], [True, False, True]) == 1.0
    assert accuracy([False, False], [True, True]) == 0.0
    assert accuracy([True, False, False, True], [True, True, False, False]) == 0.5
    assert accuracy([], []) is None  # no evaluations, no accuracy
    with pytest.raises(ValueError):
        accuracy([True], [True, False])  # misaligned series


def test_warning_document_round_trips():
    warning = WarningMessage(source_vehicle="cv1", t_emit=1200, pos=GeoPoint(40.001, -75.0))
    assert warning.to_doc()["reason"] == "hard_brake"
    assert WarningMessage.from_doc(warning.to_doc()) == warning


def test_vehicle_summary_document_leaves_the_id_to_its_key():
    summary = VehicleSummary("cv1", 2.5, GeoPoint(40.001, -75.0), 10)
    assert summary.to_doc() == {"mean_speed": 2.5, "lat": 40.001, "lon": -75.0, "reports": 10}
