"""Integration behavior of the wired simulation, scenario by scenario."""

import importlib.resources

import pytest

from cvsim.apps import Verdict
from cvsim.config import load_scenario, parse_scenario
from cvsim.radio import LinkKind
from cvsim.report import exchange_delays
from cvsim.sim import SYSTEM_NODE_ID, Simulation, run_scenario


def test_collision_scenario_decisions(scenario_runs):
    result = scenario_runs("collision_avoidance_20mph")
    by_vehicle = {d.vehicle: d for d in result.avoidance_decisions}
    assert set(by_vehicle) == {"cv2", "cv3"}
    cv2, cv3 = by_vehicle["cv2"], by_vehicle["cv3"]
    assert cv2.link_used is LinkKind.DSRC and cv2.latency_ms == 88
    assert cv3.link_used is LinkKind.LTE and cv3.latency_ms == 2590
    assert cv2.verdict is Verdict.SAFE and cv3.verdict is Verdict.SAFE
    assert cv2.within_safety_latency and not cv3.within_safety_latency


def test_warning_not_duplicated_when_both_paths_deliver(scenario_runs):
    # cv2 is inside short-range reach and also subscribed to the region topic;
    # only the first copy may produce a decision.
    result = scenario_runs("collision_avoidance_20mph")
    assert len([d for d in result.avoidance_decisions if d.vehicle == "cv2"]) == 1


def test_source_ignores_its_own_relayed_warning(scenario_runs):
    result = scenario_runs("collision_avoidance_20mph")
    assert all(d.vehicle != "cv1" for d in result.avoidance_decisions)


def test_braking_response_stops_receivers(scenario_runs):
    result = scenario_runs("collision_avoidance_20mph")
    # every decided vehicle latched a stop; the follow rule kept order intact
    assert result.summary.end_time_ms == 10_000


def test_telemetry_continues_through_the_backhaul_after_hard_brake(scenario_runs):
    # the braking vehicle keeps reporting: short-range hop to the roadside
    # node, then the backhaul forward into the backend archive
    result = scenario_runs("collision_avoidance_20mph")
    brake_t = 2000
    post_brake_hops = [
        p for p in result.packets
        if p.kind == "bsm" and p.tx == "cv1" and p.delivered and p.t_send > brake_t
    ]
    assert len(post_brake_hops) >= 70  # ~8 s of 10 Hz reports
    assert {p.link for p in post_brake_hops} == {LinkKind.DSRC}
    forwards = [
        p for p in result.packets
        if p.kind == "bsm_forward" and p.link is LinkKind.WIFI and p.delivered
    ]
    assert forwards, "roadside node must forward telemetry to the backend"
    archived = result.archives[SYSTEM_NODE_ID].query(brake_t, 10_000, "bsm/raw/cv1")
    assert len(archived) >= 70


def test_nearest_rsu_receives_bsms():
    text = """\
name: two_rsus
t_end_s: 2.0
corridor:
  polyline:
    - [40.0, -75.0]
    - [40.0108, -75.0]
  rsus:
    - id: near
      s_m: 300.0
    - id: far
      s_m: 900.0
detection:
  enabled: false
vehicles:
  - id: cv1
    s_m: 250.0
    speed_mph: 20.0
"""
    result = run_scenario(parse_scenario(text))
    bsm_rx = {p.rx for p in result.packets if p.kind == "bsm" and p.delivered}
    assert bsm_rx == {"near"}


def test_non_connected_vehicles_emit_and_receive_nothing(scenario_runs):
    result = scenario_runs("queue_mixed_penetration")
    vehicle_packets = {p.tx for p in result.packets if p.kind == "bsm"}
    assert "nc1" not in vehicle_packets and "nc2" not in vehicle_packets
    assert all(p.rx not in ("nc1", "nc2") for p in result.packets)


def test_full_penetration_queue_integration(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    assert len(result.queue_evals) == 167
    assert result.queue_accuracy() == 1.0
    # conservation: 10 Hz x 167 s x 3 vehicles, all within coverage
    assert result.archives[SYSTEM_NODE_ID].count("bsm/raw/#") == 5010


def test_detector_window_population(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    first = result.queue_evals[0].decision
    assert first.t == 1000 and first.n_cvs == 3


def test_rsu_archive_retention_bounded(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    rsu_archive = result.archives["rsu1"]
    assert rsu_archive.appended_total > len(rsu_archive)
    # retained headroom: 60 s of 10 Hz telemetry from 3 vehicles plus
    # per-second decision and processed documents, never the whole run
    assert len(rsu_archive) < 2_500


def test_queue_status_reaches_system_archive(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    # the final decision's forward is still in flight at t_end
    assert result.archives[SYSTEM_NODE_ID].count("queue/status/#") == 166


def test_processed_documents_published_locally(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    assert result.archives["rsu1"].count("bsm/processed/#") > 0
    assert result.archives[SYSTEM_NODE_ID].count("bsm/processed/#") == 0


def test_handoff_pass_is_exactly_two_events(scenario_runs):
    result = scenario_runs("rsu_coverage_pass")
    kinds = [(e.from_link, e.to_link) for e in result.handoff_events]
    assert kinds == [(LinkKind.LTE, LinkKind.DSRC), (LinkKind.DSRC, LinkKind.LTE)]


def test_every_delivery_has_positive_latency(scenario_runs):
    for name in ("rsu_coverage_pass", "corridor_coverage", "queue_full_penetration"):
        result = scenario_runs(name)
        assert all(
            p.delivered is False or p.t_recv > p.t_send
            for p in result.packets
        )


def test_identical_runs_produce_identical_event_traces(scenario_runs):
    first = scenario_runs("queue_mixed_penetration", trace=True)
    import hashlib

    def digest(lines):
        h = hashlib.sha256()
        for line in lines:
            h.update(line.encode() + b"\n")
        return h.hexdigest()

    from cvsim.config import load_scenario
    again = run_scenario(load_scenario("queue_mixed_penetration"), trace=True)
    assert digest(first.trace_lines) == digest(again.trace_lines)
    assert first.trace_lines  # trace actually captured


def test_association_gap_suppresses_upstream_sends(scenario_runs):
    result = scenario_runs("wifi_lte_handoff_udp")
    handoff_t = result.handoff_events[0].t
    sends = sorted(p.t_send for p in result.packets if p.kind == "bsm")
    in_gap = [t for t in sends if handoff_t <= t < handoff_t + 25_000]
    assert in_gap == []


def test_cellular_carries_stream_before_wifi(scenario_runs):
    result = scenario_runs("wifi_lte_handoff_udp")
    links = {p.link for p in result.packets if p.kind == "bsm" and p.delivered}
    assert links == {LinkKind.LTE, LinkKind.WIFI}


def test_corridor_coverage_three_passes(scenario_runs):
    result = scenario_runs("corridor_coverage")
    entries = [e for e in result.handoff_events if e.to_link is LinkKind.DSRC]
    exits = [e for e in result.handoff_events if e.to_link is LinkKind.LTE]
    assert len(entries) == 3 and len(exits) == 3
    # middle node is obstructed: its coverage window is the shortest
    assert len(result.coverage) > 0
    assert any(row.rsu == "rsu2" and row.p_loss == 1.0 and row.distance_m < 300 for row in result.coverage)


def test_loss_statistics_deterministic(scenario_runs):
    result = scenario_runs("corridor_coverage")
    lost = [p for p in result.packets if p.link is LinkKind.DSRC and not p.delivered]
    assert lost  # the 5% floor plus edge ramp must lose something
    again = scenario_runs("corridor_coverage")
    assert len([p for p in again.packets if not p.delivered]) == len(
        [p for p in result.packets if not p.delivered]
    )


def test_simulation_objects_are_single_use():
    sim = Simulation(load_scenario("collision_avoidance_20mph"))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_bsm_timestamps_monotone_per_vehicle(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    last: dict[str, int] = {}
    records = result.archives[SYSTEM_NODE_ID].query(0, 10**9, "bsm/raw/#")
    for record in records:
        vid = record.payload["vehicle_id"]
        t = record.payload["t"]
        assert last.get(vid, -1) < t
        last[vid] = t


def bundled_text(name):
    return (importlib.resources.files("cvsim") / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")


def test_wifi_access_override_leaves_the_backhaul_at_6_ms():
    text = bundled_text("queue_full_penetration") + "links:\n  wifi:\n    latency_mean_ms: 20\n"
    result = run_scenario(parse_scenario(text), t_end_ms=5_000)
    assert exchange_delays(result)["system_fixed"] == 6.0
    forwarded = [p for p in result.packets if p.kind in ("bsm_forward", "queue_status")]
    assert forwarded and all(p.link is LinkKind.WIFI and p.latency_ms == 6 for p in forwarded)


@pytest.mark.parametrize("range_m", ["1.0e+12", "5000.0"])
def test_coverage_sweep_stops_at_the_corridor_length(range_m):
    text = bundled_text("corridor_coverage").replace("p_near: 0.05\n", f"p_near: 0.05\n    range_m: {range_m}\n")
    result = run_scenario(parse_scenario(text), t_end_ms=1_000)
    length = result.config.corridor.length_m
    for rsu in ("rsu1", "rsu2", "rsu3"):
        distances = [row.distance_m for row in result.coverage if row.rsu == rsu]
        assert distances[-1] <= length < distances[-1] + 10.0


def test_hard_brake_at_its_spawn_millisecond_runs():
    text = bundled_text("collision_avoidance_20mph").replace("at_s: 2.0", "at_s: 0.0")
    result = run_scenario(parse_scenario(text), t_end_ms=3_000)
    assert {d.vehicle for d in result.avoidance_decisions} == {"cv2", "cv3"}
