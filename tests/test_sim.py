"""Integration behavior of the wired simulation, scenario by scenario."""

import importlib.resources
import io
import math
from collections import Counter
from dataclasses import replace
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from cvsim import handoff as ho
from cvsim.apps import WINDOW_MS, Verdict
from cvsim.config import Directive, bundled_scenario_names, load_scenario, parse_scenario
from cvsim.core import GeoPoint, distance
from cvsim.engine import DELIVERY_KIND
from cvsim.mobility import DEG_TO_M, Corridor
from cvsim.radio import LinkKind, in_range
from cvsim.report import coverage_rows, exchange_delays, link_stats
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


def test_each_warning_source_decides_once_at_a_receiver():
    # Two vehicles ahead of rx hard-brake a second apart, both inside its
    # short-range reach: each warning reaches rx over short-range radio and
    # again through the cellular relay, and only the first copy of each decides.
    text = """\
name: two_warnings
t_end_s: 8.0
speed_tier_mph: 20
corridor:
  polyline:
    - [40.0, -75.0]
    - [40.010792, -75.0]
detection:
  enabled: false
vehicles:
  - {id: a, s_m: 600.0, speed_mph: 20.0}
  - {id: b, s_m: 500.0, speed_mph: 20.0}
  - {id: rx, s_m: 407.0, speed_mph: 20.0}
script:
  - {at_s: 2.0, action: hard_brake, vehicle: a}
  - {at_s: 3.0, action: hard_brake, vehicle: b}
"""
    result = run_scenario(parse_scenario(text))
    assert result.archives[SYSTEM_NODE_ID].count("warning/region/#") == 2  # both relays reached the backend
    short_range = [p for p in result.packets if p.kind == "warning" and p.rx == "rx" and p.delivered]
    assert len(short_range) == 2
    decisions = [d for d in result.avoidance_decisions if d.vehicle == "rx"]
    # t_recv - latency_ms is the emit time, which names the source here.
    assert sorted(d.t_recv - d.latency_ms for d in decisions) == [2000, 3000]
    assert {d.link_used for d in decisions} == {LinkKind.DSRC}


def test_out_of_range_warning_is_counted_not_logged(scenario_runs):
    # cv1 brakes hard; cv2 is within short-range reach of it, cv3 is not.
    result = scenario_runs("collision_avoidance_20mph")
    assert result.out_of_range[LinkKind.DSRC, "warning"] == 1
    logged = [p.rx for p in result.packets if p.kind == "warning" and p.link is LinkKind.DSRC]
    assert logged == ["cv2"]


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


def test_rsu_windows_stay_empty_without_the_detector():
    cfg = load_scenario("rsu_coverage_pass")
    assert not cfg.detection.enabled
    sim = Simulation(cfg)
    result = sim.run()
    assert result.archives["rsu1"].count("bsm/raw/#") > 0  # the RSU did receive telemetry
    assert all(node.window == [] for node in sim.rsus)


@pytest.mark.parametrize("name", ["queue_full_penetration", "queue_mixed_penetration", "corridor_coverage"])
def test_processed_means_are_the_detector_means(name):
    """Each processed ``mean_speed`` is the ``fmean`` of that vehicle's speeds in the
    detector window, and their ``fmean`` is the decision's ``avg_speed_mps``."""
    sim = Simulation(load_scenario(name))
    received = {node.node_id: [] for node in sim.rsus}  # raw telemetry, in arrival order
    processed = []  # (processed document, speeds per vehicle in the detector window)

    def listen(msg):
        if msg.topic.startswith("bsm/raw/"):
            received[msg.publisher].append(msg.payload)
        elif msg.topic.startswith("bsm/processed/"):
            # Published during the tick: everything received so far is what the window held.
            now, speeds = msg.payload["t"], {}
            for doc in received[msg.publisher]:
                if now - WINDOW_MS < doc["t"] <= now:
                    speeds.setdefault(doc["vehicle_id"], []).append(doc["speed"])
            processed.append((msg.payload, speeds))

    for node in sim.rsus:
        node.broker.subscribe(client="listener", pattern="#", callback=listen)
    result = sim.run()
    decisions = {(e.decision.rsu, e.decision.t): e.decision for e in result.queue_evals}
    assert len(processed) == len(decisions) > 0
    compared = 0
    for doc, speeds in processed:
        means = {vid: v["mean_speed"] for vid, v in doc["vehicles"].items()}
        reports = {vid: v["reports"] for vid, v in doc["vehicles"].items()}
        assert means == {vid: fmean(s) for vid, s in speeds.items()}
        assert reports == {vid: len(s) for vid, s in speeds.items()}
        if means:
            assert decisions[(doc["rsu"], doc["t"])].avg_speed_mps == fmean(means.values())
        compared += len(means)
    assert compared > 100


def test_rsu_windows_are_empty_after_each_tick():
    sim = Simulation(load_scenario("queue_mixed_penetration"))
    after = []
    original = sim._detector_tick

    def tick():
        before = sum(len(node.window) for node in sim.rsus)
        original()
        after.append((before, [len(node.window) for node in sim.rsus]))

    sim._detector_tick = tick
    sim.run()
    assert any(before > 0 for before, _ in after)
    assert all(sizes == [0] * len(sim.rsus) for _, sizes in after)


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


def test_identical_runs_produce_identical_event_traces():
    def trace():
        sink = io.StringIO()
        run_scenario(load_scenario("queue_mixed_penetration"), trace=sink)
        return sink.getvalue()

    first = trace()
    assert first == trace()
    assert first  # trace actually captured


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
    rows = coverage_rows(result.config)
    assert len(rows) > 0
    assert any(rsu == "rsu2" and p_loss == 1.0 and d < 300 for rsu, d, _, p_loss in rows)


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


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_every_send_is_delivered_in_flight_or_lost(scenario_runs, name):
    """A delivery due after the run's end is in flight, not delivered, so the
    backend archived exactly the deliveries to it that arrived by the end."""
    result = scenario_runs(name)
    end = result.summary.end_time_ms
    for s in link_stats(result):
        assert s.delivered + s.in_flight + s.lost == s.sent
        late = [p for p in result.packets if p.link is s.link and p.delivered and p.t_recv > end]
        assert s.in_flight == len(late)
    arrived = [p for p in result.packets if p.rx == SYSTEM_NODE_ID and p.delivered and p.t_recv <= end]
    assert result.archives[SYSTEM_NODE_ID].appended_total == len(arrived)


def test_final_second_queue_status_is_in_flight(scenario_runs):
    stats = {s.link: s for s in link_stats(scenario_runs("corridor_coverage"))}
    assert (stats[LinkKind.WIFI].sent, stats[LinkKind.WIFI].delivered, stats[LinkKind.WIFI].in_flight) == (1591, 1588, 3)
    assert stats[LinkKind.WIFI].lost == 0 and stats[LinkKind.WIFI].avg_latency_ms == 6.0
    assert exchange_delays(scenario_runs("corridor_coverage"))["system_fixed"] == 6.0


def test_wifi_access_override_leaves_the_backhaul_at_6_ms():
    text = bundled_text("queue_full_penetration") + "links:\n  wifi:\n    latency_mean_ms: 20\n"
    result = run_scenario(replace(parse_scenario(text), t_end_ms=5_000))
    assert exchange_delays(result)["system_fixed"] == 6.0
    forwarded = [p for p in result.packets if p.kind in ("bsm_forward", "queue_status")]
    assert forwarded and all(p.link is LinkKind.WIFI and p.latency_ms == 6 for p in forwarded)


@pytest.mark.parametrize("range_m", ["1.0e+12", "5000.0"])
def test_coverage_sweep_stops_at_the_corridor_length(range_m):
    text = bundled_text("corridor_coverage").replace("p_near: 0.05\n", f"p_near: 0.05\n    range_m: {range_m}\n")
    config = parse_scenario(text)
    rows = coverage_rows(config)
    length = config.corridor.length_m
    for rsu in ("rsu1", "rsu2", "rsu3"):
        distances = [d for row_rsu, d, _, _ in rows if row_rsu == rsu]
        assert distances[-1] <= length < distances[-1] + 10.0


def test_hard_brake_at_its_spawn_millisecond_runs():
    text = bundled_text("collision_avoidance_20mph").replace("at_s: 2.0", "at_s: 0.0")
    result = run_scenario(replace(parse_scenario(text), t_end_ms=3_000))
    assert {d.vehicle for d in result.avoidance_decisions} == {"cv2", "cv3"}


# -- the RSU index against measuring every RSU ---------------------------------


def walk(legs, lat0=40.0, lon0=-75.0):
    """The polyline walked from (lat0, lon0) as (heading in degrees, length in m) legs."""
    points = [GeoPoint(lat0, lon0)]
    for heading, length in legs:
        p = points[-1]
        north = length * math.cos(math.radians(heading))
        east = length * math.sin(math.radians(heading))
        lon_m = DEG_TO_M * math.cos(math.radians(p.lat))
        points.append(GeoPoint(p.lat + north / DEG_TO_M, p.lon + east / lon_m))
    return points


def index_scenario(legs, rsus, vehicles, range_m=300.0, t_end_s=0.02, speed_mph=0.0, extra=""):
    """A scenario on the walked polyline; RSUs are (id, fraction of length, obstruction), vehicles fractions."""
    points = walk(legs)
    length = Corridor(points).length_m

    def offset(frac):  # rounded down, so that 1.0 stays on the corridor
        return f"{max(0.0, frac * length - 1e-6):.6f}"

    text = f"name: index\nt_end_s: {t_end_s}\ncorridor:\n  polyline:\n"
    text += "".join(f"    - [{p.lat!r}, {p.lon!r}]\n" for p in points)
    text += "  rsus:\n" + "".join(
        f"    - {{id: {rid}, s_m: {offset(frac)}, obstruction: {obs!r}}}\n" for rid, frac, obs in rsus
    )
    text += f"links:\n  dsrc:\n    range_m: {range_m!r}\ndetection:\n  enabled: false\nvehicles:\n"
    text += "".join(
        f"  - {{id: v{j}, s_m: {offset(frac)}, speed_mph: {speed_mph!r}}}\n" for j, frac in enumerate(vehicles)
    )
    return parse_scenario(text + extra)


# Turns between legs; 180 folds the road straight back onto itself.
TURNS = st.one_of(st.sampled_from([0.0, 90.0, 170.0, 178.0, 180.0, -175.0]), st.floats(-180.0, 180.0))
FRACTION = st.floats(0.0, 1.0)
OBSTRUCTION = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])


@st.composite
def index_cases(draw):
    heading = draw(st.floats(0.0, 360.0))
    legs = []
    for _ in range(draw(st.integers(1, 4))):
        legs.append((heading, draw(st.floats(20.0, 1500.0))))
        heading += draw(TURNS)
    ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True))
    rsus = [(f"r{rid}", draw(FRACTION), draw(OBSTRUCTION)) for rid in ids[1:]]
    # One more RSU on top of a drawn one, under another id: a tie in distance.
    twin = draw(st.sampled_from(rsus))
    rsus.append((f"r{ids[0]}", twin[1], draw(OBSTRUCTION)))
    vehicles = draw(st.lists(FRACTION, min_size=1, max_size=6))
    return legs, rsus, vehicles, draw(st.sampled_from([50.0, 300.0, 1000.0, None]))


@settings(max_examples=150, deadline=None)
@given(index_cases())
def test_rsu_index_agrees_with_measuring_every_rsu(case):
    legs, rsus, vehicles, range_m = case
    config = index_scenario(legs, rsus, vehicles, range_m=range_m or 300.0)
    if range_m is None:  # an unbounded short-range link, which only code can build
        dsrc = replace(config.links[LinkKind.DSRC], range_m=None)
        config = replace(config, links={**config.links, LinkKind.DSRC: dsrc})
    sim = Simulation(config)
    result = sim.run()  # one beacon round, at 10 ms, before any vehicle moves
    positions = {vid: sim.world.position_geo(vid) for vid in sim.agents}
    pairs = {
        (node.node_id, vid)
        for node in sim.rsus
        for vid, pos in positions.items()
        if in_range(distance(node.pos, pos), sim._beacon_model, node.obstruction)
    }
    # A zero beacon_p_near delivers, and so logs, every in-range beacon.
    assert sorted((p.tx, p.rx) for p in result.packets if p.kind == "beacon") == sorted(pairs)
    assert result.out_of_range == Counter({(LinkKind.DSRC, "beacon"): len(sim.rsus) * len(positions) - len(pairs)})
    for pos in positions.values():
        node, d = sim._rsu_index.nearest(pos)
        assert (d, node.node_id) == min((distance(n.pos, pos), n.node_id) for n in sim.rsus)


class _CountingSimulation(Simulation):
    """Tallies, per beacon round, RSUs times the spawned connected vehicles."""

    beacon_pairs = 0

    def _beacon_round(self):
        connected = sum(s.connected and s.vehicle_id in self.world.vehicles for s in self.config.vehicles)
        self.beacon_pairs += len(self.rsus) * connected
        super()._beacon_round()


# 1500 m north, then back south to 100 m east of the start.
HAIRPIN = [(0.0, 1500.0), (176.19, 1503.3)]


def test_beacons_are_logged_or_counted_once_each():
    late = (
        "  - {id: late, s_m: 10.0, speed_mph: 20.0, spawn_t_s: 12.3}\n"
        "  - {id: nc, s_m: 5.0, speed_mph: 20.0, connected: false}\n"
    )
    cases = [
        load_scenario("corridor_coverage"),
        index_scenario(
            HAIRPIN, [("out", 0.2, 0.0), ("turn", 0.45, 0.25), ("back", 0.9, 0.0)], [0.1, 0.6, 0.75],
            t_end_s=60.0, speed_mph=20.0, extra=late,
        ),
    ]
    for config in cases:
        sim = _CountingSimulation(config)
        result = sim.run()
        short_range = config.handoff.short_range
        logged = sum(p.kind == "beacon" for p in result.packets)
        counted = result.out_of_range[short_range, "beacon"]
        assert logged and counted
        assert logged + counted == sim.beacon_pairs
        stats = next(s for s in link_stats(result) if s.link is short_range)
        counted_on_link = sum(n for (link, _), n in result.out_of_range.items() if link is short_range)
        assert stats.sent == sum(p.link is short_range for p in result.packets) + counted_on_link


def test_return_leg_hands_off_through_an_outbound_rsu():
    # The only RSU stands 300 m along the way out; the vehicle starts 2 km
    # along the road, on the way back, and drives south past it.
    config = index_scenario(HAIRPIN, [("out", 0.1, 0.0)], [0.667], t_end_s=60.0, speed_mph=20.0)
    result = run_scenario(config)
    entry = next(e for e in result.handoff_events if e.to_link is LinkKind.DSRC)
    spawn = config.vehicles[0]
    arc_gap = spawn.s_m + spawn.speed_mps * entry.t / 1000.0 - config.corridor.rsus[0].s_m
    assert arc_gap > 1500.0 > config.links[LinkKind.DSRC].range_m
    hops = [p for p in result.packets if p.kind == "bsm" and p.rx == "out" and p.delivered]
    assert hops and all(p.t_send >= entry.t for p in hops)


# -- one pending handoff check per vehicle against one per beacon ---------------


class _PerBeaconSimulation(Simulation):
    """The reference: one ``handoff-check`` scheduled per delivered beacon."""

    def _on_beacon(self, agent):
        now = self.engine.now
        cfg = self.config.handoff
        event = ho.on_beacon(agent.handoff, cfg, now)
        if event is not None:
            self.handoff_events.append(event)
        self.engine.at(
            now + cfg.timeout_ms,
            "app-timer",
            f"handoff-check:{agent.vehicle_id}",
            lambda a=agent: self._per_beacon_check(a),
        )

    def _per_beacon_check(self, agent):
        event = ho.on_tick(agent.handoff, self.config.handoff, self.engine.now)
        if event is not None:
            self.handoff_events.append(event)


@st.composite
def handoff_cases(draw):
    heading = draw(st.floats(0.0, 360.0))
    legs = [(heading, draw(st.floats(300.0, 1500.0)))]
    if draw(st.booleans()):
        legs.append((heading + draw(TURNS), draw(st.floats(100.0, 800.0))))
    rsus = [
        (f"r{i}", draw(FRACTION), draw(st.sampled_from([0.0, 0.0, 0.25])))
        for i in range(draw(st.integers(1, 3)))
    ]
    # A twin RSU and a twin vehicle put several beacons, and several
    # vehicles' checks, in one millisecond.
    rsus.append(("twin", draw(st.sampled_from(rsus))[1], 0.0))
    vehicles = draw(st.lists(FRACTION, min_size=1, max_size=2))
    vehicles.append(draw(st.sampled_from(vehicles)))
    config = index_scenario(
        legs, rsus, vehicles,
        range_m=draw(st.sampled_from([60.0, 150.0, 300.0])),
        t_end_s=draw(st.sampled_from([6.0, 12.0])),
        speed_mph=draw(st.sampled_from([10.0, 30.0, 60.0])),
    )
    return with_beacons(
        config,
        latency_mean_ms=draw(st.integers(1, 260)),
        latency_jitter_ms=draw(st.sampled_from([0, 0, 3, 20, 90])),
        beacon_p_near=draw(st.sampled_from([0.0, 0.3, 0.6, 0.9])),
        miss_threshold=draw(st.integers(1, 4)),
        beacon_interval_ms=draw(st.sampled_from([20, 40, 50, 100, 130, 200])),
        association_delay_ms=draw(st.sampled_from([0, 0, 100, 1500])),
    )


def with_beacons(config, latency_mean_ms, latency_jitter_ms, **handoff):
    """``config`` with these DSRC latencies and ``handoff`` settings."""
    dsrc = replace(config.links[LinkKind.DSRC], latency_mean_ms=latency_mean_ms, latency_jitter_ms=latency_jitter_ms)
    return replace(config, links={**config.links, LinkKind.DSRC: dsrc}, handoff=replace(config.handoff, **handoff))


def run_traced(cls, config):
    sink = io.StringIO()
    result = cls(config, trace=sink).run()
    trace = [line for line in sink.getvalue().splitlines() if ",handoff-check:" not in line]
    return result, trace


def assert_matches_per_beacon(config):
    """Same handoffs, packets and event order (checks aside) as a check per beacon."""
    result, trace = run_traced(Simulation, config)
    expected, expected_trace = run_traced(_PerBeaconSimulation, config)
    assert result.handoff_events == expected.handoff_events
    assert result.packets == expected.packets
    assert trace == expected_trace
    assert result.summary.events_processed <= expected.summary.events_processed
    return expected


@settings(max_examples=60, deadline=None)
@given(handoff_cases())
def test_one_pending_check_per_vehicle_matches_one_per_beacon(config):
    """Ties are the point: a zero jitter lands a vehicle's check in the same
    millisecond as a later beacon round's deliveries, and a latency of 40 ms
    past a beacon phase lands beacons on the telemetry round."""
    assert_matches_per_beacon(config)


@settings(max_examples=60, deadline=None)
@given(handoff_cases())
def test_a_check_is_queued_exactly_while_on_the_short_range_link(config):
    """At the end of a run, each connected vehicle has one queued
    ``handoff-check`` if its short-range link is active, and none otherwise."""
    sim = Simulation(config)
    sim.run()
    queued = Counter(event.subject for _, _, event in sim.engine._queue)
    for vid, agent in sim.agents.items():
        expected = 1 if agent.handoff.short_range_active(config.handoff) else 0
        assert queued[f"handoff-check:{vid}"] == expected, vid


def test_checks_due_in_one_millisecond_keep_the_per_beacon_order():
    """Twin RSUs give each vehicle two beacons per round, and jitter spreads
    them: when two vehicles' checks fall due in one millisecond, the handoffs
    are listed in the order of each vehicle's first beacon of its last beacon
    millisecond, as with a check per beacon."""
    config = index_scenario(
        [(0.0, 1000.0)], [("r0", 0.5, 0.0), ("r1", 0.5, 0.0)], [0.45, 0.5],
        range_m=60.0, t_end_s=12.0, speed_mph=10.0,
    )
    config = with_beacons(
        config, latency_mean_ms=2, latency_jitter_ms=20, beacon_p_near=0.3, miss_threshold=1, beacon_interval_ms=130
    )
    expected = assert_matches_per_beacon(config)
    assert len(expected.handoff_events) > 100


# -- delivery batches against one event per delivered packet ----------------------


class _PerPacketSimulation(Simulation):
    """The reference: its engine schedules one ``radio-delivery`` event per delivered packet."""

    def __init__(self, config, trace=None):
        super().__init__(config, trace=trace)
        engine = self.engine
        engine.deliver = lambda fire_at, subject, fn: engine.at(fire_at, DELIVERY_KIND, subject, fn)


def outcomes(result):
    """Everything a run decides and stores: only its event count is left out."""
    archives = {
        node: (archive.appended_total, archive.query(0, result.summary.end_time_ms))
        for node, archive in result.archives.items()
    }
    return (
        result.packets, result.handoff_events, result.avoidance_decisions, result.queue_evals,
        archives, result.out_of_range, result.summary.end_time_ms,
    )


def assert_matches_per_packet(result, expected):
    assert outcomes(result) == outcomes(expected)
    assert result.summary.events_processed <= expected.summary.events_processed


@st.composite
def per_packet_cases(draw):
    """A handoff case, with the detector on or off, and maybe a vehicle braking hard."""
    config = draw(handoff_cases())
    config = replace(config, detection=replace(config.detection, enabled=draw(st.booleans())))
    if draw(st.booleans()):
        brake = Directive(at_ms=draw(st.integers(0, config.t_end_ms)), action="hard_brake", vehicle="v0")
        config = replace(config, script=[brake])
    return config


@settings(max_examples=40, deadline=None)
@given(per_packet_cases())
def test_batched_deliveries_match_one_event_per_packet(config):
    """Jittered and late deliveries and twin RSUs: batches run exactly where
    one event per packet would, so the rest of the event trace is the same."""
    traces = []
    results = []
    for cls in (Simulation, _PerPacketSimulation):
        sink = io.StringIO()
        results.append(cls(config, trace=sink).run())
        traces.append([line for line in sink.getvalue().splitlines() if ",radio-delivery," not in line])
    assert_matches_per_packet(*results)
    assert traces[0] == traces[1]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenarios_match_one_event_per_packet(scenario_runs, name):
    assert_matches_per_packet(scenario_runs(name), _PerPacketSimulation(load_scenario(name)).run())
