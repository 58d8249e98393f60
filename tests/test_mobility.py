import pytest

from cvsim.core import GeoPoint, SimConstants, mph_to_mps
from cvsim.mobility import Corridor, SignalSpec, TrafficWorld, VehicleState

CONSTANTS = SimConstants()


def straight_corridor(length_deg=0.0072, signals=()):
    return Corridor(
        [GeoPoint(40.0, -75.0), GeoPoint(40.0 + length_deg, -75.0)],
        signals=[SignalSpec(signal_id=s, s_m=pos) for s, pos in signals],
    )


def make_world(**kwargs):
    return TrafficWorld(corridor=straight_corridor(**kwargs.pop("corridor_kwargs", {})),
                        constants=CONSTANTS, **kwargs)


def cruise(vid, s, speed_mps):
    return VehicleState(id=vid, s=s, speed=speed_mps, cruise_speed=speed_mps)


def test_constant_speed_advances_exactly():
    world = make_world()
    world.spawn(cruise("v1", 100.0, 10.0))
    world.step(0.1)
    assert world.vehicles["v1"].s == pytest.approx(101.0, abs=0)
    assert world.t_state_ms == 100


def test_stationary_vehicle_unchanged():
    world = make_world()
    world.spawn(cruise("v1", 50.0, 0.0))
    for _ in range(20):
        world.step(0.1)
    v = world.vehicles["v1"]
    assert v.s == 50.0 and v.speed == 0.0


def test_braking_stop_time_matches_v_over_a_oracle():
    # oracle: t_stop = v / a = 8.9408 / 3.41376 = 2.619 s; tick grid rounds up
    world = make_world()
    world.spawn(cruise("v1", 0.0, mph_to_mps(20.0)))
    world.latch_stop("v1")
    ticks = 0
    while world.vehicles["v1"].speed > 0:
        world.step(0.1)
        ticks += 1
        assert ticks < 50
    t_stop = ticks * 0.1
    assert abs(t_stop - 8.9408 / 3.41376) <= 0.1
    # total travel equals the closed-form braking distance
    assert world.vehicles["v1"].s == pytest.approx(8.9408**2 / (2 * 3.41376), rel=1e-9)


def test_position_geo_endpoints_and_midpoint():
    corridor = straight_corridor()
    assert corridor.position_geo(0.0) == corridor.polyline[0]
    assert corridor.position_geo(corridor.length_m) == corridor.polyline[-1]
    mid = corridor.position_geo(corridor.length_m / 2)
    assert mid.lat == pytest.approx((40.0 + 40.0072) / 2, abs=1e-9)
    assert mid.lon == -75.0


class _CountingCorridor(Corridor):
    """A corridor that counts the arc lengths it converts to coordinates."""

    measured = 0

    def position_geo(self, s):
        self.measured += 1
        return super().position_geo(s)


def test_a_vehicle_is_measured_once_per_position():
    """A stopped vehicle keeps one ``GeoPoint`` for the whole stop and is
    measured once per stop; a moving one is measured again after every step."""
    corridor = _CountingCorridor([GeoPoint(40.0, -75.0), GeoPoint(40.0072, -75.0)])
    world = TrafficWorld(corridor=corridor, constants=CONSTANTS)
    world.spawn(cruise("stopped", 50.0, 0.0))
    world.spawn(cruise("moving", 20.0, 10.0))
    stopped = world.position_geo("stopped")
    moving = [world.position_geo("moving")]
    assert corridor.measured == 2
    for _ in range(5):
        world.step(0.1)
        assert world.position_geo("stopped") is stopped
        assert world.position_geo("moving") is world.position_geo("moving")  # once per step, however often asked
        moving.append(world.position_geo("moving"))
    assert corridor.measured == 2 + 5
    assert len({(p.lat, p.lon) for p in moving}) == 6
    assert moving[-1] == corridor.position_geo(world.vehicles["moving"].s)
    # Braking to a halt moves it each step until it stops, then never again.
    world.latch_stop("moving")
    while world.vehicles["moving"].speed > 0:
        world.step(0.1)
    halt = world.position_geo("moving")
    before = corridor.measured
    for _ in range(5):
        world.step(0.1)
        assert world.position_geo("moving") is halt
    assert corridor.measured == before


def test_project_inverts_position_geo():
    corridor = Corridor(
        [GeoPoint(40.0, -75.0), GeoPoint(40.004, -75.0), GeoPoint(40.004, -74.996)]
    )
    for s in (0.0, 10.0, 200.0, corridor.length_m / 2, corridor.length_m - 1.0):
        assert corridor.project(corridor.position_geo(s)) == pytest.approx(s, abs=0.01)


def test_corridor_validation():
    with pytest.raises(ValueError):
        Corridor([GeoPoint(40.0, -75.0)])
    with pytest.raises(ValueError):
        Corridor([GeoPoint(40.0, -75.0), GeoPoint(40.0, -75.0)])
    with pytest.raises(ValueError):
        straight_corridor(signals=(("s1", 10_000.0),))


def test_red_signal_stops_approaching_vehicle_short_of_stop_line():
    world = make_world(corridor_kwargs={"signals": (("sig1", 400.0),)})
    world.spawn(cruise("v1", 300.0, mph_to_mps(20.0)))
    world.set_signal_red("sig1", 0, 10**9)
    for _ in range(300):
        world.step(0.1)
    v = world.vehicles["v1"]
    assert v.speed == 0.0
    assert 390.0 < v.s < 400.0  # stopped before the line, inside the margin band


def test_follower_brakes_and_never_closes_below_one_meter():
    world = make_world()
    world.spawn(cruise("lead", 200.0, mph_to_mps(20.0)))
    world.spawn(cruise("tail", 180.0, mph_to_mps(20.0)))
    world.latch_stop("lead")
    min_gap = 1e9
    for _ in range(600):
        world.step(0.1)
        gap = world.vehicles["lead"].s - world.vehicles["tail"].s
        min_gap = min(min_gap, gap)
        assert world.vehicles["tail"].speed >= 0.0
    assert world.vehicles["tail"].speed == 0.0
    assert min_gap >= 1.0


def test_no_overtaking_in_mixed_stream():
    world = make_world()
    world.spawn(cruise("a", 300.0, 5.0))
    world.spawn(cruise("b", 260.0, mph_to_mps(20.0)))  # faster follower must yield
    world.spawn(cruise("c", 220.0, mph_to_mps(20.0)))
    order_before = [v.id for v in world.ordered()]
    last_s = {v.id: v.s for v in world.vehicles.values()}
    for _ in range(1000):
        world.step(0.1)
        assert [v.id for v in world.ordered()] == order_before
        for v in world.vehicles.values():
            assert v.speed >= 0
            assert v.s >= last_s[v.id]  # one-way corridor: never rolls back
            last_s[v.id] = v.s


def test_queue_reforms_after_signal_turns_green():
    world = make_world(corridor_kwargs={"signals": (("sig1", 400.0),)})
    world.spawn(cruise("v1", 340.0, mph_to_mps(20.0)))
    world.set_signal_red("sig1", 0, 30_000)
    for _ in range(300):
        world.step(0.1)
    assert world.vehicles["v1"].speed == 0.0
    # green: the vehicle pulls away and recovers cruise speed
    for _ in range(300):
        world.step(0.1)
    v = world.vehicles["v1"]
    assert v.s > 420.0
    assert v.speed == pytest.approx(mph_to_mps(20.0), abs=1e-9)


def test_ground_truth_examples():
    world = make_world(corridor_kwargs={"signals": (("sig1", 400.0),)})
    # five stopped vehicles, 3 m bumper gaps
    for i in range(5):
        world.spawn(cruise(f"v{i}", 397.0 - 3.0 * i, 0.0))
    assert world.ground_truth_queue((0.0, world.corridor.length_m)) is True

    # free flow at 15 m/s
    world2 = make_world()
    for i in range(5):
        world2.spawn(cruise(f"v{i}", 300.0 - 20.0 * i, 15.0))
    assert world2.ground_truth_queue((0.0, world2.corridor.length_m)) is False

    # a single stopped vehicle is not a queue
    world3 = make_world()
    world3.spawn(cruise("v0", 100.0, 0.0))
    assert world3.ground_truth_queue((0.0, world3.corridor.length_m)) is False


def test_ground_truth_zone_and_gap_threshold():
    world = make_world()
    world.spawn(cruise("v0", 100.0, 0.0))
    world.spawn(cruise("v1", 97.0, 0.0))
    world.spawn(cruise("v2", 80.0, 0.0))  # 17 m back: breaks the chain
    zone = (0.0, world.corridor.length_m)
    assert world.ground_truth_queue(zone) is False  # 17 m gap >= 20 ft threshold
    assert world.ground_truth_queue((90.0, 110.0)) is True  # zone excludes the straggler
    with pytest.raises(ValueError):
        world.ground_truth_queue(zone, min_vehicles=1)


def test_ground_truth_min_vehicles_knob():
    world = make_world()
    world.spawn(cruise("v0", 100.0, 0.0))
    world.spawn(cruise("v1", 97.0, 0.0))
    world.spawn(cruise("v2", 94.0, 10.0))  # still moving
    zone = (0.0, world.corridor.length_m)
    assert world.ground_truth_queue(zone, min_vehicles=2) is True
    assert world.ground_truth_queue(zone, min_vehicles=3) is False


def test_spawn_validation():
    world = make_world()
    world.spawn(cruise("v1", 10.0, 5.0))
    with pytest.raises(ValueError):
        world.spawn(cruise("v1", 20.0, 5.0))
    with pytest.raises(ValueError):
        world.spawn(cruise("v2", -1.0, 5.0))
