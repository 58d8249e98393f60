import pytest

from cvsim.core import InvalidParameterError
from cvsim.handoff import (
    BeaconConfig,
    HandoffState,
    can_transmit,
    on_beacon,
    on_tick,
)
from cvsim.radio import LinkKind

CFG = BeaconConfig()  # 100 ms interval, 3 misses, DSRC


def test_first_beacon_performs_hard_handoff():
    state = HandoffState(vehicle="v1")
    assert state.active is LinkKind.LTE
    event = on_beacon(state, CFG, t=1000)
    assert event is not None
    assert (event.from_link, event.to_link) == (LinkKind.LTE, LinkKind.DSRC)
    assert state.active is LinkKind.DSRC
    assert state.last_beacon_at == 1000


def test_repeat_beacon_is_idempotent():
    state = HandoffState(vehicle="v1")
    on_beacon(state, CFG, 1000)
    assert on_beacon(state, CFG, 1100) is None
    assert on_beacon(state, CFG, 1100) is None  # same-tick duplicate
    assert state.active is LinkKind.DSRC


def test_timeout_exits_exactly_at_miss_threshold_times_interval():
    state = HandoffState(vehicle="v1")
    on_beacon(state, CFG, 1000)
    assert on_tick(state, CFG, 1100) is None
    assert on_tick(state, CFG, 1200) is None
    assert on_tick(state, CFG, 1299) is None
    event = on_tick(state, CFG, 1300)  # last_beacon + miss_threshold*interval
    assert event is not None
    assert (event.from_link, event.to_link) == (LinkKind.DSRC, LinkKind.LTE)
    assert state.active is LinkKind.LTE


def test_two_misses_then_beacon_stays_short_range():
    state = HandoffState(vehicle="v1")
    on_beacon(state, CFG, 1000)
    assert on_tick(state, CFG, 1100) is None
    assert on_tick(state, CFG, 1200) is None
    assert on_beacon(state, CFG, 1250) is None
    assert on_tick(state, CFG, 1300) is None
    assert state.active is LinkKind.DSRC


def test_lte_active_without_beacons_stays_forever():
    state = HandoffState(vehicle="v1")
    for t in range(0, 10_000, 100):
        assert on_tick(state, CFG, t) is None
    assert state.active is LinkKind.LTE


def test_association_delay_gates_transmission():
    cfg = BeaconConfig(short_range=LinkKind.WIFI, association_delay_ms=25_000)
    state = HandoffState(vehicle="v1")
    assert can_transmit(state, 0)
    on_beacon(state, cfg, 2000)
    assert state.active is LinkKind.WIFI
    assert not can_transmit(state, 2000)
    assert not can_transmit(state, 26_999)
    assert can_transmit(state, 27_000)


def test_exit_clears_association_gate():
    cfg = BeaconConfig(short_range=LinkKind.WIFI, association_delay_ms=25_000)
    state = HandoffState(vehicle="v1")
    on_beacon(state, cfg, 0)
    on_tick(state, cfg, cfg.timeout_ms)
    assert state.active is LinkKind.LTE
    assert can_transmit(state, cfg.timeout_ms)


def test_beacon_config_validation():
    with pytest.raises(InvalidParameterError):
        BeaconConfig(beacon_interval_ms=0)
    with pytest.raises(InvalidParameterError):
        BeaconConfig(miss_threshold=0)
    with pytest.raises(InvalidParameterError):
        BeaconConfig(short_range=LinkKind.LTE)
    with pytest.raises(InvalidParameterError):
        BeaconConfig(association_delay_ms=-1)
