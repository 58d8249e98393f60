import random
from dataclasses import replace

import pytest

from cvsim.core import InvalidParameterError
from cvsim.radio import (
    PATH_LOSS_EXPONENT,
    PL0_DB,
    TX_POWER_DBM,
    Delivered,
    LinkKind,
    LinkModel,
    default_link_models,
    in_range,
    loss_probability,
    rssi_dbm,
    sample_delivery,
)

DSRC = LinkModel(kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=4)
LTE = LinkModel(kind=LinkKind.LTE, range_m=None, latency_mean_ms=50)


def test_in_range_basics():
    assert in_range(150.0, DSRC)
    assert not in_range(350.0, DSRC)
    assert in_range(10_000.0, LTE)  # unbounded link


def test_obstruction_shrinks_effective_range():
    assert DSRC.effective_range == 300.0
    assert replace(DSRC, obstruction=0.25).effective_range == 225.0
    assert not in_range(250.0, replace(DSRC, obstruction=0.25))
    assert LTE.effective_range is None and replace(LTE, obstruction=0.5).effective_range is None
    with pytest.raises(InvalidParameterError):
        replace(DSRC, obstruction=1.5)


@pytest.mark.parametrize("obstruction", [-0.01, 1.01, float("nan"), float("inf")])
def test_obstruction_outside_unit_interval_rejected(obstruction):
    with pytest.raises(InvalidParameterError, match="obstruction must be in \\[0, 1\\]"):
        LinkModel(kind=LinkKind.DSRC, range_m=300.0, obstruction=obstruction)


def test_loss_probability_shape():
    model = LinkModel(kind=LinkKind.DSRC, range_m=300.0, p_near=0.1, ramp_start_frac=0.8)
    assert loss_probability(0.0, model) == 0.1
    assert loss_probability(240.0, model) == 0.1  # ramp start
    assert loss_probability(270.0, model) == pytest.approx(0.55)  # halfway up the ramp
    assert loss_probability(300.0, model) == 1.0
    assert loss_probability(999.0, model) == 1.0


def test_delivery_always_succeeds_with_zero_loss_at_zero_distance():
    rng = random.Random(1)
    for _ in range(200):
        outcome = sample_delivery(0.0, DSRC, rng)
        assert isinstance(outcome, Delivered)


def test_delivery_at_or_beyond_effective_range_always_lost():
    rng = random.Random(2)
    for d in (300.0, 300.1, 1000.0):
        for _ in range(50):
            assert not isinstance(sample_delivery(d, DSRC, rng), Delivered)


def test_full_obstruction_kills_all_deliveries():
    rng = random.Random(3)
    for d in (0.1, 10.0, 100.0):
        assert not in_range(d, replace(DSRC, obstruction=1.0))
        assert not isinstance(sample_delivery(d, replace(DSRC, obstruction=1.0), rng), Delivered)


def test_latency_equals_mean_with_zero_jitter():
    rng = random.Random(4)
    for _ in range(100):
        outcome = sample_delivery(1.0, DSRC, rng)
        assert outcome.latency_ms == 4


def test_latency_uniform_within_jitter_and_clamped_positive():
    model = LinkModel(kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=2, latency_jitter_ms=5)
    rng = random.Random(5)
    seen = set()
    for _ in range(2000):
        outcome = sample_delivery(1.0, model, rng)
        assert 1 <= outcome.latency_ms <= 7
        seen.add(outcome.latency_ms)
    assert seen == set(range(1, 8))


def test_zero_jitter_delivery_is_the_models_one_outcome_after_one_draw():
    rng, twin = random.Random(11), random.Random(11)
    outcomes = [sample_delivery(10.0, DSRC, rng) for _ in range(3)]
    assert all(outcome is DSRC.mean_delivery for outcome in outcomes)
    assert DSRC.mean_delivery == Delivered(4) and isinstance(DSRC.mean_delivery, Delivered)
    for _ in range(3):
        twin.random()  # the loss draw, and nothing more
    assert rng.getstate() == twin.getstate()


def test_jittered_delivery_still_draws_its_latency():
    model = replace(DSRC, latency_jitter_ms=2)
    rng, twin = random.Random(11), random.Random(11)
    outcome = sample_delivery(10.0, model, rng)
    twin.random()
    assert outcome == Delivered(twin.randint(2, 6)) and outcome is not model.mean_delivery
    assert rng.getstate() == twin.getstate()


def test_replace_rebuilds_the_held_outcome():
    slower = replace(DSRC, latency_mean_ms=9)
    assert slower.mean_delivery == Delivered(9) and DSRC.mean_delivery == Delivered(4)
    assert sample_delivery(1.0, slower, random.Random(3)) is slower.mean_delivery
    assert DSRC.for_warnings().mean_delivery == Delivered(4)
    warning = replace(DSRC, warning_latency_mean_ms=88).for_warnings()
    assert warning.mean_delivery == Delivered(88)
    # Not part of a model's value: two equal models may hold two equal outcomes.
    assert slower == replace(DSRC, latency_mean_ms=9) and "mean_delivery" not in repr(slower)


def test_warning_model_takes_the_warning_mean():
    model = LinkModel(
        kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=4, warning_latency_mean_ms=88
    )
    rng = random.Random(6)
    assert sample_delivery(1.0, model.for_warnings(), rng).latency_ms == 88
    assert sample_delivery(1.0, model, rng).latency_ms == 4


def test_warning_model_keeps_kind_range_loss_and_jitter():
    model = LinkModel(
        kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=4, latency_jitter_ms=2,
        warning_latency_mean_ms=88, p_near=0.2, ramp_start_frac=0.5,
    )
    warning = model.for_warnings()
    assert warning == replace(model, latency_mean_ms=88)
    assert warning.kind is LinkKind.DSRC
    # Same stream, same draws: every loss agrees, and each latency is shifted by the mean difference.
    data_rng, warning_rng = random.Random(9), random.Random(9)
    outcomes = []
    for i in range(2_000):
        d = 0.15 * i  # 0 to 300 m, through the loss ramp
        data = sample_delivery(d, model, data_rng)
        warned = sample_delivery(d, warning, warning_rng)
        assert (data is None) == (warned is None)
        if data is not None:
            assert warned.latency_ms == data.latency_ms + 84
            outcomes.append(warned.latency_ms)
    assert set(outcomes) == set(range(86, 91))
    assert len(outcomes) < 2_000  # some were lost


def test_link_without_warning_mean_carries_warnings_at_its_data_mean():
    wifi = default_link_models(speed_tier_mph=20)[LinkKind.WIFI]
    assert wifi.warning_latency_mean_ms is None
    assert wifi.for_warnings() is wifi
    assert sample_delivery(1.0, wifi.for_warnings(), random.Random(6)).latency_ms == 6


def test_empirical_loss_rate_tracks_p_loss():
    model = LinkModel(kind=LinkKind.DSRC, range_m=300.0, p_near=0.2, ramp_start_frac=0.8)
    rng = random.Random(7)
    for d in (50.0, 250.0, 280.0):
        expected = loss_probability(d, model)
        n = 20_000
        lost = sum(
            1 for _ in range(n) if not isinstance(sample_delivery(d, model, rng), Delivered)
        )
        assert lost / n == pytest.approx(expected, abs=0.01)


def test_rssi_reference_point_and_decade_slope():
    assert (TX_POWER_DBM, PL0_DB, PATH_LOSS_EXPONENT) == (20.0, 47.0, 2.4)
    assert rssi_dbm(1.0) == pytest.approx(20.0 - 47.0)
    # 10 x 2.4 dB per decade of distance
    assert rssi_dbm(10.0) == pytest.approx(rssi_dbm(1.0) - 24.0)
    assert rssi_dbm(100.0) == pytest.approx(rssi_dbm(10.0) - 24.0)
    # below the 1 m reference distance, clamps to the reference value
    assert rssi_dbm(0.01) == rssi_dbm(1.0)


def test_rssi_strictly_decreasing():
    rng = random.Random(8)
    for _ in range(200):
        d1 = rng.uniform(1.0, 400.0)
        d2 = d1 + rng.uniform(0.1, 100.0)
        assert rssi_dbm(d2) < rssi_dbm(d1)


def test_default_profiles_match_published_means():
    models = default_link_models(speed_tier_mph=20)
    assert models[LinkKind.DSRC].latency_mean_ms == 4
    assert models[LinkKind.DSRC].warning_latency_mean_ms == 88
    assert models[LinkKind.LTE].warning_latency_mean_ms == 2590
    assert models[LinkKind.WIFI].latency_mean_ms == 6
    for tier, dsrc_ms, lte_ms in ((20, 88, 2590), (35, 102, 2810), (50, 125, 3000)):
        models = default_link_models(speed_tier_mph=tier)
        assert models[LinkKind.DSRC].warning_latency_mean_ms == dsrc_ms
        assert models[LinkKind.LTE].warning_latency_mean_ms == lte_ms
    with pytest.raises(InvalidParameterError):
        default_link_models(speed_tier_mph=45)


def test_link_model_validation():
    with pytest.raises(InvalidParameterError):
        LinkModel(kind=LinkKind.DSRC, range_m=0.0)
    with pytest.raises(InvalidParameterError):
        LinkModel(kind=LinkKind.DSRC, p_near=1.0)
    with pytest.raises(InvalidParameterError):
        LinkModel(kind=LinkKind.DSRC, ramp_start_frac=1.5)


@pytest.mark.parametrize("value", [0, -1, -500])
@pytest.mark.parametrize("field", ["latency_mean_ms", "warning_latency_mean_ms"])
def test_latency_mean_below_one_ms_rejected(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be at least 1 ms, got {value}"):
        LinkModel(kind=LinkKind.DSRC, **{field: value})
    assert getattr(LinkModel(kind=LinkKind.DSRC, **{field: 1}), field) == 1
