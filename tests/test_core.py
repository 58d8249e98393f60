import math
import random

import pytest

from cvsim.core import (
    Bsm,
    GeoPoint,
    InvalidParameterError,
    SimConstants,
    distance,
    ft_to_m,
    m_to_ft,
    min_safety_distance,
    mph_to_mps,
    mps_to_mph,
    round_half_away,
)

# Independent oracle for the short-meridian case: arc length R * dphi.
MERIDIAN_0P001_DEG_M = 6_371_000.0 * math.radians(0.001)  # 111.19492664455873


def test_speed_conversion_constants():
    assert mph_to_mps(0) == 0
    assert mph_to_mps(1) == 0.44704
    assert mph_to_mps(20) == pytest.approx(8.9408, abs=0)


@pytest.mark.parametrize("mph", [0.1, 1, 5, 20, 35, 50, 73.6])
def test_speed_round_trip(mph):
    assert mps_to_mph(mph_to_mps(mph)) == pytest.approx(mph, rel=1e-12)


@pytest.mark.parametrize("ft", [0.5, 1, 11.2, 20, 305, 1000.25])
def test_length_round_trip(ft):
    assert m_to_ft(ft_to_m(ft)) == pytest.approx(ft, rel=1e-12)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.4) == 2
    assert round_half_away(38.4127) == 38


def test_geopoint_bounds():
    GeoPoint(90, 180)
    GeoPoint(-90, -180)
    with pytest.raises(InvalidParameterError):
        GeoPoint(90.1, 0)
    with pytest.raises(InvalidParameterError):
        GeoPoint(0, -180.5)


def test_distance_identity():
    p = GeoPoint(40.0, -75.0)
    assert distance(p, p) == 0.0


def test_distance_meridian_oracle():
    d = distance(GeoPoint(0.0, 0.0), GeoPoint(0.001, 0.0))
    assert d == pytest.approx(MERIDIAN_0P001_DEG_M, abs=0.01)
    assert d == pytest.approx(111.19, abs=0.01)


def test_distance_symmetry_random_pairs():
    rng = random.Random(1234)
    for _ in range(200):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert distance(a, b) == distance(b, a)
        assert distance(a, b) >= 0


def test_distance_triangle_inequality_random_triples():
    rng = random.Random(99)
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-120, 120)) for _ in range(3)]
        ab = distance(pts[0], pts[1])
        bc = distance(pts[1], pts[2])
        ac = distance(pts[0], pts[2])
        assert ac <= (ab + bc) * (1 + 1e-9)


@pytest.mark.parametrize(
    "mph,expected_ft",
    [(20, 38), (35, 118), (50, 240)],
)
def test_min_safety_distance_published_values(mph, expected_ft):
    d_m = min_safety_distance(mph_to_mps(mph), ft_to_m(11.2))
    assert round_half_away(m_to_ft(d_m)) == expected_ft


def test_min_safety_distance_zero_speed():
    assert min_safety_distance(0.0, 3.41376) == 0.0


def test_min_safety_distance_quadratic_scaling():
    # doubling speed exactly quadruples the braking distance
    for v in (1.0, 4.2, 8.9408, 22.352):
        assert min_safety_distance(2 * v, 3.41376) == 4 * min_safety_distance(v, 3.41376)


def test_min_safety_distance_strictly_increasing():
    decel = ft_to_m(11.2)
    speeds = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
    dists = [min_safety_distance(v, decel) for v in speeds]
    assert all(b > a for a, b in zip(dists, dists[1:]))


def test_min_safety_distance_rejects_bad_decel():
    with pytest.raises(InvalidParameterError):
        min_safety_distance(10.0, 0.0)
    with pytest.raises(InvalidParameterError):
        min_safety_distance(10.0, -1.0)
    with pytest.raises(InvalidParameterError):
        min_safety_distance(-1.0, 1.0)


def test_sim_constants_defaults_are_converted_paper_units():
    c = SimConstants()
    assert c.queue_speed_threshold_mps == pytest.approx(2.2352, abs=0)
    assert c.queue_gap_threshold_m == pytest.approx(6.096, abs=0)
    assert c.decel_mps2 == pytest.approx(3.41376, abs=0)
    assert c.safety_latency_req_ms == 200
    assert c.bsm_interval_ms == 100


def test_sim_constants_reject_nonpositive():
    with pytest.raises(InvalidParameterError):
        SimConstants(bsm_interval_ms=0)


def test_bsm_doc_round_trip():
    bsm = Bsm(t=1050, vehicle_id="cv1", pos=GeoPoint(40.0, -75.0), speed=8.9408)
    assert Bsm.from_doc(bsm.to_doc()) == bsm
    with_heading = Bsm(t=0, vehicle_id="x", pos=GeoPoint(0, 0), speed=1.0, heading=90.0)
    assert Bsm.from_doc(with_heading.to_doc()) == with_heading


def test_bsm_rejects_negative_speed():
    with pytest.raises(InvalidParameterError):
        Bsm(t=0, vehicle_id="v", pos=GeoPoint(0, 0), speed=-0.1)
