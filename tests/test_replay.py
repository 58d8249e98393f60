import json
import math
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cvsim.apps import eval_bucket
from cvsim.config import load_scenario
from cvsim.replay import MAX_TRACE_T_MS, TraceError, TraceRecord, axis_order_key, parse_trace, replay_trace
from cvsim.report import write_bsm_trace
from cvsim.core import EARTH_RADIUS_M, Bsm, GeoPoint
from cvsim.radio import LinkKind
from cvsim.sim import run_scenario

GOLDEN_MIXED_TRACE = Path(__file__).parent / "data" / "golden_mixed_40s.ndjson"
# Frozen from the committed trace by the independent brute-force recount
# (22 of 40 one-second evaluations agree with the embedded ground truth).
GOLDEN_MIXED_ACCURACY = 22 / 40


def test_eval_bucket_half_open_windows():
    assert eval_bucket(1) == 1000
    assert eval_bucket(950) == 1000
    assert eval_bucket(1000) == 1000
    assert eval_bucket(1001) == 2000
    assert eval_bucket(166_950) == 167_000


def test_empty_trace_replays_to_zero_decisions(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    result = replay_trace(parse_trace(path))
    assert result.decisions == [] and result.accuracy is None


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.ndjson"
    good = json.dumps({"t": 50, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 1.0})
    path.write_text(good + "\n{not json}\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path)
    assert f"{path}:2" in str(err.value)


def test_missing_fields_reported(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text(json.dumps({"t": 50, "vehicle_id": "v"}) + "\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path)
    assert "missing fields" in str(err.value)


def test_bad_truth_type_reported(tmp_path):
    path = tmp_path / "bad.ndjson"
    doc = {"t": 50, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 1.0, "truth": "yes"}
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path)
    assert "truth" in str(err.value)


def assert_replay_reproduces_live(result, config, trace_path):
    write_bsm_trace(result, trace_path)
    replay = replay_trace(parse_trace(trace_path), constants=config.constants, corridor=config.corridor)
    live = [e.decision for e in result.queue_evals]
    assert len(replay.decisions) == len(live) == 167
    for mine, theirs in zip(replay.decisions, live):
        assert mine.t == theirs.t
        assert mine.queued == theirs.queued
        assert mine.n_cvs == theirs.n_cvs
        assert mine.avg_speed_mps == theirs.avg_speed_mps
        assert mine.avg_gap_m == theirs.avg_gap_m
    # the embedded truth column reproduces the live series
    assert replay.truth == [e.truth for e in result.queue_evals]
    assert replay.accuracy == result.queue_accuracy()


def test_replay_reproduces_live_decisions_exactly(scenario_runs, tmp_path):
    for name in ("queue_full_penetration", "queue_mixed_penetration"):
        assert_replay_reproduces_live(scenario_runs(name), load_scenario(name), tmp_path / f"{name}.ndjson")


@pytest.mark.parametrize("latency_ms", [4, 25, 49])
@pytest.mark.parametrize("name", ["queue_full_penetration", "queue_mixed_penetration"])
def test_replay_reproduces_live_while_every_message_lands_before_its_decision(tmp_path, name, latency_ms):
    """The last message of a second leaves at x.950 s. Below 50 ms it reaches
    the RSU before the detector decides at the second's end; at 50 ms it lands
    in the decision's millisecond, after the decision, and only the replay,
    which reads the backend's stream, counts it."""
    config = load_scenario(name)
    dsrc = replace(config.links[LinkKind.DSRC], latency_mean_ms=latency_ms)
    config = replace(config, links={**config.links, LinkKind.DSRC: dsrc})
    assert_replay_reproduces_live(run_scenario(config), config, tmp_path / "trace.ndjson")


def test_axis_fallback_matches_corridor_projection_on_straight_road(scenario_runs, tmp_path):
    result = scenario_runs("queue_full_penetration")
    trace_path = tmp_path / "full.ndjson"
    write_bsm_trace(result, trace_path)
    records = parse_trace(trace_path)
    config = load_scenario("queue_full_penetration")
    with_corridor = replay_trace(records, constants=config.constants, corridor=config.corridor)
    without = replay_trace(records, constants=config.constants)
    assert [d.queued for d in with_corridor.decisions] == [d.queued for d in without.decisions]
    assert [d.avg_gap_m for d in with_corridor.decisions] == [
        d.avg_gap_m for d in without.decisions
    ]


def test_golden_mixed_trace_accuracy_frozen():
    records = parse_trace(GOLDEN_MIXED_TRACE)
    assert len(records) == 1200
    config = load_scenario("queue_mixed_penetration")
    result = replay_trace(records, constants=config.constants, corridor=config.corridor)
    assert len(result.decisions) == 40
    assert result.accuracy == GOLDEN_MIXED_ACCURACY
    # detector never fires here: the hidden-vehicle gaps exceed the threshold
    assert not any(d.queued for d in result.decisions)


def test_axis_order_key_handles_east_west_roads():
    records = [
        TraceRecord(Bsm(t=100 * i + 50, vehicle_id="v", pos=GeoPoint(40.0, -75.0 + i * 0.001), speed=1.0), None)
        for i in range(5)
    ]
    key = axis_order_key(records)
    values = [key(r.bsm.pos) for r in records]
    assert values == sorted(values)


# -- hypothesis property: the fallback ordering -------------------------------

DEG_TO_M = math.pi / 180.0 * EARTH_RADIUS_M


def reference_axis_key(records):
    """The fallback ordering as an explicit equirectangular projection onto the
    dominant axis of the trace's bounding box, written out independently of
    ``Corridor``."""
    points = [r.bsm.pos for r in records]
    lat0, lat1 = min(p.lat for p in points), max(p.lat for p in points)
    lon0, lon1 = min(p.lon for p in points), max(p.lon for p in points)
    coslat = math.cos(math.radians((lat0 + lat1) / 2.0))
    ax, ay = lon0 * coslat * DEG_TO_M, lat0 * DEG_TO_M
    if (lat1 - lat0) >= (lon1 - lon0) * coslat:
        bx, by = ax, lat1 * DEG_TO_M
    else:
        bx, by = lon1 * coslat * DEG_TO_M, ay
    vx, vy = bx - ax, by - ay
    norm = math.hypot(vx, vy) or 1.0

    def key(p):
        px, py = p.lon * coslat * DEG_TO_M, p.lat * DEG_TO_M
        return ((px - ax) * vx + (py - ay) * vy) / norm

    return key


# Axis-aligned roads come up often: on them only the dominant axis orders the
# vehicles, so a projection onto the other axis shows.
AXES = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
BEARINGS = st.floats(0.0, 2 * math.pi).map(lambda a: (math.cos(a), math.sin(a)))
# Offsets and speeds from small sets, so vehicles share spots and stand still.
VEHICLES = st.lists(
    st.tuples(st.sampled_from([0.0, 2.0, 5.0, 5.0, 12.5, 40.0, 150.0]), st.sampled_from([0.0, 0.0, 0.4, 1.5, 8.0])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    origin=st.tuples(st.floats(-60.0, 60.0), st.floats(-170.0, 170.0)),
    direction=st.one_of(AXES, BEARINGS),
    vehicles=VEHICLES,
    order=st.randoms(use_true_random=False),
    seconds=st.integers(1, 3),
)
def test_fallback_ordering_decides_as_the_axis_projection(origin, direction, vehicles, order, seconds):
    """Replay without a scenario decides exactly as the reference projection
    does, over straight traces of any bearing, in shuffled report order."""
    lat0, lon0 = origin
    north, east = direction
    reporting = list(enumerate(vehicles))
    order.shuffle(reporting)
    records = []
    for t in range(50, seconds * 1000, 100):
        for i, (offset_m, speed) in reporting:
            d = offset_m + speed * t / 1000.0
            pos = GeoPoint(lat0 + d * north / DEG_TO_M, lon0 + d * east / (DEG_TO_M * math.cos(math.radians(lat0))))
            records.append(TraceRecord(Bsm(t=t, vehicle_id=f"v{i}", pos=pos, speed=speed), None))
    with patch("cvsim.replay.axis_order_key", reference_axis_key):
        expected = replay_trace(records)
    result = replay_trace(records)
    assert result.decisions == expected.decisions
    assert len(result.decisions) == seconds and result.accuracy is None


# -- hypothesis property: the trace parser's boundary -------------------------

GOLDEN_LINES = GOLDEN_MIXED_TRACE.read_text(encoding="utf-8").splitlines()
TRACE_FIELDS = ("t", "vehicle_id", "lat", "lon", "speed", "heading", "truth")
# Raw JSON spellings; Python's json module reads NaN, Infinity and 1e400 as non-finite floats.
# The integers probe the replay ceiling and the golden scenario's 40 s t_end.
BAD_JSON_VALUES = (
    "NaN", "Infinity", "-Infinity", "1e400", "-1", "1.5", "true", '"x"', "null", "[]",
    "40000", "40001", str(MAX_TRACE_T_MS), str(MAX_TRACE_T_MS + 1), "1000000000000", "1" + "0" * 400,
)


@settings(max_examples=400, deadline=None)
@given(
    line=st.sampled_from(GOLDEN_LINES),
    field=st.sampled_from(TRACE_FIELDS),
    value=st.sampled_from(BAD_JSON_VALUES + (None,)),  # None drops the field
    t_end_ms=st.sampled_from([None, 40_000]),
)
def test_mutated_trace_line_parses_or_raises_trace_error(tmp_path_factory, line, field, value, t_end_ms):
    doc = json.loads(line)
    if value is None:
        doc.pop(field, None)
        text = json.dumps(doc)
    else:
        doc[field] = "\0"
        text = json.dumps(doc).replace('"\\u0000"', value)
    path = tmp_path_factory.getbasetemp() / "mutated.ndjson"
    path.write_text(text + "\n", encoding="utf-8")
    try:
        records = parse_trace(path, t_end_ms=t_end_ms)
    except TraceError:
        return
    (record,) = records
    bsm = record.bsm
    assert type(bsm.t) is int and 0 <= bsm.t <= (MAX_TRACE_T_MS if t_end_ms is None else t_end_ms)
    assert all(math.isfinite(x) for x in (bsm.pos.lat, bsm.pos.lon, bsm.speed))
    assert bsm.heading is None or math.isfinite(bsm.heading)
    assert record.truth in (True, False, None)


@pytest.mark.parametrize("t", ["1e400", "-5", "1.5", "true"])
def test_bad_trace_time_rejected_with_line(tmp_path, t):
    path = tmp_path / "bad.ndjson"
    path.write_text(GOLDEN_LINES[0] + "\n" + GOLDEN_LINES[1].replace('"t":50', f'"t":{t}') + "\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path)
    assert f"{path}:2" in str(err.value) and "t must be a non-negative integer" in str(err.value)


@pytest.mark.parametrize(
    "t,t_end_ms,message",
    [
        (MAX_TRACE_T_MS + 1, None, f"past the replay ceiling of {MAX_TRACE_T_MS} ms"),
        (10**12, None, f"past the replay ceiling of {MAX_TRACE_T_MS} ms"),
        (40_001, 40_000, "past the scenario's t_end of 40000 ms"),
        (MAX_TRACE_T_MS + 1, 10**12, f"past the replay ceiling of {MAX_TRACE_T_MS} ms"),
    ],
)
def test_trace_time_past_its_limit_rejected_with_line(tmp_path, t, t_end_ms, message):
    path = tmp_path / "late.ndjson"
    path.write_text(GOLDEN_LINES[0] + "\n" + GOLDEN_LINES[1].replace('"t":50', f'"t":{t}') + "\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path, t_end_ms=t_end_ms)
    assert f"{path}:2" in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("field", ["lat", "lon", "speed", "heading"])
def test_integer_too_large_for_a_float_rejected_with_line(tmp_path, field):
    path = tmp_path / "big.ndjson"
    doc = json.loads(GOLDEN_LINES[1])
    doc[field] = 10**400
    path.write_text(GOLDEN_LINES[0] + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(TraceError) as err:
        parse_trace(path)
    assert f"{path}:2" in str(err.value) and "int too large to convert to float" in str(err.value)


def test_trace_time_at_its_limit_parses(tmp_path):
    path = tmp_path / "edge.ndjson"
    path.write_text(GOLDEN_LINES[1].replace('"t":50', f'"t":{MAX_TRACE_T_MS}') + "\n")
    assert parse_trace(path)[0].bsm.t == MAX_TRACE_T_MS
    assert len(parse_trace(GOLDEN_MIXED_TRACE, t_end_ms=40_000)) == 1200
