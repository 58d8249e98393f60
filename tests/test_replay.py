import importlib.resources
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cvsim.apps import eval_bucket
from cvsim.archive import canonical_json, canonical_line
from cvsim.cli import main
from cvsim.config import bundled_scenario_names, load_scenario
from cvsim.replay import MAX_TRACE_T_MS, TraceError, TraceRecord, axis_order_key, parse_trace, replay_trace
from cvsim.report import write_artifacts
from cvsim.core import EARTH_RADIUS_M, Bsm, GeoPoint
from cvsim.radio import LinkKind
from cvsim.sim import run_scenario
from conftest import assert_rejected

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


LINE = '{"t": 950, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}'
# Each one-line trace with the exact diagnostic it draws; ``None`` marks a line that parses.
TRACE_DIAGNOSTICS = {
    "bom": ("\ufeff" + LINE, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "extra_object": (LINE + " {}", "invalid JSON: Extra data"),
    "extra_characters": (LINE + "x", "invalid JSON: Extra data"),
    "array": ("[]", "expected a JSON object"),
    "string": ('"s"', "expected a JSON object"),
    "nan_latitude": (LINE.replace("40.0", "NaN"), "bad message fields: latitude out of range: nan"),
    "overflowing_latitude": (LINE.replace("40.0", "1e400"), "bad message fields: latitude out of range: inf"),
    "null_heading": (LINE[:-1] + ', "heading": null}', "bad message fields: heading must be a number, got None"),
    "lon_and_speed_wrong_typed": (
        '{"t": 950, "vehicle_id": "v", "speed": "0", "lat": 40.0, "lon": "-75.0"}',
        "bad message fields: lon must be a number, got '-75.0'",
    ),
    "duplicate_t": (LINE[:-1] + ', "t": -1}', "bad message fields: t must be a non-negative integer, got -1"),
    "truncated_object": (LINE[:41], "invalid JSON: Expecting ',' delimiter"),
    # A missing field is reported ahead of every wrongly typed one.
    "missing_and_wrong_typed": (
        '{"t": -1, "vehicle_id": 7, "lat": "40.0"}', "missing fields: ['lon', 'speed']"
    ),
    # The value checks keep their order: speed and heading, then the position, then the sign of speed.
    "nan_latitude_negative_speed": (
        LINE.replace("40.0", "NaN").replace("0.0}", "-1}"),
        "bad message fields: latitude out of range: nan",
    ),
    "nan_speed_overflowing_latitude": (
        LINE.replace("40.0", "1" + "0" * 400).replace("0.0}", "NaN}"),
        "bad message fields: speed and heading must be finite, got nan, None",
    ),
    "surrounding_whitespace": ("  \t" + LINE + "\t  ", None),
    # Deeper than the decoder's recursion limit: exit 2 at the line, not a traceback.
    "deep_array": ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
    "deep_object": ('{"a": ' * 3000 + "1" + "}" * 3000, "invalid JSON: nested too deeply"),
}


@pytest.mark.parametrize("line, message", TRACE_DIAGNOSTICS.values(), ids=TRACE_DIAGNOSTICS.keys())
def test_one_line_trace_diagnostic(tmp_path, capsys, line, message):
    path = tmp_path / "t.ndjson"
    path.write_text(line + "\n", encoding="utf-8")
    argv = ["--trace", str(path), "--out-dir", str(tmp_path / "out")]
    rc, err = main(argv), capsys.readouterr().err
    if message is None:
        (record,) = parse_trace(path)
        assert record == (Bsm(950, "v", GeoPoint(40.0, -75.0), 0.0), None)
        assert rc == 0 and err == ""
        return
    with pytest.raises(TraceError) as exc:
        parse_trace(path)
    assert str(exc.value) == f"{path}:1: {message}"
    assert assert_rejected(argv, rc, err, path, 1) == message


def assert_replay_reproduces_live(result, config, out_dir):
    trace_path = write_artifacts(result, out_dir)["trace.ndjson"]
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
        assert_replay_reproduces_live(scenario_runs(name), load_scenario(name), tmp_path / name)


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
    assert_replay_reproduces_live(run_scenario(config), config, tmp_path)


def test_replay_decides_nothing_when_no_vehicle_is_connected(tmp_path):
    """The README's third condition: replay decides only through the trace's
    last second, so a run with no connected vehicle, whose trace is empty,
    replays to no decision while live decides every second."""
    text = (importlib.resources.files("cvsim") / "scenarios" / "queue_full_penetration.yaml").read_text("utf-8")
    scenario = tmp_path / "unconnected.yaml"
    scenario.write_text(text.replace("speed_mph: 20.0\n", "speed_mph: 20.0\n    connected: false\n"), "utf-8")
    live, replayed = tmp_path / "live", tmp_path / "replay"
    with redirect_stdout(io.StringIO()):
        assert main(["--scenario", str(scenario), "--out-dir", str(live)]) == 0
        trace = str(live / "trace.ndjson")
        assert main(["--trace", trace, "--scenario", str(scenario), "--out-dir", str(replayed)]) == 0
    assert (live / "trace.ndjson").read_bytes() == b""
    assert len((live / "queue_decisions.csv").read_text(encoding="utf-8").splitlines()) == 1 + 167
    assert len((replayed / "queue_decisions.csv").read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_parsed_trace_re_encodes_to_every_byte_of_its_line(scenario_runs, tmp_path, name):
    """The parser drops no field and no float digit: each record, encoded as the exporter encodes it, is its line."""
    write_artifacts(scenario_runs(name), tmp_path)
    path = tmp_path / "trace.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = parse_trace(path)
    assert len(records) == len(lines)
    for record, line in zip(records, lines):
        doc = record.bsm.to_doc()
        if record.truth is None:
            assert canonical_json(doc) + "\n" == line
        else:
            assert canonical_line({**doc, "truth": record.truth}) == line


def test_axis_fallback_matches_corridor_projection_on_straight_road(scenario_runs, tmp_path):
    result = scenario_runs("queue_full_penetration")
    records = parse_trace(write_artifacts(result, tmp_path)["trace.ndjson"])
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


# Byte-level damage to one golden line: the ways a trace file breaks in transit.
MUTATIONS = ("truncate", "invalid_utf8", "bom", "duplicate_key", "nest")
INVALID_UTF8 = (b"\x80", b"\xc0", b"\xed", b"\xfe", b"\xff")
NESTINGS = ((b"[", b"]"), (b'{"x":', b"}"))


def mutate_line(data, line, mutation):
    if mutation == "truncate":
        return line[: data.draw(st.integers(0, len(line)))]
    if mutation == "invalid_utf8":
        at = data.draw(st.integers(0, len(line)))
        return line[:at] + data.draw(st.sampled_from(INVALID_UTF8)) + line[at:]
    if mutation == "bom":
        return "\ufeff".encode() + line
    if mutation == "duplicate_key":
        field = data.draw(st.sampled_from(TRACE_FIELDS))
        value = data.draw(st.sampled_from(BAD_JSON_VALUES + (json.dumps(json.loads(line).get(field)),)))
        return line[:-1] + f',"{field}":{value}}}'.encode()
    depth = data.draw(st.sampled_from([1, 10, 1000, 100_000]))
    open_, close = data.draw(st.sampled_from(NESTINGS))
    return open_ * depth + line + close * depth


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line=st.sampled_from(GOLDEN_LINES), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_damaged_trace_line_exits_0_or_2_at_its_line(tmp_path_factory, line, mutation, data):
    """k intact golden lines, the damaged line, and maybe a second damaged line after it.

    On exit 2 the diagnostic names the damaged line, k + 1, or the second one
    where the first still parses on its own.
    """
    base = tmp_path_factory.getbasetemp()
    path, out = base / "damaged.ndjson", base / "damaged-out"
    shutil.rmtree(out, ignore_errors=True)
    k = data.draw(st.integers(0, 10))
    intact = b"".join(golden.encode() + b"\n" for golden in GOLDEN_LINES[:k])
    damaged = mutate_line(data, line.encode(), mutation) + b"\n"
    # The first line that fails on its own: k + 1, or else the second damaged line.
    path.write_bytes(intact + damaged)
    try:
        parse_trace(path)
        bad_line = k + 2
    except TraceError:
        bad_line = k + 1
    if data.draw(st.booleans()):
        second = data.draw(st.sampled_from(GOLDEN_LINES)).encode()
        damaged += mutate_line(data, second, data.draw(st.sampled_from(MUTATIONS))) + b"\n"
        path.write_bytes(intact + damaged)
    argv, stderr = ["--trace", str(path), "--out-dir", str(out)], io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        rc = main(argv)
    err = stderr.getvalue()
    if rc == 0:
        assert err == "" and (out / "queue_decisions.csv").is_file()
        return
    assert_rejected(argv, rc, err, path, bad_line)


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
