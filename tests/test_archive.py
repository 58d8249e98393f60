import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cvsim.apps import eval_bucket
from cvsim.archive import Archive, InvalidRangeError, Record, canonical_json, canonical_line
from cvsim.broker import matches
from cvsim.config import SYSTEM_NODE_ID, bundled_scenario_names
from cvsim.report import _BsmTrace, _bsm_halves


def test_append_returns_increasing_seq():
    arch = Archive(node_id="n1")
    assert arch.append("bsm/raw/v1", 10, {"a": 1}, "v1") == 0
    assert arch.append("bsm/raw/v1", 20, {"a": 2}, "v1") == 1
    assert arch.append("queue/status/r1", 20, {}, "r1") == 2


def test_append_then_query_covering_time():
    arch = Archive(node_id="n1")
    arch.append("bsm/raw/v1", 15, {"x": 1}, "v1")
    hits = arch.query(15, 15)
    assert len(hits) == 1 and hits[0].payload == {"x": 1}


def test_empty_range_no_records():
    arch = Archive(node_id="n1")
    arch.append("bsm/raw/v1", 10, {}, "v1")
    assert arch.query(5, 5) == []


def test_invalid_range_rejected():
    arch = Archive(node_id="n1")
    with pytest.raises(InvalidRangeError):
        arch.query(10, 5)


def test_topic_filter_count_matches_append_log():
    arch = Archive(node_id="n1")
    appended_bsm = 0
    rng = random.Random(5)
    for i in range(200):
        if rng.random() < 0.6:
            arch.append(f"bsm/raw/v{rng.randint(1, 3)}", i, {}, "x")
            appended_bsm += 1
        else:
            arch.append(f"queue/status/r{rng.randint(1, 2)}", i, {}, "x")
    hits = arch.query(0, 10_000, "bsm/#")
    assert len(hits) == appended_bsm == arch.count("bsm/#")


def test_query_sorted_by_time_then_seq_for_shuffled_inserts():
    arch = Archive(node_id="n1")
    rng = random.Random(7)
    times = [rng.randint(0, 50) for _ in range(100)]
    for t in times:
        arch.append("a/b", t, {}, "x")
    hits = arch.query(0, 100)
    keys = [(r.t, r.seq) for r in hits]
    assert keys == sorted(keys)
    # subset of appends, nothing fabricated
    assert len(hits) == len(times)


def test_retention_prunes_old_records():
    arch = Archive(node_id="rsu", max_age_ms=60_000)
    for t in (0, 30_000, 59_999, 60_000, 90_000):
        arch.append("a", t, {}, "x")
    dropped = arch.prune(now=120_000)
    assert dropped == 3  # everything older than now - max_age
    assert [r.t for r in arch.query(0, 10**6)] == [60_000, 90_000]


def test_unbounded_policy_never_prunes():
    arch = Archive(node_id="system")
    for t in range(10):
        arch.append("a", t, {}, "x")
    assert arch.prune(now=10**9) == 0
    assert len(arch) == 10


def test_retention_policy_validation():
    with pytest.raises(ValueError):
        Archive(node_id="n1", max_age_ms=0)
    assert Archive(node_id="n1").max_age_ms is None


def test_export_is_sorted_key_ndjson(tmp_path):
    arch = Archive(node_id="n1")
    arch.append("b/a", 5, {"z": 1, "a": {"k": [1, 2]}}, "o1")
    arch.append("b/c", 6, {"m": "text"}, "o2")
    path = tmp_path / "dump.ndjson"
    assert arch.export_ndjson(str(path)) == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["topic"] == "b/a" and first["origin"] == "o1"
    # normalized key order makes exports byte-stable
    assert lines[0].index('"a"') < lines[0].index('"z"')


def test_records_are_immutable():
    arch = Archive(node_id="n1")
    arch.append("a", 1, {}, "x")
    record = arch.query(1, 1)[0]
    with pytest.raises(Exception):
        record.t = 99


def test_out_of_order_append_is_stored_in_time_order(tmp_path):
    arch = Archive(node_id="n1", max_age_ms=10)
    for t in (5, 9, 3, 9, 7):
        arch.append("a", t, {"t": t}, "x")
    assert [(r.t, r.seq) for r in arch] == [(3, 2), (5, 0), (7, 4), (9, 1), (9, 3)]
    path = tmp_path / "dump.ndjson"
    arch.export_ndjson(str(path))
    assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == [2, 0, 4, 1, 3]
    assert arch.prune(now=16) == 2  # t 3 and 5 fall before the horizon, 6
    assert [r.seq for r in arch] == [4, 1, 3]


def test_export_line_is_the_canonical_line_of_the_record(tmp_path):
    arch = Archive(node_id="n1")
    arch.append("bsm/raw/v\u00e9\"1", 7, {"z": [1, {"b": None}], "a": "\\,\"", "é": -0.0}, 'o"\u2603')
    path = tmp_path / "dump.ndjson"
    arch.export_ndjson(str(path))
    r = next(iter(arch))
    doc = {"seq": r.seq, "topic": r.topic, "t": r.t, "origin": r.origin, "payload": r.payload}
    assert path.read_text(encoding="utf-8") == canonical_line(doc)


# -- hypothesis property: per-topic counts ------------------------------------

LEVELS = ["a", "b", "c1"]
topics = st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3).map("/".join)
patterns = st.builds(
    lambda parts, tail: "/".join(parts + ([tail] if tail else [])),
    st.lists(st.sampled_from([*LEVELS, "+"]), min_size=1, max_size=3),
    st.sampled_from(["", "#"]),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), topics, st.integers(0, 200)),
        st.tuples(st.just("prune"), st.integers(0, 300)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(steps=steps, wild=st.lists(patterns, max_size=6), max_age_ms=st.integers(1, 100))
def test_topic_counts_equal_a_brute_force_count(steps, wild, max_age_ms):
    arch = Archive(node_id="n1", max_age_ms=max_age_ms)
    model: list[tuple[int, int, str]] = []  # (t, seq, topic) of every retained record
    appended = 0
    for step in steps:
        if step[0] == "append":
            _, topic, t = step
            assert arch.append(topic, t, {}, "x") == appended
            model.append((t, appended, topic))
            appended += 1
        else:
            horizon = step[1] - max_age_ms
            kept = [r for r in model if r[0] >= horizon]
            assert arch.prune(step[1]) == len(model) - len(kept)
            model = kept
        assert len(arch) == len(model)
        assert arch.appended_total == appended
        exact = sorted({topic for _, _, topic in model}) + ["a/b/c1"]
        for pattern in [*exact, "#", "+", "+/#", "a/+", *wild]:
            hits = sorted(r for r in model if matches(pattern, r[2]))
            assert arch.count(pattern) == len(hits), pattern
            assert [(r.t, r.seq, r.topic) for r in arch.query(0, 200, pattern)] == hits, pattern


# -- hypothesis properties: the trace's lines against the generic encoder -------

KEYS = ["a", "heading", "t", "tru", "truth", "truth0", "truthy", "u", "vehicle_id", "}", "é", "~"]
keys = st.one_of(st.sampled_from(KEYS), st.text(max_size=6))
tricky = st.sampled_from(['"', "\\", ",", ',"vehicle_id":', '","truth":', "x,", "\\\"", "é☃", "\ud800", "}"])
tricky_text = st.one_of(tricky, st.lists(tricky, max_size=3).map("".join), st.text())
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 1e-320, 5e-324, 1e308]),
    tricky_text,
)
values = st.one_of(scalars, st.lists(scalars, max_size=2), st.dictionaries(st.sampled_from(KEYS), scalars, max_size=4))
flat_payloads = st.dictionaries(keys, scalars, max_size=6)
payloads = st.dictionaries(keys, values, max_size=6)

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=10**40).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 5e-324, 1e-320, 1e308, -1e308]),
)
bsm_docs = st.fixed_dictionaries(
    {"t": st.integers(), "vehicle_id": tricky_text, "lat": numbers, "lon": numbers, "speed": numbers}
)
truths = st.sampled_from([None, False, True])


class Float(float):
    pass


class Text(str):
    pass


def trace_lines(doc, truth):
    """``_BsmTrace.line`` of a ``bsm/raw`` record holding ``doc``, with ``truth`` for its bucket."""
    t = int(doc["t"])
    truth_at = {} if truth is None else {eval_bucket(t): truth}
    trace = _BsmTrace(topics={"bsm/raw/v"}, truth_at=truth_at)
    return trace.line(Record(seq=0, topic="bsm/raw/v", t=t, payload=doc, origin="v"))


def generic_lines(doc, truth):
    return canonical_json(doc), canonical_line(doc if truth is None else {**doc, "truth": truth})


@settings(max_examples=500, deadline=None)
@given(doc=bsm_docs, truth=truths)
@example(doc={"t": 0, "vehicle_id": ',"vehicle_id":', "lat": -0.0, "lon": 5e-324, "speed": 1e308}, truth=True)
@example(doc={"t": -1, "vehicle_id": '\\"\ud800é', "lat": 10**40, "lon": -(2**63), "speed": 0}, truth=False)
def test_bsm_lines_are_formatted_from_their_five_fields(doc, truth):
    assert _bsm_halves(doc) is not None
    assert trace_lines(doc, truth) == generic_lines(doc, truth)


DROP = object()


def fallback(doc, change):
    """``doc`` with one key set to a value (or dropped) that takes it off the BSM formatter."""
    key, value = change
    doc = dict(doc)
    if value is DROP:
        del doc[key]
    else:
        doc[key] = value
    return doc


changes = st.one_of(
    st.tuples(st.sampled_from(["t", "lat", "lon", "speed"]), st.booleans()),
    st.tuples(st.sampled_from(["lat", "lon", "speed"]), st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("heading"), numbers),
    st.tuples(keys.filter(lambda k: k not in {"t", "vehicle_id", "lat", "lon", "speed"}), scalars),
    st.tuples(st.sampled_from(["vehicle_id", "lat", "lon", "speed"]), st.just(DROP)),
    st.tuples(st.sampled_from(["lat", "lon", "speed"]), st.floats(allow_nan=False).map(Float)),
    st.tuples(st.just("vehicle_id"), tricky_text.map(Text)),
)


@settings(max_examples=500, deadline=None)
@given(doc=bsm_docs, change=changes, truth=truths)
def test_other_documents_take_the_generic_encode(doc, change, truth):
    doc = fallback(doc, change)
    assert _bsm_halves(doc) is None
    assert trace_lines(doc, truth) == generic_lines(doc, truth)


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(flat_payloads, payloads), t=st.integers(0, 5000), truth=truths)
def test_trace_line_adds_the_truth_of_its_bucket(payload, t, truth):
    payload = {**payload, "t": t}
    assert trace_lines(payload, truth) == generic_lines(payload, truth)


# -- the shared encoder against json.dumps ----------------------------------------

def reference_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


EDGE_DOCS = [
    {"text": "caf\u00e9 \u2014 \U0001f697", "ctl": "\x00\x1f\t\n\r\"\\/", "\u00e9\x01": 1},
    {"zero": -0.0, "small": 1e-7, "big": 10**20, "neg": -(10**20), "nan": float("nan"), "inf": float("inf")},
    {"b": {"d": [1, {"f": [], "e": {}}], "c": None}, "a": [[], [True, False, None], 0.1]},
    True,
    False,
    None,
    -0.0,
    "x\u00ff",
    [],
    {},
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_canonical_json_equals_json_dumps_on_edge_documents(doc):
    assert canonical_json(doc) == reference_json(doc)


def test_the_encoder_still_encodes_after_an_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": object()})
    assert canonical_json({"a": [1]}) == '{"a":[1]}'


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_canonical_json_equals_json_dumps_on_every_backend_payload(name, scenario_runs):
    payloads = [r.payload for r in scenario_runs(name).archives[SYSTEM_NODE_ID]]
    assert payloads
    assert [canonical_json(payload) for payload in payloads] == [reference_json(payload) for payload in payloads]
