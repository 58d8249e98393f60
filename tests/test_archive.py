import json
import random

import pytest

from cvsim.archive import Archive, InvalidRangeError


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
