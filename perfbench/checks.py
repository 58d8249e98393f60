"""Output checks: recorded digests, paper figures and seed-independent invariants.

Each check returns a list of error strings; an empty list means the output
passed. ``report.txt``/``report.csv`` are left out of the digests because
they are allowed to gain rows; the paper figures are read from ``report.csv``
instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from cvsim.radio import LinkKind

# The artifacts whose bytes are the simulated behaviour.
BEHAVIOURAL = (
    "decisions.csv", "queue_decisions.csv", "handoffs.csv",
    "coverage.csv", "archive.ndjson", "trace.ndjson",
)
SYSTEM = "system"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {name: sha256_file(out_dir / name) for name in BEHAVIOURAL if (out_dir / name).is_file()}


def compare_digests(name: str, out_dir: Path, expected: dict[str, str]) -> list[str]:
    if not expected:
        return [f"{name}: no recorded digests"]
    actual = artifact_digests(out_dir)
    if sorted(actual) != sorted(expected):
        return [f"{name}: artifacts {sorted(actual)} differ from the recorded {sorted(expected)}"]
    return [f"{name}: {artifact} digest changed" for artifact in expected
            if actual[artifact] != expected[artifact]]


# -- paper figures ----------------------------------------------------------------


def read_report(out_dir: Path) -> dict[tuple[str, str], str]:
    with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
        return {(row["section"], row["metric"]): row["value"] for row in csv.DictReader(fh)}


# Braking distance (ft) and warning latencies (ms: short-range, cellular) per speed tier.
COLLISION_FIGURES = {
    "collision_avoidance_20mph": (38, 88, 2590),
    "collision_avoidance_35mph": (118, 102, 2810),
    "collision_avoidance_50mph": (240, 125, 3000),
}


def paper_figures(dirs: dict[str, Path]) -> list[str]:
    """The paper's figures as the bundled scenarios report them."""
    errors = []

    def expect(scenario: str, rows: dict, key: tuple[str, str], want: str) -> None:
        got = rows.get(key)
        if got != want:
            errors.append(f"{scenario}: {key[0]}.{key[1]} = {got!r}, paper figure is {want!r}")

    for scenario, (dmin_ft, dsrc_ms, lte_ms) in COLLISION_FIGURES.items():
        rows = read_report(dirs[scenario])
        for sec, latency in (("avoidance.cv2.dsrc", dsrc_ms), ("avoidance.cv3.lte", lte_ms)):
            expect(scenario, rows, (sec, "dmin_ft"), str(dmin_ft))
            expect(scenario, rows, (sec, "latency_ms"), str(latency))
            expect(scenario, rows, (sec, "verdict"), "safe")
        expect(scenario, rows, ("avoidance.cv2.dsrc", "within_200ms_req"), "true")
        expect(scenario, rows, ("avoidance.cv3.lte", "within_200ms_req"), "false")
    scenario = "queue_full_penetration"
    rows = read_report(dirs[scenario])
    expect(scenario, rows, ("exchange.mobile_fixed", "avg_delay_ms"), "4.0")
    expect(scenario, rows, ("exchange.system_fixed", "avg_delay_ms"), "6.0")
    expect(scenario, rows, ("queue.rsu1", "evaluations"), "167")
    expect(scenario, rows, ("queue.rsu1", "accuracy"), "1.0")
    scenario = "rsu_coverage_pass"
    expect(scenario, read_report(dirs[scenario]), ("handoff", "events"), "2")
    return errors


# -- invariants -------------------------------------------------------------------


def live_invariants(name: str, out_dir: Path, result) -> list[str]:
    """Checks that hold for any seed: conservation, handoff discipline, archive order."""
    errors = []
    end = result.summary.end_time_ms
    # Every message the backend archived arrived in exactly one delivered packet.
    arrived = {"bsm": 0, "queue_status": 0}
    for p in result.packets:
        if p.delivered and p.rx == SYSTEM and p.t_recv <= end:
            if p.kind in ("bsm", "bsm_forward"):
                arrived["bsm"] += 1
            elif p.kind == "queue_status":
                arrived["queue_status"] += 1
    archive = result.archives[SYSTEM]
    for kind, pattern in (("bsm", "bsm/raw/#"), ("queue_status", "queue/status/#")):
        archived = archive.count(pattern)
        if archived != arrived[kind]:
            errors.append(f"{name}: backend archived {archived} {pattern} but {arrived[kind]} arrived")
    if archive.appended_total != len(archive):
        errors.append(f"{name}: the backend archive lost records")
    # Per vehicle, handoffs leave cellular, come back, and never repeat a link.
    last: dict[str, LinkKind] = {}
    for e in result.handoff_events:
        expected_from = last.get(e.vehicle, LinkKind.LTE)
        if e.from_link is not expected_from or e.to_link is e.from_link:
            errors.append(f"{name}: handoff of {e.vehicle} at {e.t} ms does not alternate links")
            break
        last[e.vehicle] = e.to_link
    # The exported backend archive is in (t, seq) order.
    prev = (-1, -1)
    with open(out_dir / "archive.ndjson", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            doc = json.loads(line)
            key = (doc["t"], doc["seq"])
            if key[0] < prev[0] or key[1] <= prev[1] or key[0] > end:
                errors.append(f"{name}: archive.ndjson line {lineno} is out of time order")
                break
            prev = key
    return errors


def trace_seconds(trace: Path) -> int:
    """How many one-second evaluations a trace spans."""
    with open(trace, encoding="utf-8") as fh:
        last_t = max(json.loads(line)["t"] for line in fh)
    return -(-last_t // 1000)


def replay_invariants(seconds: int, csv_path: Path, result) -> list[str]:
    """The replay covers every second of the trace, once, in order."""
    errors = []
    ts = [d.t for d in result.decisions]
    if ts != [1000 * (k + 1) for k in range(seconds)]:
        errors.append(f"replay: decisions at {ts[:3]}... do not cover seconds 1..{seconds}")
    if result.accuracy is None:
        errors.append("replay: the trace carried no ground truth")
    with open(csv_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(result.decisions):
        errors.append(f"replay: {rows} CSV rows for {len(result.decisions)} decisions")
    return errors


def determinism(dirs: list[Path], expected: dict[str, str]) -> list[str]:
    """Artifacts written by separate processes are byte-identical and match the record."""
    errors = []
    names = sorted(p.name for p in dirs[0].iterdir())
    for other in dirs[1:]:
        if sorted(p.name for p in other.iterdir()) != names:
            errors.append(f"determinism: {other} holds other files than {dirs[0]}")
            continue
        for name in names:
            if sha256_file(dirs[0] / name) != sha256_file(other / name):
                errors.append(f"determinism: {name} differs between {dirs[0].name} and {other.name}")
    return errors + compare_digests("determinism", dirs[0], expected)
