"""Offline queue detection over an exported telemetry trace.

The trace is newline-delimited JSON, one message per line with the raw
message fields (t, vehicle_id, lat, lon, speed, optional heading) plus an
optional ``truth`` flag carrying the live run's ground truth for the
evaluation second the message falls into. Because the detector is a pure
function of its one-second window, replaying an export reproduces the live
run's decisions exactly, under two conditions: every message reaches its RSU
before the decision that closes its second (the last message of a second
leaves at x.950 s, so a 50 ms hop lands it in the decision's millisecond,
after the decision), and every reporting vehicle is on the short-range link
(the trace is the backend's stream, so it also carries cellular BSMs that no
RSU received).

Ordering positions along the road needs geometry. When a scenario is supplied
its corridor orders them, as in the live run; otherwise a straight corridor
through the trace's bounding box does, ordered by the same ``Corridor.project``
a live run uses, which matches the live ordering for straight corridors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .apps import WINDOW_MS, QueueDecision, accuracy, detect_queue, eval_bucket, window_by_vehicle
from .core import Bsm, GeoPoint, SimConstants, distance
from .mobility import Corridor
from .report import write_queue_csv

REPLAY_RSU_ID = "replay"
# The largest message time a trace may carry: one day. Replay makes one
# decision per second up to the largest ``t``, so this caps a trace at
# 86,400 decisions however few lines it has.
MAX_TRACE_T_MS = 24 * 3600 * 1000


class TraceError(ValueError):
    """Malformed trace line, anchored to its line number."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class TraceRecord:
    bsm: Bsm
    truth: bool | None


@dataclass
class ReplayResult:
    decisions: list[QueueDecision]
    truth: list[bool | None]
    accuracy: float | None


def parse_trace(path: str | Path, t_end_ms: int | None = None) -> list[TraceRecord]:
    """The trace's records; a ``t`` past ``MAX_TRACE_T_MS``, or past ``t_end_ms`` when given, is an error."""
    t_max = MAX_TRACE_T_MS if t_end_ms is None else min(t_end_ms, MAX_TRACE_T_MS)
    records: list[TraceRecord] = []
    source = str(path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise TraceError(source, lineno, f"not UTF-8: {exc.reason} at byte {exc.start} of the line")
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(source, lineno, f"invalid JSON: {exc.msg}")
            if not isinstance(doc, dict):
                raise TraceError(source, lineno, "expected a JSON object")
            missing = {"t", "vehicle_id", "lat", "lon", "speed"} - doc.keys()
            if missing:
                raise TraceError(source, lineno, f"missing fields: {sorted(missing)}")
            try:
                bsm = Bsm.from_doc(doc)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceError(source, lineno, f"bad message fields: {exc}")
            if bsm.t > t_max:
                limit = "the replay ceiling" if t_max == MAX_TRACE_T_MS else "the scenario's t_end"
                raise TraceError(source, lineno, f"t={bsm.t} ms is past {limit} of {t_max} ms")
            truth = doc.get("truth")
            if truth is not None and not isinstance(truth, bool):
                raise TraceError(source, lineno, "truth must be a boolean")
            records.append(TraceRecord(bsm=bsm, truth=truth))
    return records


def axis_order_key(records: list[TraceRecord]) -> Callable[[GeoPoint], float]:
    """``Corridor.project`` along the longer side of the trace's bounding box, from its south-west corner.

    North wins a tie; a box whose longer side measures 0 m (one point) keys every position alike.
    """
    lats = [r.bsm.pos.lat for r in records]
    lons = [r.bsm.pos.lon for r in records]
    lat0, lat1, lon0, lon1 = min(lats), max(lats), min(lons), max(lons)
    coslat = math.cos(math.radians((lat0 + lat1) / 2.0))
    start = GeoPoint(lat0, lon0)
    end = GeoPoint(lat1, lon0) if lat1 - lat0 >= (lon1 - lon0) * coslat else GeoPoint(lat0, lon1)
    if distance(start, end) == 0.0:
        return lambda p: 0.0
    return Corridor([start, end]).project


def replay_trace(
    records: list[TraceRecord],
    constants: SimConstants | None = None,
    corridor: Corridor | None = None,
) -> ReplayResult:
    """Run the detector at one-second cadence over the whole trace."""
    constants = constants or SimConstants()
    if not records:
        return ReplayResult(decisions=[], truth=[], accuracy=None)
    order_key = corridor.project if corridor is not None else axis_order_key(records)
    by_bucket: dict[int, list[TraceRecord]] = {}
    for record in records:
        by_bucket.setdefault(eval_bucket(record.bsm.t), []).append(record)
    last_bucket = max(by_bucket)
    decisions: list[QueueDecision] = []
    truths: list[bool | None] = []
    for t in range(WINDOW_MS, last_bucket + WINDOW_MS, WINDOW_MS):
        bucket = by_bucket.get(t, [])
        decisions.append(
            detect_queue(
                rsu=REPLAY_RSU_ID,
                t=t,
                vehicles=window_by_vehicle([r.bsm for r in bucket], t),
                order_key=order_key,
                constants=constants,
            )
        )
        flags = [r.truth for r in bucket if r.truth is not None]
        truths.append(flags[-1] if flags else None)
    # Score whichever seconds carry truth annotations (all of them, normally).
    known = [(d.queued, g) for d, g in zip(decisions, truths) if g is not None]
    acc = accuracy([q for q, _ in known], [g for _, g in known])
    return ReplayResult(decisions=decisions, truth=truths, accuracy=acc)


def write_replay_csv(result: ReplayResult, path: Path) -> None:
    write_queue_csv(zip(result.decisions, result.truth), path)
