"""Offline queue detection over an exported telemetry trace.

The trace is newline-delimited JSON, one message per line with the raw
message fields (t, vehicle_id, lat, lon, speed, optional heading) plus an
optional ``truth`` flag carrying the live run's ground truth for the
evaluation second the message falls into. Because the detector is a pure
function of its one-second window, replaying an export reproduces the live
run's decisions exactly.

Ordering positions along the road needs geometry. When a scenario is supplied
the corridor projection is used (identical to the live run); otherwise
positions are ordered by projection onto the trace's own dominant axis, which
matches the live ordering for straight corridors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .apps import QueueDecision, accuracy, detect_queue
from .core import Bsm, GeoPoint, SimConstants
from .mobility import DEG_TO_M, Corridor
from .report import eval_bucket, write_queue_csv

REPLAY_RSU_ID = "replay"


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


def parse_trace(path: str | Path) -> list[TraceRecord]:
    records: list[TraceRecord] = []
    source = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
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
            except (TypeError, ValueError) as exc:
                raise TraceError(source, lineno, f"bad message fields: {exc}")
            truth = doc.get("truth")
            if truth is not None and not isinstance(truth, bool):
                raise TraceError(source, lineno, "truth must be a boolean")
            records.append(TraceRecord(bsm=bsm, truth=truth))
    return records


def axis_order_key(records: list[TraceRecord]) -> Callable[[GeoPoint], float]:
    """Projection onto the trace's dominant straight axis (fallback ordering)."""
    points = [r.bsm.pos for r in records]
    lat0 = min(p.lat for p in points)
    lat1 = max(p.lat for p in points)
    lon0 = min(p.lon for p in points)
    lon1 = max(p.lon for p in points)
    coslat = math.cos(math.radians((lat0 + lat1) / 2.0))
    if (lat1 - lat0) >= (lon1 - lon0) * coslat:
        ax, ay = lon0 * coslat * DEG_TO_M, lat0 * DEG_TO_M
        bx, by = lon0 * coslat * DEG_TO_M, lat1 * DEG_TO_M
    else:
        ax, ay = lon0 * coslat * DEG_TO_M, lat0 * DEG_TO_M
        bx, by = lon1 * coslat * DEG_TO_M, lat0 * DEG_TO_M
    vx, vy = bx - ax, by - ay
    norm = math.hypot(vx, vy) or 1.0

    def key(p: GeoPoint) -> float:
        px, py = p.lon * coslat * DEG_TO_M, p.lat * DEG_TO_M
        return ((px - ax) * vx + (py - ay) * vy) / norm

    return key


def replay_trace(
    records: list[TraceRecord],
    constants: SimConstants | None = None,
    corridor: Corridor | None = None,
    window_ms: int = 1000,
) -> ReplayResult:
    """Run the detector at one-second cadence over the whole trace."""
    constants = constants or SimConstants()
    if not records:
        return ReplayResult(decisions=[], truth=[], accuracy=None)
    order_key = corridor.project if corridor is not None else axis_order_key(records)
    by_bucket: dict[int, list[TraceRecord]] = {}
    for record in records:
        by_bucket.setdefault(eval_bucket(record.bsm.t, window_ms), []).append(record)
    last_bucket = max(by_bucket)
    decisions: list[QueueDecision] = []
    truths: list[bool | None] = []
    for t in range(window_ms, last_bucket + window_ms, window_ms):
        bucket = by_bucket.get(t, [])
        decisions.append(
            detect_queue(
                rsu=REPLAY_RSU_ID,
                t=t,
                window_bsms=[r.bsm for r in bucket],
                order_key=order_key,
                constants=constants,
                window_ms=window_ms,
            )
        )
        flags = [r.truth for r in bucket if r.truth is not None]
        truths.append(flags[-1] if flags else None)
    # Score whichever seconds carry truth annotations (all of them, normally).
    known = [(d.queued, g) for d, g in zip(decisions, truths) if g is not None]
    acc = accuracy([q for q, _ in known], [g for _, g in known]) if known else None
    return ReplayResult(decisions=decisions, truth=truths, accuracy=acc)


def write_replay_csv(result: ReplayResult, path: Path) -> None:
    write_queue_csv(zip(result.decisions, result.truth), path)
