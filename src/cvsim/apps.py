"""The two connected-vehicle applications: collision avoidance and queue detection.

Both are pure decision functions; the simulation layer feeds them radio
deliveries and publishes their outputs. Keeping them pure is what lets the
offline replay path reproduce a live run bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Iterable

from .core import Bsm, GeoPoint, SimConstants, distance, min_safety_distance
from .radio import LinkKind


class Verdict(enum.Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"


@dataclass(frozen=True)
class WarningMessage:
    source_vehicle: str
    t_emit: int
    pos: GeoPoint

    def to_doc(self) -> dict:
        return {
            "source_vehicle": self.source_vehicle,
            "t_emit": self.t_emit,
            "lat": self.pos.lat,
            "lon": self.pos.lon,
            "reason": "hard_brake",
        }


@dataclass(frozen=True)
class AvoidanceDecision:
    vehicle: str
    t_recv: int
    gap_m: float
    d_min_m: float
    verdict: Verdict
    link_used: LinkKind
    latency_ms: int
    within_safety_latency: bool


def decide_avoidance(
    vehicle: str,
    rx_pos: GeoPoint,
    rx_speed: float,
    warning: WarningMessage,
    t_recv: int,
    link_used: LinkKind,
    constants: SimConstants,
) -> AvoidanceDecision:
    """Judge a received warning: is the current gap at least braking distance?"""
    gap = distance(rx_pos, warning.pos)
    d_min = min_safety_distance(rx_speed, constants.decel_mps2)
    latency = t_recv - warning.t_emit
    return AvoidanceDecision(
        vehicle=vehicle,
        t_recv=t_recv,
        gap_m=gap,
        d_min_m=d_min,
        verdict=Verdict.SAFE if gap >= d_min else Verdict.UNSAFE,
        link_used=link_used,
        latency_ms=latency,
        within_safety_latency=latency <= constants.safety_latency_req_ms,
    )


class WarningDedup:
    """First packet per source vehicle decides; later copies are ignored."""

    def __init__(self) -> None:
        self._seen: set[str] = set()

    def first(self, warning: WarningMessage) -> bool:
        if warning.source_vehicle in self._seen:
            return False
        self._seen.add(warning.source_vehicle)
        return True


@dataclass(frozen=True)
class QueueDecision:
    rsu: str
    t: int
    avg_speed_mps: float | None
    avg_gap_m: float | None
    queued: bool
    n_cvs: int

    def to_doc(self) -> dict:
        return {
            "rsu": self.rsu,
            "t": self.t,
            "avg_speed_mps": self.avg_speed_mps,
            "avg_gap_m": self.avg_gap_m,
            "queued": self.queued,
            "n_cvs": self.n_cvs,
        }


def detect_queue(
    rsu: str,
    t: int,
    window_bsms: Iterable[Bsm],
    order_key: Callable[[GeoPoint], float],
    constants: SimConstants,
    window_ms: int = 1000,
) -> QueueDecision:
    """Threshold rule over the last second of messages.

    Per vehicle, speeds are averaged over its window messages and its position
    is the latest report. Vehicles are ordered along the corridor via
    ``order_key`` and consecutive-pair great-circle separations are averaged.
    Queued means: at least two reporting vehicles, average speed under the
    speed threshold, average separation under the gap threshold.
    """
    per_vehicle: dict[str, list[Bsm]] = {}
    for bsm in window_bsms:
        if t - window_ms < bsm.t <= t:
            per_vehicle.setdefault(bsm.vehicle_id, []).append(bsm)
    n_cvs = len(per_vehicle)
    if n_cvs < 2:
        avg_speed = fmean(fmean(b.speed for b in bsms) for bsms in per_vehicle.values()) if n_cvs else None
        return QueueDecision(rsu=rsu, t=t, avg_speed_mps=avg_speed, avg_gap_m=None, queued=False, n_cvs=n_cvs)
    mean_speeds = []
    latest_pos: list[GeoPoint] = []
    for bsms in per_vehicle.values():
        mean_speeds.append(fmean(b.speed for b in bsms))
        latest_pos.append(max(bsms, key=lambda b: b.t).pos)
    avg_speed = fmean(mean_speeds)
    ordered = sorted(latest_pos, key=order_key)
    gaps = [distance(a, b) for a, b in zip(ordered, ordered[1:])]
    avg_gap = fmean(gaps)
    queued = (
        avg_speed < constants.queue_speed_threshold_mps
        and avg_gap < constants.queue_gap_threshold_m
    )
    return QueueDecision(
        rsu=rsu, t=t, avg_speed_mps=avg_speed, avg_gap_m=avg_gap, queued=queued, n_cvs=n_cvs
    )


class UndefinedAccuracyError(ValueError):
    """Accuracy of an empty decision series is undefined."""


def accuracy(decided: Iterable[bool], truth: Iterable[bool]) -> float:
    """Fraction of aligned one-second evaluations where detector equals truth."""
    pairs = list(zip(list(decided), list(truth), strict=True))
    if not pairs:
        raise UndefinedAccuracyError("no evaluations to compare")
    hits = sum(1 for d, g in pairs if d == g)
    return hits / len(pairs)
