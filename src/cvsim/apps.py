"""The two connected-vehicle applications: collision avoidance and queue detection.

Both are pure decision functions; the simulation layer feeds them radio
deliveries and publishes their outputs. Keeping them pure is what lets the
offline replay path reproduce a live run bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from statistics import fmean
from typing import Callable, Iterable

from .core import Bsm, GeoPoint, SimConstants, distance, min_safety_distance
from .radio import LinkKind

# The queue detector's one window: it decides at every multiple of WINDOW_MS,
# each time over the messages of the half-open window (t - WINDOW_MS, t].
WINDOW_MS = 1000


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

    @classmethod
    def from_doc(cls, doc: dict) -> "WarningMessage":
        return cls(source_vehicle=doc["source_vehicle"], t_emit=doc["t_emit"], pos=GeoPoint(doc["lat"], doc["lon"]))


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


def eval_bucket(t_emit: int) -> int:
    """The detector evaluation instant whose window contains ``t_emit``."""
    return -(-t_emit // WINDOW_MS) * WINDOW_MS


@dataclass(frozen=True)
class VehicleSummary:
    """One vehicle's messages in a detector window."""

    vehicle_id: str
    mean_speed: float
    pos: GeoPoint  # of its latest message; the first of equal-``t`` ones
    reports: int

    def to_doc(self) -> dict:
        """The vehicle's entry in an RSU's processed data, which is keyed by vehicle id."""
        return {"mean_speed": self.mean_speed, "lat": self.pos.lat, "lon": self.pos.lon, "reports": self.reports}


_message_time = attrgetter("t")


def window_by_vehicle(bsms: Iterable[Bsm], t: int) -> list[VehicleSummary]:
    """Summaries of the messages with ``t - WINDOW_MS < bsm.t <= t``, per vehicle in first-seen order."""
    per_vehicle: dict[str, list[Bsm]] = {}
    for bsm in bsms:
        if t - WINDOW_MS < bsm.t <= t:
            per_vehicle.setdefault(bsm.vehicle_id, []).append(bsm)
    return [
        VehicleSummary(vid, fmean([b.speed for b in group]), max(group, key=_message_time).pos, len(group))
        for vid, group in per_vehicle.items()
    ]


def detect_queue(
    rsu: str,
    t: int,
    vehicles: list[VehicleSummary],
    order_key: Callable[[GeoPoint], float],
    constants: SimConstants,
) -> QueueDecision:
    """Threshold rule over the per-vehicle summaries of the last second of messages.

    The average speed is the mean of the vehicles' mean speeds. Vehicles are
    ordered along the corridor by their latest positions via ``order_key``,
    and consecutive-pair great-circle separations are averaged. Queued means:
    at least two reporting vehicles, average speed under the speed threshold,
    average separation under the gap threshold.
    """
    n_cvs = len(vehicles)
    avg_speed = fmean(v.mean_speed for v in vehicles) if n_cvs else None
    if n_cvs < 2:
        return QueueDecision(rsu=rsu, t=t, avg_speed_mps=avg_speed, avg_gap_m=None, queued=False, n_cvs=n_cvs)
    ordered = sorted((v.pos for v in vehicles), key=order_key)
    avg_gap = fmean(distance(a, b) for a, b in zip(ordered, ordered[1:]))
    queued = (
        avg_speed < constants.queue_speed_threshold_mps
        and avg_gap < constants.queue_gap_threshold_m
    )
    return QueueDecision(
        rsu=rsu, t=t, avg_speed_mps=avg_speed, avg_gap_m=avg_gap, queued=queued, n_cvs=n_cvs
    )


def accuracy(decided: Iterable[bool], truth: Iterable[bool]) -> float | None:
    """Fraction of aligned one-second evaluations where detector equals truth; ``None`` for none."""
    pairs = list(zip(list(decided), list(truth), strict=True))
    if not pairs:
        return None
    hits = sum(1 for d, g in pairs if d == g)
    return hits / len(pairs)
