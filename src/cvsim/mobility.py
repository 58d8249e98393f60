"""Vehicle kinematics on a one-way corridor, plus omniscient ground truth.

The corridor is a geographic polyline addressed by arc length. Vehicles are
point objects (a bumper gap equals a position gap) moving with
constant-acceleration ticks. Car following is deliberately minimal: a vehicle
brakes at the configured deceleration once the gap to the nearest obstacle
ahead (lead vehicle or red signal) drops below its braking distance plus a
standstill margin. That single rule produces the stop-and-queue dynamics the
scenarios need; it is not a traffic-flow model.

A useful property of the v^2/(2a) trigger: while braking toward a stopped
leader, gap and trigger distance shrink at identical rates, so braking never
oscillates and the final standstill gap lands just under the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import EARTH_RADIUS_M, GeoPoint, SimConstants, distance, min_safety_distance

DEG_TO_M = math.pi / 180.0 * EARTH_RADIUS_M
QUEUE_MIN_VEHICLES = 2  # the fewest slow vehicles ground truth may call a queue


@dataclass(frozen=True)
class SignalSpec:
    signal_id: str
    s_m: float


@dataclass(frozen=True)
class RsuSpec:
    rsu_id: str
    s_m: float
    obstruction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.obstruction <= 1.0:
            raise ValueError(f"obstruction must be in [0, 1], got {self.obstruction}")


class Corridor:
    """Polyline geometry with arc-length addressing."""

    def __init__(
        self,
        polyline: list[GeoPoint],
        signals: list[SignalSpec] | None = None,
        rsus: list[RsuSpec] | None = None,
    ):
        if len(polyline) < 2:
            raise ValueError("corridor polyline needs at least 2 points")
        self.polyline = list(polyline)
        self._cum = [0.0]
        for a, b in zip(polyline, polyline[1:]):
            seg = distance(a, b)
            if seg <= 0:
                raise ValueError("corridor polyline has a zero-length segment")
            self._cum.append(self._cum[-1] + seg)
        self.length_m = self._cum[-1]
        self.signals = list(signals or [])
        self.rsus = list(rsus or [])
        for spec in self.signals:
            if not 0.0 <= spec.s_m <= self.length_m:
                raise ValueError(f"signal {spec.signal_id} offset outside corridor")
        for spec in self.rsus:
            if not 0.0 <= spec.s_m <= self.length_m:
                raise ValueError(f"rsu {spec.rsu_id} offset outside corridor")

    def position_geo(self, s: float) -> GeoPoint:
        """Linear interpolation along the segment containing arc length ``s``."""
        if s <= 0.0:
            return self.polyline[0]
        if s >= self.length_m:
            return self.polyline[-1]
        # Corridors have a handful of points; linear scan is fine.
        i = 0
        while self._cum[i + 1] < s:
            i += 1
        frac = (s - self._cum[i]) / (self._cum[i + 1] - self._cum[i])
        a, b = self.polyline[i], self.polyline[i + 1]
        return GeoPoint(a.lat + frac * (b.lat - a.lat), a.lon + frac * (b.lon - a.lon))

    def project(self, p: GeoPoint) -> float:
        """Arc length of the closest polyline point (equirectangular locally).

        Used by detectors to order reported positions along the road; at
        corridor scale the flat-earth approximation is exact enough for
        ordering and sub-centimeter for distances.
        """
        best_s = 0.0
        best_d2 = math.inf
        for i in range(len(self.polyline) - 1):
            a, b = self.polyline[i], self.polyline[i + 1]
            coslat = math.cos(math.radians((a.lat + b.lat) / 2.0))
            ax, ay = a.lon * coslat * DEG_TO_M, a.lat * DEG_TO_M
            bx, by = b.lon * coslat * DEG_TO_M, b.lat * DEG_TO_M
            px, py = p.lon * coslat * DEG_TO_M, p.lat * DEG_TO_M
            vx, vy = bx - ax, by - ay
            seg2 = vx * vx + vy * vy
            t = ((px - ax) * vx + (py - ay) * vy) / seg2
            t = min(1.0, max(0.0, t))
            dx, dy = px - (ax + t * vx), py - (ay + t * vy)
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best_s = self._cum[i] + t * (self._cum[i + 1] - self._cum[i])
        return best_s


@dataclass(frozen=True)
class MobilityConfig:
    """Car-following knobs: standstill margin, resume hysteresis, resume acceleration."""

    follow_margin_m: float = 3.0
    resume_hysteresis_m: float = 2.0
    resume_accel_mps2: float = 1.5

    def __post_init__(self) -> None:
        for name in ("follow_margin_m", "resume_hysteresis_m", "resume_accel_mps2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.follow_margin_m <= 0 or self.resume_accel_mps2 <= 0:
            raise ValueError("follow_margin_m and resume_accel_mps2 must be positive")


@dataclass
class VehicleState:
    id: str
    s: float
    speed: float
    cruise_speed: float
    accel: float = 0.0
    stop_latched: bool = False

    def __post_init__(self) -> None:
        if self.speed < 0:
            raise ValueError(f"vehicle {self.id} has negative speed")


class OvertakeError(RuntimeError):
    """Vehicle ordering along the corridor was violated; scenario is broken."""


@dataclass
class TrafficWorld:
    """All vehicle state, signal state, and the kinematics step."""

    corridor: Corridor
    constants: SimConstants
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    vehicles: dict[str, VehicleState] = field(init=False, default_factory=dict)
    t_state_ms: int = field(init=False, default=0)  # the instant the current vehicle states describe
    _red_until: dict[str, tuple[int, int]] = field(init=False, default_factory=dict)
    # Per vehicle, the arc length ``position_geo`` last saw and the point it gave there.
    _geo: dict[str, tuple[float, GeoPoint]] = field(init=False, default_factory=dict)

    def spawn(self, state: VehicleState) -> None:
        if state.id in self.vehicles:
            raise ValueError(f"duplicate vehicle id {state.id}")
        if not 0.0 <= state.s <= self.corridor.length_m:
            raise ValueError(f"vehicle {state.id} spawns outside corridor")
        self.vehicles[state.id] = state

    def latch_stop(self, vehicle_id: str) -> VehicleState:
        """Brake to a halt and stay stopped (sudden-stop and warning response)."""
        state = self.vehicles[vehicle_id]
        state.stop_latched = True
        return state

    def set_signal_red(self, signal_id: str, t_from: int, t_until: int) -> None:
        if signal_id not in {s.signal_id for s in self.corridor.signals}:
            raise KeyError(f"unknown signal {signal_id}")
        self._red_until[signal_id] = (t_from, t_until)

    def signal_is_red(self, signal_id: str, now_ms: int) -> bool:
        window = self._red_until.get(signal_id)
        return window is not None and window[0] <= now_ms < window[1]

    def ordered(self) -> list[VehicleState]:
        """Front (largest s) first."""
        return sorted(self.vehicles.values(), key=lambda v: (-v.s, v.id))

    def _obstacle_gap(self, v: VehicleState, leader: VehicleState | None, now_ms: int) -> float:
        gap = math.inf
        if leader is not None:
            gap = leader.s - v.s
        for spec in self.corridor.signals:
            if spec.s_m >= v.s and self.signal_is_red(spec.signal_id, now_ms):
                gap = min(gap, spec.s_m - v.s)
        return gap

    def step(self, dt_s: float) -> None:
        """One kinematics tick: choose accelerations, then integrate ``dt_s``.

        Decisions use the pre-tick snapshot for every vehicle, so update
        order cannot leak into the physics. Afterwards the world describes
        the instant ``t_state_ms + dt``.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        order = self.ordered()
        decel = self.constants.decel_mps2
        mob = self.mobility
        for idx, v in enumerate(order):
            leader = order[idx - 1] if idx > 0 else None
            if v.stop_latched:
                v.accel = -decel if v.speed > 0 else 0.0
                continue
            gap = self._obstacle_gap(v, leader, self.t_state_ms)
            trigger = min_safety_distance(v.speed, decel) + mob.follow_margin_m
            if gap < trigger:
                v.accel = -decel if v.speed > 0 else 0.0
            elif gap < trigger + mob.resume_hysteresis_m:
                v.accel = 0.0
            elif v.speed < v.cruise_speed:
                v.accel = mob.resume_accel_mps2
            else:
                v.accel = 0.0
        for v in order:
            self._integrate(v, dt_s)
        self._check_order(order)
        self.t_state_ms += int(round(dt_s * 1000))

    def _integrate(self, v: VehicleState, dt: float) -> None:
        a = v.accel
        if a < 0 and v.speed + a * dt <= 0:
            # Stops inside the tick: advance exactly the remaining braking distance.
            v.s += v.speed * v.speed / (-2.0 * a)
            v.speed = 0.0
            return
        if a > 0 and v.speed + a * dt > v.cruise_speed:
            t1 = (v.cruise_speed - v.speed) / a
            v.s += v.speed * t1 + 0.5 * a * t1 * t1 + v.cruise_speed * (dt - t1)
            v.speed = v.cruise_speed
            return
        v.s += v.speed * dt + 0.5 * a * dt * dt
        v.speed = max(0.0, v.speed + a * dt)

    def _check_order(self, pre_order: list[VehicleState]) -> None:
        for ahead, behind in zip(pre_order, pre_order[1:]):
            if behind.s > ahead.s:
                raise OvertakeError(f"{behind.id} overtook {ahead.id}")

    def position_geo(self, vehicle_id: str) -> GeoPoint:
        """The vehicle's coordinates, computed once per position.

        The point is a pure function of the arc length, so it is computed
        again only when ``step`` has moved the vehicle: a stopped vehicle
        keeps one ``GeoPoint`` for the whole stop.
        """
        s = self.vehicles[vehicle_id].s
        held = self._geo.get(vehicle_id)
        if held is not None and held[0] == s:
            return held[1]
        pos = self.corridor.position_geo(s)
        self._geo[vehicle_id] = (s, pos)
        return pos

    def ground_truth_queue(self, zone: tuple[float, float], min_vehicles: int = QUEUE_MIN_VEHICLES) -> bool:
        """Omniscient queue judgment over every vehicle, connected or not.

        True iff at least ``min_vehicles`` vehicles inside ``zone`` are below
        the queue speed threshold and every consecutive gap among those slow
        vehicles is under the gap threshold. The count floor is a scenario
        knob (never below 2): it pins what "the queue has formed" means for a
        given platoon, e.g. requiring the whole platoon rather than the first
        stopped pair.
        """
        if min_vehicles < QUEUE_MIN_VEHICLES:
            raise ValueError(f"min_vehicles must be >= {QUEUE_MIN_VEHICLES}, got {min_vehicles}")
        s0, s1 = zone
        slow = sorted(
            v.s
            for v in self.vehicles.values()
            if s0 <= v.s <= s1 and v.speed < self.constants.queue_speed_threshold_mps
        )
        if len(slow) < min_vehicles:
            return False
        return all(
            b - a < self.constants.queue_gap_threshold_m for a, b in zip(slow, slow[1:])
        )
