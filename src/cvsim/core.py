"""Shared domain types, unit conversions, geodesy, and the safety-distance rule.

Everything internal runs in SI units (meters, meters/second, integer
milliseconds). Miles-per-hour and feet exist only at the configuration
boundary and in rendered reports, so conversions live here and nowhere else.

``GeoPoint`` and ``Bsm`` are built once per vehicle per tick in a live run and
once per line in a trace replay, so they are tuples, not dataclasses. Each
checks its input in ``__new__``, which every constructor reaches, ``_make`` and
``_replace`` included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

MPH_TO_MPS = 0.44704
FT_TO_M = 0.3048
EARTH_RADIUS_M = 6_371_000.0
# Spawn speeds above this (about 224 mph, beyond any road vehicle) are rejected.
MAX_SPEED_MPS = 100.0


class InvalidParameterError(ValueError):
    """A physically meaningless parameter (e.g. non-positive deceleration)."""


class InputError(ValueError):
    """Malformed input, anchored to its source and, when known, its line: ``<source>[:<line>]: <message>``."""

    def __init__(self, message: str, source: str, line: int | None = None):
        self.source = source
        self.line = line
        super().__init__(f"{source}: {message}" if line is None else f"{source}:{line}: {message}")


def mph_to_mps(mph: float) -> float:
    """Convert miles/hour to meters/second (exact factor 0.44704)."""
    return mph * MPH_TO_MPS


def mps_to_mph(mps: float) -> float:
    return mps / MPH_TO_MPS


def ft_to_m(ft: float) -> float:
    """Convert feet to meters (exact factor 0.3048)."""
    return ft * FT_TO_M


def m_to_ft(m: float) -> float:
    return m / FT_TO_M


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Report tables compare against published integer-feet values; Python's
    built-in banker's rounding would disagree on exact halves.
    """
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ``GeoPoint`` and ``Bsm`` build their tuple with this after validating.
_tuple_new = tuple.__new__


class _GeoPointFields(NamedTuple):
    lat: float
    lon: float


class GeoPoint(_GeoPointFields):
    """A WGS-84-style decimal-degree coordinate, validated by every constructor."""

    __slots__ = ()

    def __new__(cls, lat: float, lon: float) -> "GeoPoint":
        if not -90.0 <= lat <= 90.0:
            raise InvalidParameterError(f"latitude out of range: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise InvalidParameterError(f"longitude out of range: {lon}")
        return _tuple_new(cls, (lat, lon))

    @classmethod
    def _make(cls, iterable) -> "GeoPoint":
        return cls(*iterable)


# The types ``json.loads`` gives a JSON number. ``bool`` subclasses ``int``, so
# a field is checked by its exact type.
_JSON_NUMBER = (int, float)


# The keys of every BSM document: ``Bsm.to_doc`` writes them, ``Bsm.from_doc`` requires
# them; ``heading`` is the one optional key.
BSM_KEYS = frozenset(("t", "vehicle_id", "lat", "lon", "speed"))


class _BsmFields(NamedTuple):
    t: int
    vehicle_id: str
    pos: GeoPoint
    speed: float
    heading: float | None = None


class Bsm(_BsmFields):
    """One basic safety message: the per-vehicle 10 Hz record, validated by every constructor.

    ``t`` is milliseconds since scenario start (emission time). ``heading``
    is optional; nothing downstream requires it.
    """

    __slots__ = ()

    def __new__(cls, t: int, vehicle_id: str, pos: GeoPoint, speed: float, heading: float | None = None) -> "Bsm":
        if speed < 0:
            raise InvalidParameterError(f"negative speed: {speed}")
        return _tuple_new(cls, (t, vehicle_id, pos, speed, heading))

    @classmethod
    def _make(cls, iterable) -> "Bsm":
        return cls(*iterable)

    def to_doc(self) -> dict:
        t, vehicle_id, (lat, lon), speed, heading = self
        doc = {"t": t, "vehicle_id": vehicle_id, "lat": lat, "lon": lon, "speed": speed}
        if heading is not None:
            doc["heading"] = heading
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "Bsm":
        """The inverse of ``to_doc``: ``t`` a non-negative integer, ``vehicle_id`` a string, numbers finite.

        Nothing is coerced: ``lat``, ``lon``, ``speed`` and ``heading`` must be
        JSON numbers (an int or a float, never a bool or a string).

        All five required fields are read before any field is checked, so a
        missing one raises ``KeyError`` ahead of every type or range check.
        """
        t, vehicle_id, lat, lon, speed = doc["t"], doc["vehicle_id"], doc["lat"], doc["lon"], doc["speed"]
        heading = doc.get("heading")
        if not (
            type(t) is int and t >= 0 and type(vehicle_id) is str
            and type(lat) in _JSON_NUMBER and type(lon) in _JSON_NUMBER and type(speed) in _JSON_NUMBER
            and (type(heading) in _JSON_NUMBER or (heading is None and "heading" not in doc))
        ):
            # Some field is wrong: report the first, in this order.
            if type(t) is not int or t < 0:
                raise InvalidParameterError(f"t must be a non-negative integer, got {t!r}")
            if type(vehicle_id) is not str:
                raise InvalidParameterError(f"vehicle_id must be a string, got {vehicle_id!r}")
            for key in ("lat", "lon", "speed", "heading"):
                if key in doc and type(doc[key]) not in _JSON_NUMBER:
                    raise InvalidParameterError(f"{key} must be a number, got {doc[key]!r}")
        speed = float(speed)
        if heading is not None:
            heading = float(heading)
        if not math.isfinite(speed) or (heading is not None and not math.isfinite(heading)):
            raise InvalidParameterError(f"speed and heading must be finite, got {speed}, {heading}")
        return cls(t, vehicle_id, GeoPoint(float(lat), float(lon)), speed, heading)


@dataclass(frozen=True)
class SimConstants:
    """Scenario-wide physical constants, all positive and finite.

    The deceleration must also give a braking distance from ``MAX_SPEED_MPS``
    that is finite in feet, the unit every decision reports it in.

    Defaults: 10 Hz messaging, 5 mph / 20 ft queue thresholds, 11.2 ft/s^2
    braking deceleration, 200 ms safety latency budget.
    """

    bsm_interval_ms: int = 100
    queue_speed_threshold_mps: float = mph_to_mps(5.0)
    queue_gap_threshold_m: float = ft_to_m(20.0)
    decel_mps2: float = ft_to_m(11.2)
    safety_latency_req_ms: int = 200

    def __post_init__(self) -> None:
        for name in (
            "bsm_interval_ms",
            "queue_speed_threshold_mps",
            "queue_gap_threshold_m",
            "decel_mps2",
            "safety_latency_req_ms",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also false for NaN
                raise InvalidParameterError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(m_to_ft(min_safety_distance(MAX_SPEED_MPS, self.decel_mps2))):
            raise InvalidParameterError(
                f"decel_mps2 {self.decel_mps2} gives no finite braking distance from {MAX_SPEED_MPS:g} m/s"
            )


def distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (haversine, spherical Earth).

    Corridor scales here are a few kilometers and report precision is feet,
    so an ellipsoid would buy nothing.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def ecef(p: GeoPoint) -> tuple[float, float, float]:
    """Earth-centred coordinates in meters on the sphere that ``distance`` assumes.

    The straight-line chord between two such points is ``2R*sqrt(h)`` and
    their ``distance`` is ``2R*asin(sqrt(h))``, so the chord never exceeds the
    distance.
    """
    phi = math.radians(p.lat)
    lam = math.radians(p.lon)
    r_cos = EARTH_RADIUS_M * math.cos(phi)
    return (r_cos * math.cos(lam), r_cos * math.sin(lam), EARTH_RADIUS_M * math.sin(phi))


def min_safety_distance(speed_mps: float, decel_mps2: float) -> float:
    """Braking distance v^2 / (2a) in meters.

    This is the stopping distance once braking begins, i.e. the minimum gap a
    vehicle needs at the moment the first warning packet arrives.
    """
    if decel_mps2 <= 0:
        raise InvalidParameterError(f"deceleration must be positive, got {decel_mps2}")
    if speed_mps < 0:
        raise InvalidParameterError(f"speed must be non-negative, got {speed_mps}")
    return speed_mps * speed_mps / (2.0 * decel_mps2)
