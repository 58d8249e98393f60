"""Per-link delivery modeling: range gating, latency, loss, and RSSI.

Loss over distance is flat at ``p_near`` out to a configurable fraction of the
effective range, then ramps linearly to certain loss at the range edge. The
per-receiver obstruction factor shrinks the effective range, standing in for
roadway geometry and signal blockage. Latencies are uniform integer-millisecond
draws around a mean; with zero jitter every delivery hits the mean exactly,
which is what the golden scenarios pin.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .core import InvalidParameterError


class LinkKind(enum.Enum):
    DSRC = "dsrc"
    LTE = "lte"
    WIFI = "wifi"


class LatencyProfile(enum.Enum):
    """Which measured latency a packet class follows on a given link."""

    DATA = "data"
    WARNING = "warning"


@dataclass(frozen=True)
class LinkModel:
    """Radio parameters for one link kind.

    ``range_m=None`` means unbounded (cellular) or fixed point-to-point
    (backhaul); both skip range gating. ``obstruction`` applies per receiver
    and scales the effective range down to range*(1-obstruction).
    """

    kind: LinkKind
    range_m: float | None = None
    latency_mean_ms: int = 1
    latency_jitter_ms: int = 0
    warning_latency_mean_ms: int | None = None
    p_near: float = 0.0
    ramp_start_frac: float = 0.8

    def __post_init__(self) -> None:
        if self.range_m is not None and self.range_m <= 0:
            raise InvalidParameterError(f"range_m must be positive, got {self.range_m}")
        if not 0.0 <= self.p_near < 1.0:
            raise InvalidParameterError(f"p_near must be in [0, 1), got {self.p_near}")
        if not 0.0 <= self.ramp_start_frac <= 1.0:
            raise InvalidParameterError(
                f"ramp_start_frac must be in [0, 1], got {self.ramp_start_frac}"
            )
        if self.latency_jitter_ms < 0:
            raise InvalidParameterError("latency_jitter_ms must be non-negative")

    def effective_range(self, obstruction: float = 0.0) -> float | None:
        if not 0.0 <= obstruction <= 1.0:
            raise InvalidParameterError(f"obstruction must be in [0, 1], got {obstruction}")
        if self.range_m is None:
            return None
        return self.range_m * (1.0 - obstruction)

    def mean_for(self, profile: LatencyProfile) -> int:
        if profile is LatencyProfile.WARNING and self.warning_latency_mean_ms is not None:
            return self.warning_latency_mean_ms
        return self.latency_mean_ms


@dataclass(frozen=True)
class Delivered:
    latency_ms: int


def in_range(distance_m: float, model: LinkModel, obstruction: float = 0.0) -> bool:
    """True when the receiver sits inside the link's effective range."""
    r_eff = model.effective_range(obstruction)
    if r_eff is None:
        return True
    return distance_m <= r_eff


def loss_probability(distance_m: float, model: LinkModel, obstruction: float = 0.0) -> float:
    """Flat p_near, then a linear ramp to 1.0 at the effective range edge."""
    r_eff = model.effective_range(obstruction)
    if r_eff is None:
        return model.p_near
    if r_eff <= 0.0 or distance_m >= r_eff:
        return 1.0
    ramp_start = model.ramp_start_frac * r_eff
    if distance_m <= ramp_start:
        return model.p_near
    frac = (distance_m - ramp_start) / (r_eff - ramp_start)
    return model.p_near + (1.0 - model.p_near) * frac


def sample_delivery(
    distance_m: float,
    model: LinkModel,
    rng: random.Random,
    obstruction: float = 0.0,
    profile: LatencyProfile = LatencyProfile.DATA,
) -> Delivered | None:
    """Draw one delivery outcome; ``None`` means the packet was lost.

    Loss is a normal outcome, not an error. The loss draw happens even when
    the probability is zero so that enabling loss later never shifts another
    model's stream.
    """
    p_loss = loss_probability(distance_m, model, obstruction)
    draw = rng.random()
    if draw < p_loss:
        return None
    mean = model.mean_for(profile)
    jitter = model.latency_jitter_ms
    latency = rng.randint(mean - jitter, mean + jitter) if jitter > 0 else mean
    return Delivered(latency_ms=max(1, latency))


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss knobs for coverage reporting.

    Defaults are physically plausible for a 5.9 GHz roadside install but are
    calibration inputs, not measured truth.
    """

    tx_power_dbm: float = 20.0
    pl0_db: float = 47.0
    exponent: float = 2.4
    d0_m: float = 1.0

    def __post_init__(self) -> None:
        if self.d0_m <= 0:
            raise InvalidParameterError(f"d0_m must be positive, got {self.d0_m}")


def rssi_dbm(distance_m: float, params: PathLossParams = PathLossParams()) -> float:
    """Received power under log-distance path loss; below d0 clamps to d0."""
    d = max(distance_m, params.d0_m)
    return params.tx_power_dbm - params.pl0_db - 10.0 * params.exponent * math.log10(d / params.d0_m)


# Latency defaults mirror the deployed-system measurements the scenarios
# reproduce: a 4 ms short-range hop for telemetry, speed-tier warning
# latencies for DSRC (88/102/125 ms) versus cellular (2590/2810/3000 ms),
# and a 6 ms Wi-Fi backhaul hop.
DSRC_WARNING_LATENCY_BY_TIER = {20: 88, 35: 102, 50: 125}
LTE_WARNING_LATENCY_BY_TIER = {20: 2590, 35: 2810, 50: 3000}


def default_link_models(
    dsrc_range_m: float = 300.0,
    wifi_range_m: float = 200.0,
    speed_tier_mph: int = 20,
) -> dict[LinkKind, LinkModel]:
    if speed_tier_mph not in DSRC_WARNING_LATENCY_BY_TIER:
        raise InvalidParameterError(
            f"speed_tier_mph must be one of {sorted(DSRC_WARNING_LATENCY_BY_TIER)}, "
            f"got {speed_tier_mph}"
        )
    return {
        LinkKind.DSRC: LinkModel(
            kind=LinkKind.DSRC,
            range_m=dsrc_range_m,
            latency_mean_ms=4,
            warning_latency_mean_ms=DSRC_WARNING_LATENCY_BY_TIER[speed_tier_mph],
        ),
        LinkKind.LTE: LinkModel(
            kind=LinkKind.LTE,
            range_m=None,
            latency_mean_ms=50,
            warning_latency_mean_ms=LTE_WARNING_LATENCY_BY_TIER[speed_tier_mph],
        ),
        LinkKind.WIFI: LinkModel(kind=LinkKind.WIFI, range_m=wifi_range_m, latency_mean_ms=6),
    }
