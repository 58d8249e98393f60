"""Per-link delivery modeling: range gating, latency, loss, and RSSI.

A send is a distance and a link model. Loss over distance is flat at
``p_near`` out to a configurable fraction of the effective range, then ramps
linearly to certain loss at the range edge. A model's ``obstruction`` shrinks
its effective range, computed once when the model is built, standing in for
the roadway geometry and signal blockage around one receiver; each RSU
carries its own models. Latencies are uniform integer-millisecond draws
around a mean; with zero jitter every delivery hits the mean exactly, which
is what the golden scenarios pin.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .core import InvalidParameterError


class LinkKind(enum.Enum):
    DSRC = "dsrc"
    LTE = "lte"
    WIFI = "wifi"


class Delivered(NamedTuple):
    """A send that got through, ``latency_ms`` after it left."""

    latency_ms: int


@dataclass(frozen=True)
class LinkModel:
    """Radio parameters for one link kind.

    ``range_m=None`` means unbounded (cellular) or fixed point-to-point
    (backhaul); both skip range gating. ``obstruction`` belongs to one
    receiver and scales the effective range, set once, down to
    range*(1-obstruction). ``mean_delivery`` is the outcome of every
    delivery on a zero-jitter link, ``Delivered(latency_mean_ms)``; like
    ``effective_range`` it is computed when the model is built, so
    ``replace()`` rebuilds both.
    """

    kind: LinkKind
    range_m: float | None = None
    latency_mean_ms: int = 1
    latency_jitter_ms: int = 0
    warning_latency_mean_ms: int | None = None
    p_near: float = 0.0
    ramp_start_frac: float = 0.8
    obstruction: float = 0.0
    effective_range: float | None = field(init=False, repr=False, compare=False)
    mean_delivery: Delivered = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.range_m is not None and not 0 < self.range_m < math.inf:
            raise InvalidParameterError(f"range_m must be positive and finite, got {self.range_m}")
        if not 0.0 <= self.p_near < 1.0:
            raise InvalidParameterError(f"p_near must be in [0, 1), got {self.p_near}")
        if not 0.0 <= self.ramp_start_frac <= 1.0:
            raise InvalidParameterError(
                f"ramp_start_frac must be in [0, 1], got {self.ramp_start_frac}"
            )
        if self.latency_jitter_ms < 0:
            raise InvalidParameterError("latency_jitter_ms must be non-negative")
        for name in ("latency_mean_ms", "warning_latency_mean_ms"):
            mean = getattr(self, name)
            if mean is not None and mean < 1:
                raise InvalidParameterError(f"{name} must be at least 1 ms, got {mean}")
        if not 0.0 <= self.obstruction <= 1.0:
            raise InvalidParameterError(f"obstruction must be in [0, 1], got {self.obstruction}")
        r_eff = None if self.range_m is None else self.range_m * (1.0 - self.obstruction)
        object.__setattr__(self, "effective_range", r_eff)
        # The mean is at least 1 ms, so this is the jitter-free draw's ``max(1, mean)``.
        object.__setattr__(self, "mean_delivery", Delivered(self.latency_mean_ms))

    def for_warnings(self) -> LinkModel:
        """The model sudden-stop warnings ride: this link with the warning latency as its mean.

        A link with no warning mean carries warnings at its data mean. The
        kind is kept, so warnings draw from the link's one delivery stream.
        """
        if self.warning_latency_mean_ms is None:
            return self
        return replace(self, latency_mean_ms=self.warning_latency_mean_ms)


def in_range(distance_m: float, model: LinkModel) -> bool:
    """True when the receiver sits inside the link's effective range."""
    r_eff = model.effective_range
    if r_eff is None:
        return True
    return distance_m <= r_eff


def loss_probability(distance_m: float, model: LinkModel) -> float:
    """Flat p_near, then a linear ramp to 1.0 at the effective range edge."""
    r_eff = model.effective_range
    if r_eff is None:
        return model.p_near
    if r_eff <= 0.0 or distance_m >= r_eff:
        return 1.0
    ramp_start = model.ramp_start_frac * r_eff
    if distance_m <= ramp_start:
        return model.p_near
    frac = (distance_m - ramp_start) / (r_eff - ramp_start)
    return model.p_near + (1.0 - model.p_near) * frac


def sample_delivery(distance_m: float, model: LinkModel, rng: random.Random) -> Delivered | None:
    """Draw one delivery outcome; ``None`` means the packet was lost.

    Loss is a normal outcome, not an error. The loss draw happens even when
    the probability is zero so that enabling loss later never shifts another
    model's stream. A zero-jitter link draws nothing more and returns the
    model's one ``mean_delivery``; a jittered one draws its latency too.
    """
    p_loss = loss_probability(distance_m, model)
    if rng.random() < p_loss:
        return None
    jitter = model.latency_jitter_ms
    if not jitter:
        return model.mean_delivery
    mean = model.latency_mean_ms
    return Delivered(max(1, rng.randint(mean - jitter, mean + jitter)))


# Log-distance path loss for the coverage report: physically plausible for a
# 5.9 GHz roadside install, but calibration inputs, not measured truth. The
# reference distance is 1 m.
TX_POWER_DBM = 20.0
PL0_DB = 47.0
PATH_LOSS_EXPONENT = 2.4


def rssi_dbm(distance_m: float) -> float:
    """Received power under log-distance path loss; below 1 m clamps to 1 m."""
    return TX_POWER_DBM - PL0_DB - 10.0 * PATH_LOSS_EXPONENT * math.log10(max(distance_m, 1.0))


# Latency defaults mirror the deployed-system measurements the scenarios
# reproduce: a 4 ms short-range hop for telemetry, speed-tier warning
# latencies for DSRC (88/102/125 ms) versus cellular (2590/2810/3000 ms).
DSRC_WARNING_LATENCY_BY_TIER = {20: 88, 35: 102, 50: 125}
LTE_WARNING_LATENCY_BY_TIER = {20: 2590, 35: 2810, 50: 3000}

# The fixed 6 ms RSU-to-backend hop (the "System Edge - Fixed Edge" delay). It
# is counted as Wi-Fi traffic but is not the Wi-Fi access link, so a
# ``links.wifi`` override never moves it.
BACKHAUL = LinkModel(kind=LinkKind.WIFI, range_m=None, latency_mean_ms=6)


def default_link_models(speed_tier_mph: int) -> dict[LinkKind, LinkModel]:
    if speed_tier_mph not in DSRC_WARNING_LATENCY_BY_TIER:
        raise InvalidParameterError(
            f"speed_tier_mph must be one of {sorted(DSRC_WARNING_LATENCY_BY_TIER)}, "
            f"got {speed_tier_mph}"
        )
    return {
        LinkKind.DSRC: LinkModel(
            kind=LinkKind.DSRC,
            range_m=300.0,
            latency_mean_ms=4,
            warning_latency_mean_ms=DSRC_WARNING_LATENCY_BY_TIER[speed_tier_mph],
        ),
        LinkKind.LTE: LinkModel(
            kind=LinkKind.LTE,
            range_m=None,
            latency_mean_ms=50,
            warning_latency_mean_ms=LTE_WARNING_LATENCY_BY_TIER[speed_tier_mph],
        ),
        LinkKind.WIFI: LinkModel(kind=LinkKind.WIFI, range_m=200.0, latency_mean_ms=6),
    }
