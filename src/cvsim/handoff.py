"""Per-vehicle heterogeneous-network controller.

Wide-area cellular is the resting state. Roadside units broadcast beacons over
their short-range radio; the first beacon a vehicle hears triggers a hard
handoff onto the short-range link, and a run of missed beacons hands it back.
Hard means exclusive: upstream traffic rides exactly one link at any instant.

Switching onto a Wi-Fi access link additionally pays a configurable
association delay during which the vehicle cannot transmit at all; this
reproduces the application-visible dead time of an access-point handoff
without simulating the transport layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InvalidParameterError
from .radio import LinkKind


@dataclass(frozen=True)
class BeaconConfig:
    """Beacon cadence and handoff rules; ``beacon_p_near`` is the flat beacon loss."""

    beacon_interval_ms: int = 100
    miss_threshold: int = 3
    short_range: LinkKind = LinkKind.DSRC
    association_delay_ms: int = 0
    beacon_p_near: float = 0.0

    def __post_init__(self) -> None:
        if self.beacon_interval_ms <= 0:
            raise InvalidParameterError("beacon_interval_ms must be positive")
        if self.miss_threshold < 1:
            raise InvalidParameterError("miss_threshold must be >= 1")
        if self.association_delay_ms < 0:
            raise InvalidParameterError("association_delay_ms must be non-negative")
        if self.short_range is LinkKind.LTE:
            raise InvalidParameterError("short_range link cannot be the fallback link")
        if not 0.0 <= self.beacon_p_near < 1.0:
            raise InvalidParameterError(f"beacon_p_near must be in [0, 1), got {self.beacon_p_near}")

    @property
    def timeout_ms(self) -> int:
        return self.miss_threshold * self.beacon_interval_ms


@dataclass(frozen=True)
class HandoffEvent:
    t: int
    vehicle: str
    from_link: LinkKind
    to_link: LinkKind


@dataclass
class HandoffState:
    """Link state for one vehicle; mutated only from the event loop."""

    vehicle: str
    active: LinkKind = LinkKind.LTE
    last_beacon_at: int = -1
    ready_at: int = 0  # association gate; sends blocked while now < ready_at

    def short_range_active(self, config: BeaconConfig) -> bool:
        return self.active is config.short_range


def on_beacon(state: HandoffState, config: BeaconConfig, t: int) -> HandoffEvent | None:
    """A beacon arrived (already subject to range and loss upstream).

    Entering coverage performs the hard handoff onto the short-range link;
    further beacons just refresh the liveness bookkeeping.
    """
    event = None
    if not state.short_range_active(config):
        event = HandoffEvent(t=t, vehicle=state.vehicle, from_link=state.active, to_link=config.short_range)
        state.active = config.short_range
        state.ready_at = t + config.association_delay_ms
    state.last_beacon_at = t
    return event


def on_tick(state: HandoffState, config: BeaconConfig, t: int) -> HandoffEvent | None:
    """Periodic liveness check; hands back to cellular after enough silence."""
    if not state.short_range_active(config):
        return None
    if t - state.last_beacon_at >= config.timeout_ms:
        event = HandoffEvent(t=t, vehicle=state.vehicle, from_link=state.active, to_link=LinkKind.LTE)
        state.active = LinkKind.LTE
        state.ready_at = t
        return event
    return None


def can_transmit(state: HandoffState, t: int) -> bool:
    """False only while an association gap is still running."""
    return t >= state.ready_at
