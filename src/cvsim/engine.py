"""Deterministic discrete-event scheduler with named seeded random streams.

Time is integer milliseconds: every quantity the simulator handles (4 ms radio
hops up to multi-second association gaps, 100 ms messaging periods) is exactly
representable, and event ordering never depends on float rounding. Ties on
``fire_at`` break by insertion order, so a scenario replays identically for a
given seed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

EventFn = Callable[[], None]


class SchedulingInPastError(ValueError):
    """An event was scheduled before the current simulation clock."""


class SimulationAborted(RuntimeError):
    """A handler raised; carries the offending event for diagnostics."""

    def __init__(self, event: "Event", cause: BaseException):
        super().__init__(
            f"event kind={event.kind!r} subject={event.subject!r} "
            f"at t={event.fire_at} raised {cause!r}"
        )
        self.event = event
        self.cause = cause


@dataclass
class Event:
    """A scheduled callback with a kind tag and a human-readable subject.

    ``kind`` is one of the simulator's event families (mobility-tick, beacon,
    radio-delivery, app-timer, detector-tick); ``subject`` names the entity
    involved and feeds the optional trace dump.
    """

    fire_at: int
    kind: str
    subject: str
    fn: EventFn
    seq: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class SimSummary:
    events_processed: int
    end_time_ms: int
    by_kind: dict[str, int]


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Stable 64-bit seed for a named stream.

    Hash-based so that (seed, stream_id) fully determines the draw sequence
    regardless of platform or PYTHONHASHSEED, and so that adding a new stream
    never perturbs an existing one.
    """
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Single-threaded event loop owning the clock and all RNG streams."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.seed = seed
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._streams: dict[str, random.Random] = {}
        self._trace_enabled = trace
        self.trace_lines: list[str] = []

    @property
    def now(self) -> int:
        return self._now

    def stream(self, stream_id: str) -> random.Random:
        """The named random stream, created on first use."""
        rng = self._streams.get(stream_id)
        if rng is None:
            rng = random.Random(derive_stream_seed(self.seed, stream_id))
            self._streams[stream_id] = rng
        return rng

    def schedule(self, event: Event) -> int:
        """Enqueue ``event``; returns its ticket (insertion sequence number)."""
        if event.fire_at < self._now:
            raise SchedulingInPastError(
                f"fire_at={event.fire_at} is before now={self._now}"
            )
        event.seq = self._seq
        self._seq += 1
        heapq.heappush(self._queue, (event.fire_at, event.seq, event))
        return event.seq

    def at(self, fire_at: int, kind: str, subject: str, fn: EventFn) -> int:
        return self.schedule(Event(fire_at=fire_at, kind=kind, subject=subject, fn=fn))

    def after(self, delay: int, kind: str, subject: str, fn: EventFn) -> int:
        return self.at(self._now + delay, kind, subject, fn)

    def run_until(self, t_end: int) -> SimSummary:
        """Process every event with fire_at <= t_end, in (fire_at, seq) order.

        The clock never moves backward; events beyond ``t_end`` stay queued.
        A handler exception aborts the run with the offending event attached.
        """
        if t_end < self._now:
            raise SchedulingInPastError(f"t_end={t_end} is before now={self._now}")
        processed = 0
        by_kind: dict[str, int] = {}
        while self._queue and self._queue[0][0] <= t_end:
            _, _, event = heapq.heappop(self._queue)
            self._now = event.fire_at
            if self._trace_enabled:
                self.trace_lines.append(f"{event.fire_at},{event.kind},{event.subject}")
            try:
                event.fn()
            except Exception as exc:
                raise SimulationAborted(event, exc) from exc
            processed += 1
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        self._now = t_end
        return SimSummary(events_processed=processed, end_time_ms=self._now, by_kind=by_kind)

    def pending(self) -> int:
        return len(self._queue)

    def trace_digest(self) -> str:
        """SHA-256 over the trace lines; equal digests mean equal runs."""
        h = hashlib.sha256()
        for line in self.trace_lines:
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def dump_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.trace_lines:
                fh.write(line + "\n")
