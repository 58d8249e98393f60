"""Deterministic discrete-event scheduler with named seeded random streams.

Time is integer milliseconds: every quantity the simulator handles (4 ms radio
hops up to multi-second association gaps, 100 ms messaging periods) is exactly
representable, and event ordering never depends on float rounding. Ties on
``fire_at`` break by insertion order, so a scenario replays identically for a
given seed. ``Engine.ticket`` reserves the next place in that order for an
event scheduled later: it sorts as if it had been scheduled at the
reservation, ahead of every same-time event scheduled after it.

``Engine.schedule`` keeps one ordering rule: every event must sort after the
event now running (or the last one run). Only a ticketed event can break it,
by being scheduled for the current millisecond under a ticket no newer than
the running event's seq; ``SchedulingInPastError`` rejects it.

``Engine.deliver`` gathers the radio deliveries one handler sends for one
millisecond into a single event. The batch takes the seq its first delivery
would have had, and it stays open only while the handler issues no other seq
(no ``at`` or ``schedule`` without a ticket, no ``ticket()``) and no event is
popped. So every seq between its first and last member would have gone to the
handler's own deliveries, no event queued before the batch runs can sort
between two members, and by the rule above none scheduled while it runs can
either. Running the members in order is exactly one event per delivery.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, TextIO

EventFn = Callable[[], None]
DELIVERY_KIND = "radio-delivery"


class SchedulingInPastError(ValueError):
    """An event was scheduled to sort before the running event, or ``run_until`` went back."""


class SimulationAborted(RuntimeError):
    """A handler raised; carries the offending event for diagnostics."""

    def __init__(self, event: "Event", cause: BaseException):
        super().__init__(
            f"event kind={event.kind!r} subject={event.subject!r} "
            f"at t={event.fire_at} raised {cause!r}"
        )
        self.event = event
        self.cause = cause


@dataclass(slots=True)
class Event:
    """A scheduled callback with a kind tag and a human-readable subject.

    ``kind`` is one of the simulator's event families (mobility-tick, beacon,
    radio-delivery, app-timer, detector-tick); ``subject`` names the entity
    involved, or for a delivery batch the packet kind, and feeds the optional
    event trace. ``seq`` is its place in the insertion order: -1 until
    scheduled, or a ticket reserved beforehand.
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


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Stable 64-bit seed for a named stream.

    Hash-based so that (seed, stream_id) fully determines the draw sequence
    regardless of platform or PYTHONHASHSEED, and so that adding a new stream
    never perturbs an existing one.
    """
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Batch(list):
    """The deliveries of one batch; calling it runs them in the order they were sent."""

    __slots__ = ()

    def __call__(self) -> None:
        for fn in self:
            fn()


class Engine:
    """Single-threaded event loop owning the clock and all RNG streams.

    ``now`` is the clock, a plain attribute that only ``run_until`` sets.
    With a ``trace`` sink, each event writes one ``fire_at,kind,subject``
    line to it as it fires, before its handler runs.
    """

    def __init__(self, seed: int = 0, trace: TextIO | None = None):
        self.seed = seed
        self.now = 0
        # The seq of the event now running, or of the last one run while the
        # clock is still at its ``fire_at``; -1 once the clock has moved past it.
        self._now_seq = -1
        self._seq = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._streams: dict[str, random.Random] = {}
        self._trace = trace
        # Open delivery batches by fire_at; they hold while ``_seq`` is still
        # ``_batch_end``, the seq just after the latest batch opened.
        self._batches: dict[int, _Batch] = {}
        self._batch_end = -1

    def stream(self, stream_id: str) -> random.Random:
        """The named random stream, created on first use."""
        rng = self._streams.get(stream_id)
        if rng is None:
            rng = random.Random(derive_stream_seed(self.seed, stream_id))
            self._streams[stream_id] = rng
        return rng

    def ticket(self) -> int:
        """Reserve the next insertion sequence number for an event scheduled later."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule(self, event: Event) -> int:
        """Enqueue ``event``; returns its ticket (insertion sequence number).

        An event whose ``seq`` is already set keeps it: it must be a ticket
        from ``ticket()``, each used once. An event whose ``(fire_at, seq)``
        does not sort after the running event's (or the last one run's)
        raises ``SchedulingInPastError``: a ``fire_at`` before now, or one at
        now under a ticket no newer than the running event's.
        """
        fire_at, seq, now = event.fire_at, event.seq, self.now
        if seq < 0:
            seq = event.seq = self._seq
            self._seq += 1
        if fire_at < now or (fire_at == now and seq <= self._now_seq):
            raise SchedulingInPastError(
                f"event at fire_at={fire_at}, seq={seq} does not sort after now={now}, seq={self._now_seq}"
            )
        heappush(self._queue, (fire_at, seq, event))
        return seq

    def at(self, fire_at: int, kind: str, subject: str, fn: EventFn, ticket: int = -1) -> int:
        return self.schedule(Event(fire_at, kind, subject, fn, ticket))

    def deliver(self, fire_at: int, subject: str, fn: EventFn) -> None:
        """Schedule a radio delivery, joining the firing handler's open batch for ``fire_at``.

        A new batch is one ``DELIVERY_KIND`` event, scheduled through
        ``schedule`` and named by the subject of its first delivery; its
        ``fn`` is the batch itself. Scheduling that takes a new seq closes
        every open batch, and so does popping the next event.
        """
        if self._seq == self._batch_end:
            batch = self._batches.get(fire_at)
            if batch is not None:
                batch.append(fn)
                return
        else:
            self._batches.clear()
        batch = _Batch((fn,))
        self.schedule(Event(fire_at, DELIVERY_KIND, subject, batch))
        self._batches[fire_at] = batch
        self._batch_end = self._seq

    def run_until(self, t_end: int) -> SimSummary:
        """Process every event with fire_at <= t_end, in (fire_at, seq) order.

        The clock never moves backward; events beyond ``t_end`` stay queued.
        A handler exception aborts the run with the offending event attached.
        """
        if t_end < self.now:
            raise SchedulingInPastError(f"t_end={t_end} is before now={self.now}")
        queue, trace = self._queue, self._trace
        processed = 0
        while queue and queue[0][0] <= t_end:
            fire_at, seq, event = heappop(queue)
            self._batch_end = -1
            self.now = fire_at
            self._now_seq = seq
            if trace is not None:
                trace.write(f"{fire_at},{event.kind},{event.subject}\n")
            try:
                event.fn()
            except Exception as exc:
                raise SimulationAborted(event, exc) from exc
            processed += 1
        if t_end > self.now:
            self.now, self._now_seq = t_end, -1
        return SimSummary(events_processed=processed, end_time_ms=self.now)

    def pending(self) -> int:
        return len(self._queue)
