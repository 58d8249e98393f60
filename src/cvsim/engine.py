"""Deterministic discrete-event scheduler with named seeded random streams.

Time is integer milliseconds: every quantity the simulator handles (4 ms radio
hops up to multi-second association gaps, 100 ms messaging periods) is exactly
representable, and event ordering never depends on float rounding. Ties on
``fire_at`` break by insertion order, so a scenario replays identically for a
given seed. ``Engine.ticket`` reserves the next place in that order for an
event scheduled later: it sorts as if it had been scheduled at the
reservation, ahead of every same-time event scheduled after it.

``Engine.deliver`` gathers the radio deliveries one handler sends for one
millisecond into a single event. The batch takes the seq its first delivery
would have had, and it stays open only while the handler issues no other seq
(no ``at`` or ``schedule`` without a ticket, no ``ticket()``) and no event is
popped. So every seq between its first and last member would have gone to the
handler's own deliveries, and no event queued before the batch runs can sort
between two members. The one event that can is made while it runs: a member
that schedules an event for the current millisecond under a ticket older than
the batch. The batch then yields: its remaining members become a new batch
under its own seq, after that event. So running the members in order is
exactly one event per delivery.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, TextIO

EventFn = Callable[[], None]
DELIVERY_KIND = "radio-delivery"


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


class Engine:
    """Single-threaded event loop owning the clock and all RNG streams.

    With a ``trace`` sink, each event writes one ``fire_at,kind,subject`` line
    to it as it fires, before its handler runs.
    """

    def __init__(self, seed: int = 0, trace: TextIO | None = None):
        self.seed = seed
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._streams: dict[str, random.Random] = {}
        self._trace = trace
        # Open delivery batches by fire_at; they hold while ``_seq`` is still
        # ``_batch_end``, the seq just after the latest batch opened.
        self._batches: dict[int, list[EventFn]] = {}
        self._batch_end = -1
        # The batch now running: its seq, its subject and its members yet to run.
        self._running: tuple[int, str, Iterator[EventFn]] | None = None

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

    def ticket(self) -> int:
        """Reserve the next insertion sequence number for an event scheduled later."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule(self, event: Event) -> int:
        """Enqueue ``event``; returns its ticket (insertion sequence number).

        An event whose ``seq`` is already set keeps it: it must be a ticket
        from ``ticket()``, each used once.
        """
        if event.fire_at < self._now:
            raise SchedulingInPastError(
                f"fire_at={event.fire_at} is before now={self._now}"
            )
        if event.seq < 0:
            event.seq = self._seq
            self._seq += 1
        elif self._running is not None and event.fire_at == self._now:
            self._yield_batch(event.seq)
        heapq.heappush(self._queue, (event.fire_at, event.seq, event))
        return event.seq

    def at(self, fire_at: int, kind: str, subject: str, fn: EventFn, ticket: int = -1) -> int:
        return self.schedule(Event(fire_at=fire_at, kind=kind, subject=subject, fn=fn, seq=ticket))

    def deliver(self, fire_at: int, subject: str, fn: EventFn) -> None:
        """Schedule a radio delivery, joining the firing handler's open batch for ``fire_at``.

        A new batch is one ``DELIVERY_KIND`` event, scheduled through
        ``schedule`` and named by the subject of its first delivery; it runs
        its members in the order they were sent. Scheduling that takes a new
        seq closes every open batch, and so does popping the next event.
        """
        if self._seq == self._batch_end:
            members = self._batches.get(fire_at)
            if members is not None:
                members.append(fn)
                return
        else:
            self._batches.clear()
        members = [fn]
        seq = self._seq
        self._seq = seq + 1
        self.schedule(self._batch(fire_at, subject, members, seq))
        self._batches[fire_at] = members
        self._batch_end = self._seq

    def _batch(self, fire_at: int, subject: str, members: list[EventFn], seq: int) -> Event:
        # The callback holds the batch's seq and subject, not the event, so a
        # fired batch is freed at once rather than by the cycle collector.
        return Event(fire_at, DELIVERY_KIND, subject, partial(self._run_batch, seq, subject, members), seq)

    def _run_batch(self, seq: int, subject: str, members: list[EventFn]) -> None:
        rest = iter(members)
        self._running = (seq, subject, rest)
        try:
            for fn in rest:
                fn()
        finally:
            self._running = None

    def _yield_batch(self, ticket: int) -> None:
        """If ``ticket`` sorts ahead of the running batch, move its remaining members to a new batch.

        The new batch takes the running batch's seq, so it runs right after
        the ticketed event and ahead of everything the old batch was ahead of.
        """
        seq, subject, rest = self._running
        if ticket < seq:
            members = list(rest)  # empties the iterator, so the running loop ends
            if members:
                self.schedule(self._batch(self._now, subject, members, seq))

    def run_until(self, t_end: int) -> SimSummary:
        """Process every event with fire_at <= t_end, in (fire_at, seq) order.

        The clock never moves backward; events beyond ``t_end`` stay queued.
        A handler exception aborts the run with the offending event attached.
        """
        if t_end < self._now:
            raise SchedulingInPastError(f"t_end={t_end} is before now={self._now}")
        processed = 0
        while self._queue and self._queue[0][0] <= t_end:
            _, _, event = heapq.heappop(self._queue)
            self._batch_end = -1
            self._now = event.fire_at
            if self._trace is not None:
                self._trace.write(f"{event.fire_at},{event.kind},{event.subject}\n")
            try:
                event.fn()
            except Exception as exc:
                raise SimulationAborted(event, exc) from exc
            processed += 1
        self._now = t_end
        return SimSummary(events_processed=processed, end_time_ms=self._now)

    def pending(self) -> int:
        return len(self._queue)
