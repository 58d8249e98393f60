import io

import pytest
from hypothesis import given, settings, strategies as st

from cvsim.engine import DELIVERY_KIND, Engine, Event, SchedulingInPastError, SimulationAborted, derive_stream_seed


def make_event(t, tag, log):
    return Event(fire_at=t, kind="app-timer", subject=tag, fn=lambda: log.append(tag))


def test_tie_break_is_fifo():
    eng = Engine()
    log = []
    eng.schedule(make_event(100, "A", log))
    eng.schedule(make_event(100, "B", log))
    eng.run_until(100)
    assert log == ["A", "B"]


def test_event_at_now_fires_before_later_events():
    eng = Engine()
    log = []
    eng.schedule(make_event(50, "later", log))
    eng.schedule(make_event(0, "now", log))
    eng.run_until(100)
    assert log == ["now", "later"]


def test_reserved_ticket_sorts_where_it_was_reserved():
    eng = Engine()
    log = []
    eng.schedule(make_event(100, "before", log))
    ticket = eng.ticket()
    eng.schedule(make_event(100, "after", log))
    eng.schedule(make_event(50, "early", log))
    late = make_event(100, "ticketed", log)
    late.seq = ticket
    assert eng.schedule(late) == ticket
    eng.run_until(100)
    assert log == ["early", "before", "ticketed", "after"]


def test_tickets_never_collide_with_scheduled_events():
    eng = Engine()
    seqs = []
    tickets = []
    for i in range(12):
        if i % 3 == 1:
            tickets.append(eng.ticket())
        else:
            seqs.append(eng.at(10, "app-timer", f"e{i}", lambda: None))
    for ticket in tickets:
        seqs.append(eng.at(10, "app-timer", "ticketed", lambda: None, ticket=ticket))
    assert sorted(seqs) == list(range(12))
    assert eng.at(10, "app-timer", "next", lambda: None) == 12


def test_schedule_in_past_rejected():
    eng = Engine()
    eng.schedule(make_event(10, "x", []))
    eng.run_until(10)
    with pytest.raises(SchedulingInPastError):
        eng.schedule(make_event(9, "late", []))


def test_empty_queue_run_terminates_at_t_end():
    eng = Engine()
    summary = eng.run_until(10_000)
    assert summary.events_processed == 0
    assert eng.now == 10_000


def test_events_beyond_t_end_are_retained():
    eng = Engine()
    log = []
    eng.schedule(make_event(500, "early", log))
    eng.schedule(make_event(1500, "late", log))
    eng.run_until(1000)
    assert log == ["early"]
    assert eng.pending() == 1
    eng.run_until(2000)
    assert log == ["early", "late"]


def test_clock_monotone_over_processed_events():
    eng = Engine()
    seen = []
    for t in (300, 100, 200, 100, 50):
        eng.schedule(Event(fire_at=t, kind="app-timer", subject="t", fn=lambda: seen.append(eng.now)))
    eng.run_until(1000)
    assert seen == sorted(seen)


def test_handler_exception_surfaces_offending_event():
    eng = Engine()

    def boom():
        raise ValueError("broken handler")

    eng.schedule(Event(fire_at=5, kind="app-timer", subject="bad-node", fn=boom))
    with pytest.raises(SimulationAborted) as exc_info:
        eng.run_until(10)
    assert exc_info.value.event.subject == "bad-node"
    assert "broken handler" in str(exc_info.value)


def test_named_streams_are_stable_and_independent():
    # identical (seed, stream) -> identical draws
    a = Engine(seed=42).stream("radio.dsrc.delivery")
    b = Engine(seed=42).stream("radio.dsrc.delivery")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    # a different stream id gives an unrelated sequence under the same seed
    eng = Engine(seed=42)
    s1 = [eng.stream("radio.dsrc.delivery").random() for _ in range(5)]
    s2 = [eng.stream("radio.lte.delivery").random() for _ in range(5)]
    assert s1 != s2

    # draws from one stream do not shift another
    eng1 = Engine(seed=7)
    eng1.stream("a").random()
    tail1 = [eng1.stream("b").random() for _ in range(5)]
    eng2 = Engine(seed=7)
    tail2 = [eng2.stream("b").random() for _ in range(5)]
    assert tail1 == tail2


def test_derive_stream_seed_is_pure():
    assert derive_stream_seed(1, "x") == derive_stream_seed(1, "x")
    assert derive_stream_seed(1, "x") != derive_stream_seed(2, "x")
    assert derive_stream_seed(1, "x") != derive_stream_seed(1, "y")


def test_trace_digest_detects_identical_runs():
    def run():
        sink = io.StringIO()
        eng = Engine(seed=9, trace=sink)
        log = []
        for t in (10, 20, 20, 30):
            eng.schedule(make_event(t, f"e{t}", log))
        eng.run_until(100)
        return sink.getvalue()

    first = run()
    assert first == run()
    assert first.splitlines() == ["10,app-timer,e10", "20,app-timer,e20", "20,app-timer,e20", "30,app-timer,e30"]


def test_trace_ends_with_the_aborting_event():
    sink = io.StringIO()
    eng = Engine(trace=sink)
    eng.schedule(make_event(10, "ok", []))
    eng.schedule(Event(fire_at=20, kind="app-timer", subject="boom", fn=lambda: 1 / 0))
    eng.schedule(make_event(30, "never", []))
    with pytest.raises(SimulationAborted):
        eng.run_until(100)
    assert sink.getvalue().splitlines() == ["10,app-timer,ok", "20,app-timer,boom"]


def test_run_until_backwards_rejected():
    eng = Engine()
    eng.run_until(100)
    with pytest.raises(SchedulingInPastError):
        eng.run_until(50)


# -- delivery batches against one event per delivery ------------------------------


def test_deliveries_of_one_handler_share_one_event_per_millisecond():
    sink = io.StringIO()
    eng = Engine(trace=sink)
    log = []
    for t, tag in ((5, "a"), (7, "b"), (5, "c"), (7, "d")):
        eng.deliver(t, "bsm", lambda tag=tag: log.append(tag))
    summary = eng.run_until(10)
    assert log == ["a", "c", "b", "d"]
    assert summary.events_processed == 2
    assert sink.getvalue().splitlines() == ["5,radio-delivery,bsm", "7,radio-delivery,bsm"]


def test_next_handler_opens_a_new_batch():
    eng = Engine()
    log = []

    def handler(tag):
        eng.deliver(9, tag, lambda: log.append(tag))

    eng.at(1, "app-timer", "first", lambda: handler("a"))
    eng.at(2, "app-timer", "second", lambda: handler("b"))
    assert eng.run_until(10).events_processed == 4
    assert log == ["a", "b"]


def test_ticket_between_deliveries_splits_the_batch():
    eng = Engine()
    log = []
    eng.deliver(5, "bsm", lambda: log.append("a"))
    ticket = eng.ticket()
    eng.deliver(5, "bsm", lambda: log.append("b"))
    eng.at(5, "app-timer", "ticketed", lambda: log.append("ticketed"), ticket=ticket)
    assert eng.run_until(10).events_processed == 3
    assert log == ["a", "ticketed", "b"]


def test_direct_schedule_between_deliveries_splits_the_batch():
    eng = Engine()
    log = []
    eng.deliver(5, "bsm", lambda: log.append("a"))
    eng.schedule(make_event(5, "x", log))
    eng.deliver(5, "bsm", lambda: log.append("b"))
    assert eng.run_until(10).events_processed == 3
    assert log == ["a", "x", "b"]


def test_raising_member_aborts_naming_the_batch_event():
    eng = Engine()
    log = []
    eng.deliver(5, "beacon", lambda: log.append("ok"))
    eng.deliver(5, "beacon", lambda: 1 / 0)
    eng.deliver(5, "beacon", lambda: log.append("never"))
    with pytest.raises(SimulationAborted) as exc_info:
        eng.run_until(10)
    event = exc_info.value.event
    assert (event.fire_at, event.kind, event.subject) == (5, DELIVERY_KIND, "beacon")
    assert isinstance(exc_info.value.cause, ZeroDivisionError)
    assert log == ["ok"]


def test_delivery_in_the_past_rejected_and_leaves_no_batch():
    eng = Engine()
    log = []
    eng.at(5, "app-timer", "t", lambda: None)
    eng.run_until(5)
    for _ in range(2):  # the second try finds no batch the first left open
        with pytest.raises(SchedulingInPastError):
            eng.deliver(4, "bsm", lambda: log.append("past"))
    eng.deliver(6, "bsm", lambda: log.append("ok"))
    eng.run_until(10)
    assert log == ["ok"]


def test_member_ticketed_for_now_under_an_older_ticket_is_rejected():
    """An event a member schedules for the batch's millisecond under a ticket
    reserved before the batch would sort before the running batch: the run
    aborts naming the batch, after the members before it and before the rest."""
    sink = io.StringIO()
    eng = Engine(trace=sink)
    log = []
    ticket = eng.ticket()

    def second():
        log.append("b")
        eng.at(eng.now, "app-timer", "ticketed", lambda: log.append("ticketed"), ticket=ticket)
        log.append("never")

    eng.deliver(5, "bsm", lambda: log.append("a"))
    eng.deliver(5, "bsm", second)
    eng.deliver(5, "bsm", lambda: log.append("c"))
    with pytest.raises(SimulationAborted) as exc_info:
        eng.run_until(10)
    event = exc_info.value.event
    assert (event.fire_at, event.kind, event.subject) == (5, DELIVERY_KIND, "bsm")
    assert isinstance(exc_info.value.cause, SchedulingInPastError)
    assert log == ["a", "b"]
    assert sink.getvalue().splitlines() == ["5,radio-delivery,bsm"]


@pytest.mark.parametrize("reuse", [False, True], ids=["older-ticket", "own-ticket"])
def test_handler_ticketed_for_now_under_an_older_or_its_own_ticket_is_rejected(reuse):
    """A plain handler breaks the rule the same way; under its own ticket it
    would run again and again in one millisecond."""
    eng = Engine()
    log = []
    older, own = eng.ticket(), eng.ticket()

    def handler():
        log.append("handler")
        eng.at(eng.now, "app-timer", "again", handler, ticket=own if reuse else older)
        log.append("never")

    eng.at(5, "app-timer", "handler", handler, ticket=own)
    with pytest.raises(SimulationAborted) as exc_info:
        eng.run_until(10)
    assert exc_info.value.event.subject == "handler"
    assert isinstance(exc_info.value.cause, SchedulingInPastError)
    assert log == ["handler"]


def test_ticket_newer_than_the_running_event_is_accepted_for_now():
    """A ticket reserved after the running event was scheduled sorts after it,
    so the ticketed event runs in the same millisecond, ahead of every event
    scheduled after the reservation."""
    eng = Engine()
    log = []

    def handler():
        log.append("handler")
        eng.at(eng.now, "app-timer", "ticketed", lambda: log.append("ticketed"), ticket=ticket)

    eng.at(5, "app-timer", "handler", handler)
    ticket = eng.ticket()
    eng.at(5, "app-timer", "later", lambda: log.append("later"))
    assert eng.run_until(10).events_processed == 3
    assert log == ["handler", "ticketed", "later"]


def test_ticket_older_than_the_last_event_run_is_rejected_at_its_millisecond():
    """Between runs the rule holds against the last event run while the clock
    stays at its millisecond, and lapses once the clock has moved past it."""
    eng = Engine()
    old, stale = eng.ticket(), eng.ticket()
    eng.at(5, "app-timer", "x", lambda: None)
    eng.run_until(5)
    with pytest.raises(SchedulingInPastError):
        eng.at(5, "app-timer", "ticketed", lambda: None, ticket=old)
    eng.run_until(6)
    log = []
    eng.at(6, "app-timer", "ticketed", lambda: log.append("ticketed"), ticket=stale)
    eng.run_until(6)
    assert log == ["ticketed"]


class _PerDeliveryEngine(Engine):
    """The reference: every delivery is its own event."""

    def deliver(self, fire_at, subject, fn):
        self.at(fire_at, DELIVERY_KIND, subject, fn)


# Delays after the firing handler's now; 0 lands on now itself.
DELAYS = st.sampled_from([0, 0, 1, 1, 2, 3, 7])
OPS = ("at", "ticketed", "ticketed", "ticket", "ticket", "schedule", "deliver", "deliver", "deliver")


@st.composite
def programs(draw, depth=3):
    """A handler's program: steps of (op, delay, the program of the callback scheduled)."""
    steps = []
    for _ in range(draw(st.integers(0, 5 if depth else 0))):
        op = draw(st.sampled_from(OPS))
        children = () if op == "ticket" else draw(programs(depth - 1))
        steps.append((op, draw(DELAYS), children))
    return tuple(steps)


def run_program(eng, program):
    """Run ``program`` from outside any handler; every callback logs its label, then runs its own."""
    log = []
    held = []  # reserved tickets, used oldest first by the ticketed steps

    def run_steps(steps, path):
        for i, (op, delay, children) in enumerate(steps):
            label = f"{path}.{i}"
            if op == "ticket":
                held.append(eng.ticket())
                continue

            def fn(label=label, children=children):
                log.append(label)
                run_steps(children, label)

            t = eng.now + delay
            if op == "deliver":
                eng.deliver(t, label, fn)
            elif op == "schedule":
                eng.schedule(Event(fire_at=t, kind="app-timer", subject=label, fn=fn))
            else:
                eng.at(t, "app-timer", label, fn, ticket=held.pop(0) if op == "ticketed" and held else -1)

    run_steps(program, "r")
    try:
        return log, eng.run_until(100).events_processed
    except SimulationAborted as exc:
        assert isinstance(exc.cause, SchedulingInPastError)
        return log, None


@settings(max_examples=300, deadline=None)
@given(programs())
def test_batched_deliveries_fire_as_one_event_per_delivery(program):
    """The same callbacks in the same order, and the same outcome: both
    engines reject a ticketed event that sorts before the running one (events
    ``None``), or both finish, the batched one with no more events."""
    log, events = run_program(Engine(), program)
    expected, expected_events = run_program(_PerDeliveryEngine(), program)
    assert log == expected
    assert (events is None) == (expected_events is None)
    if events is not None:
        assert events <= expected_events
