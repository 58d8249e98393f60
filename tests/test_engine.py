import io

import pytest

from cvsim.engine import Engine, Event, SchedulingInPastError, SimulationAborted, derive_stream_seed


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
