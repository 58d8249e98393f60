"""Event-order gate: the event trace of every bundled scenario and of two benchmark corridors, hashed
during the case's one run in ``conftest.run_case``, matches ``data/event_trace_digests.json``, which
``test_golden.py`` loads and re-records. The artifact digests pin what a run decides; this pins the
order in which it decides it, one ``fire_at,kind,subject`` line per event.
"""

import pytest

from test_golden import EVENT_CASES, EVENTS


def test_every_case_has_an_event_trace_digest():
    assert sorted(EVENTS) == sorted(EVENT_CASES)


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_event_trace_matches_recorded_digest(name, run_case):
    _, events = run_case(EVENT_CASES[name])
    assert events == EVENTS[name], f"{name}: event order changed"
