"""Event-order gate: the event trace of every bundled scenario and of two
generated corridors matches its recorded SHA-256 digest.

The artifact digests (``test_golden.py``) pin what a run decides; this pins
the order in which it decides it, one ``fire_at,kind,subject`` line per event.
The corridors come from the benchmark's own generator, ``perfbench/corridor.py``,
loaded read-only: 100 vehicles by 5 RSUs, and 20 vehicles by 40 RSUs, where
the per-vehicle geometry and beacon handling are used the most.

A change that moves events on purpose re-records the digests with
``PYTHONPATH=src python tests/test_event_trace_golden.py`` and says why in
``CHANGES.md``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from cvsim.config import bundled_scenario_names, load_scenario, parse_scenario
from cvsim.sim import Simulation

ROOT = Path(__file__).resolve().parents[1]
DIGESTS_PATH = Path(__file__).parent / "data" / "event_trace_digests.json"
# Name -> corridor_yaml(n_vehicles, n_rsus, seed, t_end_s).
CORRIDORS = {"corridor_100x5": (100, 5, 1, 6.0), "corridor_20x40": (20, 40, 1, 10.0)}


def corridor_yaml(*args):
    spec = importlib.util.spec_from_file_location("perfbench_corridor", ROOT / "perfbench" / "corridor.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corridor_yaml(*args)


def config_of(name):
    if name in CORRIDORS:
        return parse_scenario(corridor_yaml(*CORRIDORS[name]))
    return load_scenario(name)


class _Sha256Sink:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("utf-8"))


def event_trace_digest(config):
    sink = _Sha256Sink()
    Simulation(config, trace=sink).run()
    return sink.hash.hexdigest()


def all_names():
    return sorted(bundled_scenario_names()) + sorted(CORRIDORS)


DIGESTS = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}


def test_every_case_has_an_event_trace_digest():
    assert sorted(DIGESTS) == sorted(all_names())


@pytest.mark.parametrize("name", all_names())
def test_event_trace_matches_recorded_digest(name):
    assert event_trace_digest(config_of(name)) == DIGESTS[name], f"{name}: event order changed"


if __name__ == "__main__":
    recorded = {name: event_trace_digest(config_of(name)) for name in all_names()}
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} event-trace digests in {DIGESTS_PATH}")
