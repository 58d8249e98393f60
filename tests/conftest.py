import hashlib
import importlib.util
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from cvsim.config import load_scenario, parse_scenario
from cvsim.replay import parse_trace, replay_trace, write_replay_csv
from cvsim.report import write_artifacts
from cvsim.sim import check_run, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# The golden cases beyond the bundled scenarios: the benchmark's seed-1 corridors, as
# corridor_yaml(n_vehicles, n_rsus, seed, t_end_s); trace_replay's is the run the benchmark replays.
CORRIDORS = {"corridor_fleet": (100, 5, 1, 6.0), "rsu_dense": (20, 40, 1, 10.0), "trace_replay": (100, 5, 1, 15.0)}
_SPEC = importlib.util.spec_from_file_location("perfbench_corridor", ROOT / "perfbench" / "corridor.py")
GENERATOR = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(GENERATOR)
# ``assert_rejected``'s ``line`` where the diagnostic may name a line or none.
ANY_LINE = "any"


def assert_rejected(argv, rc, err, source, line=None, message=""):
    """The rejection contract of ``cvsim`` run with ``argv``, from its exit code and stderr: exit 2,
    one stderr line ``error: <source>[:<line>]: <diagnostic>`` whose diagnostic holds ``message``,
    and neither the ``--out-dir`` nor the ``--event-trace`` path of ``argv`` written. ``line`` is
    None where no line applies. Returns the diagnostic, for a test that pins more of it."""
    assert rc == 2, (rc, err)
    anchor = "(?::[0-9]+)?" if line == ANY_LINE else "" if line is None else f":{line}"
    match = re.fullmatch(f"error: {re.escape(str(source))}{anchor}: ([^\n]+)\n", err)
    assert match and message in match[1], err
    outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out-dir", "--event-trace")]
    assert "--out-dir" in argv and not any(map(os.path.lexists, outputs)), outputs
    return match[1]


class _Sha256Sink:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("utf-8"))


def run_traced(config):
    """Run ``config`` once; returns the run and the SHA-256 of its event trace."""
    sink = _Sha256Sink()
    return run_scenario(config, trace=sink), sink.hash.hexdigest()


class ScenarioRuns:
    """Session cache of bundled scenario runs (each is deterministic anyway).

    ``scenario_runs(name, seed=None)`` is the run; ``scenario_runs.traced(name,
    seed=None)`` is the same run and the SHA-256 of its event trace.
    """

    def __init__(self):
        self._runs = {}

    def traced(self, name, seed=None):
        key = (name, seed)
        if key not in self._runs:
            config = load_scenario(name)
            if seed is not None:
                config = replace(config, seed=seed)
            self._runs[key] = run_traced(config)
        return self._runs[key]

    def __call__(self, name, seed=None):
        return self.traced(name, seed)[0]


@pytest.fixture(scope="session")
def scenario_runs():
    return ScenarioRuns()


def config_of(name):
    """The config of golden case ``name``: a corridor built by the benchmark's generator, or a bundled scenario."""
    return parse_scenario(GENERATOR.corridor_yaml(*CORRIDORS[name])) if name in CORRIDORS else load_scenario(name)


def write_case(name, result, out_dir):
    """The run's artifacts and, for ``trace_replay``, the replay of its trace under ``replay/``."""
    write_artifacts(result, out_dir)
    if name == "trace_replay":
        (out_dir / "replay").mkdir()
        config, records = result.config, parse_trace(out_dir / "trace.ndjson")
        replayed = replay_trace(records, constants=config.constants, corridor=config.corridor)
        write_replay_csv(replayed, out_dir / "replay" / "queue_decisions.csv")


@pytest.fixture(scope="session")
def run_case(scenario_runs, tmp_path_factory):
    """Golden case ``name``, simulated once and written once: ``(out_dir, event-trace SHA-256)``.
    A bundled case is the cached run; a corridor's run is dropped once its artifacts are written."""
    cases = {}

    def run(name):
        if name not in cases:
            result, events = run_traced(config_of(name)) if name in CORRIDORS else scenario_runs.traced(name)
            assert check_run(result) == [], name
            out_dir = tmp_path_factory.mktemp(name)
            write_case(name, result, out_dir)
            cases[name] = out_dir, events
        return cases[name]

    return run


@pytest.fixture
def child_env():
    """Build the environment of a child ``python -m cvsim.cli``: this checkout's ``src`` ahead of any
    inherited ``PYTHONPATH``, which is kept, plus the given variables."""

    def build(**extra: str) -> dict[str, str]:
        inherited = os.environ.get("PYTHONPATH")
        path = os.pathsep.join((str(SRC), inherited)) if inherited else str(SRC)
        return {**os.environ, "PYTHONPATH": path, **extra}

    return build
