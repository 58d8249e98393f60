"""The golden gate. Each case runs once, with an event trace that keeps only its SHA-256, and
writes its artifacts once (``conftest.run_case``); that run must pass ``sim.check_run`` and match
every digest recorded for it. This module checks ``perfbench/digests.json`` (the behavioural
artifacts, and ``trace_replay``'s replay of its ``trace.ndjson``; only
``perfbench/record_digests.py`` writes it) and loads the two ``data`` files, whose checks from the
same run are ``test_report_golden.py`` (``report.txt``, ``report.csv``) and
``test_event_trace_golden.py`` (the event trace). The cases are the bundled scenarios, from
``conftest.py``'s session cache, and the benchmark's seed-1 corridors from
``perfbench/corridor.py``, loaded read-only. Re-record both ``data`` files with
``PYTHONPATH=src python tests/test_golden.py`` after a change that moves reports or events on
purpose, and say why in ``CHANGES.md``.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CORRIDORS, ROOT, config_of, run_traced
from cvsim.config import SYSTEM_NODE_ID, bundled_scenario_names
from cvsim.report import ARTIFACTS, write_artifacts, write_bsm_trace

DATA = Path(__file__).parent / "data"
REPORTS_PATH, EVENTS_PATH = DATA / "report_digests.json", DATA / "event_trace_digests.json"
BENCH = json.loads((ROOT / "perfbench" / "digests.json").read_text())
GOLDEN = BENCH["paper_scenarios"]
REPORTS, EVENTS = (json.loads(path.read_text()) for path in (REPORTS_PATH, EVENTS_PATH))
HASH_SEED_SCENARIO = "queue_mixed_penetration"
# Each event-trace digest's key and the case whose run it pins; trace_replay has none.
EVENT_CASES = {name: name for name in bundled_scenario_names()}
EVENT_CASES |= {"corridor_100x5": "corridor_fleet", "corridor_20x40": "rsu_dense"}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded(name):
    """The benchmark's digests for case ``name``, by artifact path in its directory."""
    if name == "trace_replay":
        return BENCH[name]["input"] | {f"replay/{a}": digest for a, digest in BENCH[name]["replay"].items()}
    return GOLDEN.get(name) or BENCH[name]


def assert_recorded(name, out_dir, digests):
    for artifact, digest in digests.items():
        assert sha256(out_dir / artifact) == digest, f"{name}: {artifact} digest changed"


def test_every_bundled_scenario_has_digests():
    """Every bundled scenario has benchmark digests, which with its report digests cover every
    artifact, and every benchmark key has a case."""
    assert sorted(GOLDEN) == sorted(bundled_scenario_names())
    for name in GOLDEN:
        assert sorted(GOLDEN[name].keys() | REPORTS[name].keys()) == sorted(ARTIFACTS), name
    assert sorted(BENCH) == sorted(["paper_scenarios", *CORRIDORS])
    assert sorted(BENCH["trace_replay"]) == ["input", "replay"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, run_case):
    out_dir, _ = run_case(name)
    assert_recorded(name, out_dir, recorded(name))


@pytest.mark.parametrize("name", sorted(CORRIDORS))
def test_corridor_artifacts_match_the_benchmark_digests(name, run_case):
    out_dir, _ = run_case(name)
    assert_recorded(name, out_dir, recorded(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_one_pass_exports_equal_the_single_file_writers(name, run_case, scenario_runs, tmp_path):
    out_dir, _ = run_case(name)
    result = scenario_runs(name)
    result.archives[SYSTEM_NODE_ID].export_ndjson(str(tmp_path / "archive.ndjson"))
    write_bsm_trace(result, tmp_path / "trace.ndjson")
    for artifact in ("archive.ndjson", "trace.ndjson"):
        assert (out_dir / artifact).read_bytes() == (tmp_path / artifact).read_bytes(), artifact


def test_byte_identical_across_processes_and_hash_seeds(tmp_path, child_env):
    """``cvsim`` in two processes under two hash seeds writes the recorded bytes and event trace each time."""
    for hash_seed in ("1", "2"):
        out_dir, events = tmp_path / f"hashseed-{hash_seed}", tmp_path / f"events-{hash_seed}.log"
        subprocess.run(
            [sys.executable, "-m", "cvsim.cli", "--scenario", HASH_SEED_SCENARIO, "--out-dir", str(out_dir),
             "--event-trace", str(events)],
            env=child_env(PYTHONHASHSEED=hash_seed), cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACTS)
        assert_recorded(HASH_SEED_SCENARIO, out_dir, recorded(HASH_SEED_SCENARIO) | REPORTS[HASH_SEED_SCENARIO])
        assert sha256(events) == EVENTS[HASH_SEED_SCENARIO]


if __name__ == "__main__":
    reports, events = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, name in EVENT_CASES.items():
            result, events[key] = run_traced(config_of(name))
            if name not in CORRIDORS:
                written = write_artifacts(result, Path(tmp) / name)
                reports[name] = {artifact: sha256(written[artifact]) for artifact in ("report.csv", "report.txt")}
    for path, digests in ((REPORTS_PATH, reports), (EVENTS_PATH, events)):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(reports)} report and {len(events)} event-trace digest sets in {DATA}")
