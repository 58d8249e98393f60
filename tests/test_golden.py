"""Byte-identity gate: every bundled scenario's behavioural artifacts, and
those of the benchmark's three generated corridors, match their recorded
SHA-256 digests, and a rerun in another process under another hash seed
writes the same bytes.

``report.txt`` and ``report.csv`` carry no digest: they may gain rows. The
digests are the ones the benchmark records in ``perfbench/digests.json``, so
both gates read one copy. The corridors come from the benchmark's generator,
``perfbench/corridor.py``, loaded read-only as the event-order gate loads it.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cvsim.config import SYSTEM_NODE_ID, bundled_scenario_names, parse_scenario
from cvsim.report import write_artifacts, write_bsm_trace
from cvsim.sim import run_scenario
from test_event_trace_golden import corridor_yaml

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
GOLDEN = DIGESTS["paper_scenarios"]
HASH_SEED_SCENARIO = "queue_mixed_penetration"
# The benchmark's generated runs at seed 1: corridor_yaml(n_vehicles, n_rsus, seed, t_end_s) and
# the digests recorded for that run's artifacts (for trace_replay, those of the run it replays).
CORRIDORS = {
    "corridor_fleet": ((100, 5, 1, 6.0), DIGESTS["corridor_fleet"]),
    "rsu_dense": ((20, 40, 1, 10.0), DIGESTS["rsu_dense"]),
    "trace_replay": ((100, 5, 1, 15.0), DIGESTS["trace_replay"]["input"]),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_golden(name, out_dir, digests):
    for artifact, digest in digests.items():
        assert sha256(out_dir / artifact) == digest, f"{name}: {artifact} digest changed"


def test_every_bundled_scenario_has_digests():
    assert sorted(GOLDEN) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, scenario_runs, tmp_path):
    write_artifacts(scenario_runs(name), tmp_path)
    assert_golden(name, tmp_path, GOLDEN[name])


@pytest.mark.parametrize("name", sorted(CORRIDORS))
def test_corridor_artifacts_match_the_benchmark_digests(name, tmp_path):
    args, digests = CORRIDORS[name]
    assert digests
    write_artifacts(run_scenario(parse_scenario(corridor_yaml(*args))), tmp_path)
    assert_golden(name, tmp_path, digests)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_one_pass_exports_equal_the_single_file_writers(name, scenario_runs, tmp_path):
    result = scenario_runs(name)
    write_artifacts(result, tmp_path / "one-pass")
    alone = tmp_path / "alone"
    alone.mkdir()
    result.archives[SYSTEM_NODE_ID].export_ndjson(str(alone / "archive.ndjson"))
    write_bsm_trace(result, alone / "trace.ndjson")
    for artifact in ("archive.ndjson", "trace.ndjson"):
        assert (tmp_path / "one-pass" / artifact).read_bytes() == (alone / artifact).read_bytes(), artifact


def test_byte_identical_across_processes_and_hash_seeds(tmp_path, child_env):
    dirs = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / f"hashseed-{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "cvsim.cli", "--scenario", HASH_SEED_SCENARIO, "--out-dir", str(out_dir)],
            env=child_env(PYTHONHASHSEED=hash_seed), cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        dirs.append(out_dir)
    first, second = dirs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for artifact in names:
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), artifact
    assert_golden(HASH_SEED_SCENARIO, first, GOLDEN[HASH_SEED_SCENARIO])
