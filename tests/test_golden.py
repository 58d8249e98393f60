"""Byte-identity gate: every bundled scenario's behavioural artifacts match
their recorded SHA-256 digests, and a rerun in another process under another
hash seed writes the same bytes.

``report.txt`` and ``report.csv`` carry no digest: they may gain rows. The
digests are the ones the benchmark records for its ``paper_scenarios``
workload in ``perfbench/digests.json``, so both gates read one copy.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvsim.config import bundled_scenario_names
from cvsim.config import SYSTEM_NODE_ID
from cvsim.report import write_artifacts, write_bsm_trace

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "digests.json").read_text())["paper_scenarios"]
HASH_SEED_SCENARIO = "queue_mixed_penetration"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_golden(name, out_dir):
    for artifact, digest in GOLDEN[name].items():
        assert sha256(out_dir / artifact) == digest, f"{name}: {artifact} digest changed"


def test_every_bundled_scenario_has_digests():
    assert sorted(GOLDEN) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, scenario_runs, tmp_path):
    write_artifacts(scenario_runs(name), tmp_path)
    assert_golden(name, tmp_path)


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


def test_byte_identical_across_processes_and_hash_seeds(tmp_path):
    dirs = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / f"hashseed-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run(
            [sys.executable, "-m", "cvsim.cli", "--scenario", HASH_SEED_SCENARIO, "--out-dir", str(out_dir)],
            env=env, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        dirs.append(out_dir)
    first, second = dirs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for artifact in names:
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), artifact
    assert_golden(HASH_SEED_SCENARIO, first)
