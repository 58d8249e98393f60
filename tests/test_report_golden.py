"""Byte-identity gate for the two report renderings: every bundled scenario's
``report.txt`` and ``report.csv`` match their recorded SHA-256 digests.

``test_golden.py`` pins the behavioural artifacts; this file pins the reports,
which are rendered from one computed summary of the run. A later change that
adds report rows on purpose (ROADMAP item 3, the per-link breakdown) re-pins
``data/report_digests.json`` and gives the reason in ``CHANGES.md``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cvsim.config import bundled_scenario_names
from cvsim.report import write_artifacts

DIGESTS = json.loads((Path(__file__).parent / "data" / "report_digests.json").read_text())


def test_every_bundled_scenario_has_report_digests():
    assert sorted(DIGESTS) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_reports_match_recorded_digests(name, scenario_runs, tmp_path):
    write_artifacts(scenario_runs(name), tmp_path)
    for artifact, digest in DIGESTS[name].items():
        actual = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert actual == digest, f"{name}: {artifact} digest changed"
