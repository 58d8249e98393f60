"""Byte-identity gate for the two report renderings: every bundled scenario's ``report.txt`` and
``report.csv``, written once by ``conftest.run_case``, match ``data/report_digests.json``, which
``test_golden.py`` loads and re-records.
"""

import pytest

from cvsim.config import bundled_scenario_names
from test_golden import REPORTS, sha256


def test_every_bundled_scenario_has_report_digests():
    assert sorted(REPORTS) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_match_recorded_digests(name, run_case):
    out_dir, _ = run_case(name)
    for artifact, digest in REPORTS[name].items():
        assert sha256(out_dir / artifact) == digest, f"{name}: {artifact} digest changed"
