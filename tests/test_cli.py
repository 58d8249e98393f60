import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvsim.cli import main

EXPECTED_ARTIFACTS = {
    "report.txt",
    "report.csv",
    "decisions.csv",
    "queue_decisions.csv",
    "handoffs.csv",
    "coverage.csv",
    "archive.ndjson",
    "trace.ndjson",
}


def test_run_writes_all_artifacts(tmp_path, capsys):
    rc = main(["--scenario", "collision_avoidance_20mph", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert {p.name for p in tmp_path.iterdir()} == EXPECTED_ARTIFACTS
    out = capsys.readouterr().out
    assert "collision_avoidance_20mph" in out


def test_run_reports_published_values(tmp_path):
    main(["--scenario", "collision_avoidance_20mph", "--out-dir", str(tmp_path)])
    rows = list(csv.DictReader((tmp_path / "decisions.csv").open()))
    cv2 = next(r for r in rows if r["vehicle"] == "cv2")
    assert cv2["verdict"] == "safe"
    assert cv2["link"] == "dsrc"
    assert cv2["latency_ms"] == "88"
    assert round(float(cv2["dmin_ft"])) == 38
    report = (tmp_path / "report.csv").read_text()
    assert "avoidance.cv2.dsrc,dmin_ft,38" in report
    assert "avoidance.cv2.dsrc,latency_ms,88" in report


def test_text_report_is_pure_rendering_of_csv_numbers(tmp_path):
    main(["--scenario", "queue_full_penetration", "--out-dir", str(tmp_path)])
    report_csv = list(csv.DictReader((tmp_path / "report.csv").open()))
    acc_row = next(r for r in report_csv if r["section"] == "queue.rsu1" and r["metric"] == "accuracy")
    assert float(acc_row["value"]) == 1.0
    text = (tmp_path / "report.txt").read_text()
    assert "accuracy 1.000000" in text


def test_format_flag_controls_report_renderings(tmp_path):
    main(["--scenario", "collision_avoidance_20mph", "--out-dir", str(tmp_path), "--format", "csv"])
    assert not (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").exists()


def test_seed_and_t_end_overrides(tmp_path):
    rc = main([
        "--scenario", "collision_avoidance_20mph",
        "--out-dir", str(tmp_path), "--seed", "99", "--t-end", "6",
    ])
    assert rc == 0
    report = (tmp_path / "report.csv").read_text()
    assert "run,seed,99" in report
    assert "run,t_end_ms,6000" in report


def test_same_seed_twice_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["--scenario", "queue_mixed_penetration", "--out-dir", str(a)])
    main(["--scenario", "queue_mixed_penetration", "--out-dir", str(b)])
    for name in EXPECTED_ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_invalid_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nt_end_s: -1\ncorridor:\n  polyline:\n    - [40.0, -75.0]\n    - [40.01, -75.0]\n")
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "t_end_s" in capsys.readouterr().err


POLYLINE = "corridor:\n  polyline:\n    - [40.0, -75.0]\n    - [40.01, -75.0]\n"


@pytest.mark.parametrize(
    "body,line,key",
    [
        ("t_end_s: .inf\n", 2, "t_end_s"),
        ("t_end_s: .nan\n", 2, "t_end_s"),
        ("t_end_s: 1.0\nconstants:\n  bsm_interval_s: 0.0001\n", 4, "bsm_interval_s"),
    ],
)
def test_boundary_values_exit_2_at_parse_time(tmp_path, capsys, body, line, key):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\n" + body + POLYLINE)
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{line}" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_end", ["inf", "nan", "1e-9"])
def test_non_finite_t_end_flag_exit_2(tmp_path, capsys, t_end):
    rc = main(["--scenario", "collision_avoidance_20mph", "--t-end", t_end, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--t-end" in capsys.readouterr().err


def test_unknown_bundled_name_exit_2(tmp_path, capsys):
    rc = main(["--scenario", "definitely_not_a_scenario", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bundled" in capsys.readouterr().err


def test_replay_mode_roundtrip(tmp_path, capsys):
    live_dir = tmp_path / "live"
    main(["--scenario", "queue_mixed_penetration", "--out-dir", str(live_dir)])
    capsys.readouterr()
    replay_dir = tmp_path / "replay"
    rc = main([
        "--trace", str(live_dir / "trace.ndjson"),
        "--scenario", "queue_mixed_penetration",
        "--out-dir", str(replay_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy: 0.131737" in out
    live_rows = list(csv.DictReader((live_dir / "queue_decisions.csv").open()))
    replay_rows = list(csv.DictReader((replay_dir / "queue_decisions.csv").open()))
    assert len(live_rows) == len(replay_rows)
    for lr, rr in zip(live_rows, replay_rows):
        for col in ("t_ms", "avg_speed_mph", "avg_gap_ft", "queued", "truth"):
            assert lr[col] == rr[col]


def test_replay_malformed_trace_exit_2(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    trace.write_text('{"t": 50, "vehicle_id": "v"}\n')
    rc = main(["--trace", str(trace), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert ":1" in capsys.readouterr().err


def test_replay_without_truth_omits_accuracy(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    doc = {"t": 950, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}
    trace.write_text(json.dumps(doc) + "\n")
    rc = main(["--trace", str(trace), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "accuracy: n/a" in capsys.readouterr().out


def test_event_trace_dump(tmp_path):
    dump = tmp_path / "events.log"
    main([
        "--scenario", "collision_avoidance_20mph",
        "--out-dir", str(tmp_path / "out"), "--event-trace", str(dump),
    ])
    lines = dump.read_text().splitlines()
    assert lines, "event trace should not be empty"
    t, kind, subject = lines[0].split(",", 2)
    assert t.isdigit() and kind
    kinds = {line.split(",", 2)[1] for line in lines}
    assert {"mobility-tick", "beacon", "radio-delivery", "app-timer"} <= kinds


def test_missing_mode_arguments_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_console_entrypoint_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cvsim.cli", "--scenario", "collision_avoidance_20mph",
         "--out-dir", "/tmp/cvsim_cli_test"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "events" in proc.stdout


def test_missing_trace_file_exit_2(tmp_path, capsys):
    rc = main(["--trace", str(tmp_path / "nope.ndjson"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_unreadable_config_path_exit_2(tmp_path, capsys):
    rc = main(["--scenario", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2


def test_runtime_abort_exit_1(tmp_path, capsys):
    # two vehicles on the same spot, one stopped and one at speed: the mover
    # cannot brake in zero gap, the ordering invariant trips, the run aborts
    bad = tmp_path / "crash.yaml"
    bad.write_text(
        "name: crash\n"
        "t_end_s: 5.0\n"
        "corridor:\n"
        "  polyline:\n"
        "    - [40.0, -75.0]\n"
        "    - [40.01, -75.0]\n"
        "vehicles:\n"
        "  - {id: a, s_m: 100.0, speed_mph: 0.0}\n"
        "  - {id: b, s_m: 100.0, speed_mph: 20.0}\n"
    )
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "aborted" in capsys.readouterr().err
