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


def csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_all_artifacts(tmp_path, capsys):
    rc = main(["--scenario", "collision_avoidance_20mph", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert {p.name for p in tmp_path.iterdir()} == EXPECTED_ARTIFACTS
    out = capsys.readouterr().out
    assert "collision_avoidance_20mph" in out


def test_run_reports_published_values(tmp_path):
    main(["--scenario", "collision_avoidance_20mph", "--out-dir", str(tmp_path)])
    rows = csv_rows(tmp_path / "decisions.csv")
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
    report_csv = csv_rows(tmp_path / "report.csv")
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


# Two vehicles on the same spot, one stopped and one at speed: the mover
# cannot brake in zero gap, the ordering invariant trips, the run aborts.
CRASH_YAML = (
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
POLYLINE = "corridor:\n  polyline:\n    - [40.0, -75.0]\n    - [40.01, -75.0]\n"


@pytest.mark.parametrize(
    "body,line,key",
    [
        ("t_end_s: .inf\n", 2, "t_end_s"),
        ("t_end_s: .nan\n", 2, "t_end_s"),
        ("t_end_s: 1.0\nconstants:\n  bsm_interval_s: 0.0001\n", 4, "bsm_interval_s"),
        ("t_end_s: 1.0\nregion: \"a+b\"\n", 3, "region 'a+b' cannot form a topic"),
        ("t_end_s: 1.0\nregion: a//b\n", 3, "region 'a//b' cannot form a topic"),
        ("t_end_s: !foo 1.0\n", 2, "cannot read '1.0' as !foo"),
        (
            "t_end_s: 1.0\nlinks:\n  dsrc: {latency_mean_ms: 0, warning_latency_ms: -500}\n",
            4,
            "latency_mean_ms must be at least 1 ms, got 0",
        ),
        ("t_end_s: 1.0\nlinks:\n  lte:\n    warning_latency_ms: -500\n", 4, "warning_latency_mean_ms must be at least 1 ms"),
        ("t_end_s: 1.0\nlinks:\n  wifi:\n    warning_latency_ms: 0\n", 4, "warning_latency_mean_ms must be at least 1 ms"),
        ("t_end_s: 1.0\nconstants:\n  decel_fps2: 1.0e-320\n", 3, "no finite braking distance from 100 m/s"),
        ("t_end_s: 1.0\nconstants:\n  decel_fps2: .inf\n", 3, "decel_mps2 must be positive and finite, got inf"),
        ("t_end_s: 1.0\nconstants:\n  queue_gap_threshold_ft: .inf\n", 3, "queue_gap_threshold_m must be positive and finite"),
        (
            "t_end_s: 1.0\nconstants:\n  queue_speed_threshold_mph: .inf\n",
            3,
            "queue_speed_threshold_mps must be positive and finite",
        ),
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


@pytest.mark.parametrize("point", ['["40.01", -75.0]', "[40.01, true]"])
def test_polyline_coordinate_that_is_not_a_number_exit_2(tmp_path, capsys, point):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nt_end_s: 1.0\n" + POLYLINE.replace("[40.01, -75.0]", point))
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.yaml:6" in err and "polyline coordinates must be numbers" in err
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
    live_rows = csv_rows(live_dir / "queue_decisions.csv")
    replay_rows = csv_rows(replay_dir / "queue_decisions.csv")
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


@pytest.mark.parametrize(
    "data,line",
    [(b"\xff\xfe{}\n", 1), (b'{"t": 950, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}\n\n{"t": 9\xe9}\n', 3)],
)
def test_replay_trace_that_is_not_utf8_exit_2(tmp_path, capsys, data, line):
    trace = tmp_path / "t.ndjson"
    trace.write_bytes(data)
    rc = main(["--trace", str(trace), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"t.ndjson:{line}: not UTF-8" in err
    assert not (tmp_path / "out").exists()


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


def test_aborted_run_leaves_the_event_trace_up_to_the_aborting_event(tmp_path, capsys):
    bad = tmp_path / "crash.yaml"
    bad.write_text(CRASH_YAML)
    dump = tmp_path / "events.log"
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out"), "--event-trace", str(dump)])
    assert rc == 1
    err = capsys.readouterr().err
    t, kind, subject = dump.read_text().splitlines()[-1].split(",", 2)
    assert f"event kind={kind!r} subject={subject!r} at t={t} raised" in err


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


@pytest.mark.parametrize("with_trace", [False, True])
def test_scenario_that_is_not_utf8_exit_2(tmp_path, capsys, with_trace):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: x\n\xff\n" + POLYLINE.encode())
    args = ["--scenario", str(bad), "--out-dir", str(tmp_path / "out")]
    if with_trace:
        trace = tmp_path / "t.ndjson"
        trace.write_text(json.dumps({"t": 950, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}) + "\n")
        args += ["--trace", str(trace)]
    rc = main(args)
    assert rc == 2
    assert "bad.yaml:2: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_runtime_abort_exit_1(tmp_path, capsys):
    bad = tmp_path / "crash.yaml"
    bad.write_text(CRASH_YAML)
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "aborted" in capsys.readouterr().err


def test_hard_brake_before_spawn_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: x\nt_end_s: 5.0\n" + POLYLINE
        + "vehicles:\n  - {id: cv1, s_m: 10.0, speed_mph: 20.0, spawn_t_s: 2.0}\n"
        + "script:\n  - {at_s: 1.0, action: hard_brake, vehicle: cv1}\n"
    )
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.yaml:10" in err and "precedes the spawn of 'cv1'" in err
    assert not (tmp_path / "out").exists()


def test_script_spawn_time_in_vehicle_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: x\nt_end_s: 5.0\n" + POLYLINE
        + "vehicles:\n  - {id: cv1, s_m: 10.0, speed_mph: 20.0}\n"
        + "script:\n"
        + "  - at_s: 1.0\n    action: spawn\n"
        + "    vehicle_spec: {id: cv2, s_m: 5.0, speed_mph: 20.0, spawn_t_s: 30.0}\n"
    )
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.yaml:12" in err and "spawn_t_s is not allowed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rsus,line,message",
    [
        ("    - {id: rsu1, s_m: 100.0}\n    - {id: rsu1, s_m: 900.0}\n", 9, "duplicate RSU id 'rsu1'"),
        ("    - {id: system, s_m: 100.0}\n", 8, "RSU id 'system' is reserved"),
        ("    - {id: rsu1, s_m: 100.0}\n    - {id: \"r#1\", s_m: 900.0}\n", 9, "id 'r#1' cannot form a topic"),
    ],
)
def test_bad_rsu_id_exit_2(tmp_path, capsys, rsus, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nt_end_s: 5.0\n" + POLYLINE + "  rsus:\n" + rsus)
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{line}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "tail,line,message",
    [
        ("vehicles:\n  - {id: \"c+v\", s_m: 10.0, speed_mph: 20.0}\n", 8, "id 'c+v' cannot form a topic"),
        (
            "script:\n  - {at_s: 0, action: spawn, vehicle_spec: {id: cv2, s_m: 1.0e+9, speed_mph: 20.0}}\n",
            8,
            "vehicle 'cv2' spawns outside the corridor",
        ),
        (
            "script:\n  - {at_s: 1.0, action: spawn, vehicle_spec: {id: cv2, s_m: 1.0e+9, speed_mph: 20.0}}\n",
            8,
            "vehicle 'cv2' spawns outside the corridor",
        ),
    ],
)
def test_bad_spawn_exit_2(tmp_path, capsys, tail, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nt_end_s: 5.0\n" + POLYLINE + tail)
    rc = main(["--scenario", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{line}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "t,with_scenario,message",
    [(5001, True, "past the scenario's t_end of 5000 ms"), (10**12, False, "past the replay ceiling")],
)
def test_replay_time_past_its_limit_exit_2(tmp_path, capsys, t, with_scenario, message):
    trace = tmp_path / "t.ndjson"
    doc = {"t": t, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}
    trace.write_text(json.dumps({**doc, "t": 50}) + "\n" + json.dumps(doc) + "\n")
    scenario = tmp_path / "s.yaml"
    scenario.write_text("name: x\nt_end_s: 5.0\n" + POLYLINE)
    argv = ["--trace", str(trace), "--out-dir", str(tmp_path / "out")]
    rc = main(argv + (["--scenario", str(scenario)] if with_scenario else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{trace}:2" in err and message in err
    assert not (tmp_path / "out").exists()


def test_replay_honours_the_t_end_flag(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    doc = {"t": 5001, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}
    trace.write_text(json.dumps(doc) + "\n")
    scenario = tmp_path / "s.yaml"
    scenario.write_text("name: x\nt_end_s: 5.0\n" + POLYLINE)
    rc = main(["--trace", str(trace), "--scenario", str(scenario), "--t-end", "6", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "replayed 1 records into 6 decisions" in capsys.readouterr().out


def test_replay_without_a_scenario_honours_the_t_end_flag(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    doc = {"t": 9000, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}
    trace.write_text(json.dumps({**doc, "t": 50}) + "\n" + json.dumps(doc) + "\n")
    rc = main(["--trace", str(trace), "--t-end", "5", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{trace}:2" in err and "t=9000 ms is past" in err and "of 5000 ms" in err
    assert not (tmp_path / "out").exists()


def test_event_trace_with_replay_is_a_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    trace.write_text(json.dumps({"t": 50, "vehicle_id": "v", "lat": 40.0, "lon": -75.0, "speed": 0.0}) + "\n")
    dump = tmp_path / "events.log"
    with pytest.raises(SystemExit) as err:
        main(["--trace", str(trace), "--event-trace", str(dump), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "--event-trace" in capsys.readouterr().err
    assert not dump.exists() and not (tmp_path / "out").exists()
