"""The benchmark's workloads: inputs made from the seed, one operation, its checks.

Every operation goes through cvsim's public entry points, as the ``cvsim``
command does: scenario text -> ``config`` -> ``sim.Simulation(...).run()`` ->
``report.write_artifacts``, or ``replay.parse_trace`` -> ``replay_trace`` ->
``write_replay_csv``. Modules are called through their attributes at call
time so that the traced run's wrappers take effect.

``setup_s`` times scenario text to a built simulation; ``wall_s`` times the
rest of the operation. Inputs are generated before any timing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from cvsim import config, replay, report, sim

import checks
from corridor import corridor_yaml

DEFAULT_SEED = 1
# Rerun in two processes under different hash seeds by the determinism check.
DETERMINISM_SCENARIO = "queue_mixed_penetration"
HASH_SEEDS = ("1", "2")


@dataclass
class Op:
    """One finished operation: its two host times and what it produced."""

    setup_s: float
    wall_s: float
    # (name, artifact directory, RunResult or ReplayResult) per run in the operation.
    outputs: list[tuple[str, Path, object]] = field(default_factory=list)
    # Reference over measured calibration-kernel seconds around the operation.
    speed: float = 1.0
    # Span aggregates and counters, when the operation was traced.
    trace: tuple[dict, dict] | None = None


def run_cvsim(root: Path, scenario: str, out_dir: Path, hash_seed: str | None = None) -> None:
    """Run the ``cvsim`` command in a child process and wait for it."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, "-m", "cvsim.cli", "--scenario", scenario, "--out-dir", str(out_dir)],
        env=env, cwd=root, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )


def run_live(scenario_text: str | None, name: str, out_dir: Path) -> tuple[float, float, object]:
    """Parse (or load a bundled scenario), build, run and write artifacts."""
    t0 = time.perf_counter()
    if scenario_text is None:
        cfg = config.load_scenario(name)
    else:
        cfg = config.parse_scenario(scenario_text, source=f"{name}.yaml")
    simulation = sim.Simulation(cfg)
    t1 = time.perf_counter()
    result = simulation.run()
    report.write_artifacts(result, out_dir)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, result


# Traced metrics that read 0 on a live workload only if a wrapper did not take,
# such as a function imported by name and replaced only where it is defined.
LIVE_ENTERED = (
    "config.parse_s", "sim.build_s", "sim.run_s", "engine.events",
    *(f"event.{handler}_calls" for handler in (
        "mobility-tick", "beacon", "bsm-round", "radio-delivery",
        "handoff-check", "detector-tick", "archive-prune",
    )),
    "broker.publishes", "broker.subs_scanned",
    "radio.range_checks", "radio.samples", "radio.delivered", "core.distance_calls",
    "mobility.position_geo_calls", "handoff.on_beacon_calls", "handoff.on_tick_calls",
    "archive.appends", "archive.count_calls", "apps.detect_queue_calls",
    "report.write_artifacts_s", "report.link_stats_calls", "report.csv_s",
)


class Workload:
    """One workload; ``BENCHMARK.json`` records why each was chosen."""

    name = ""
    # Per-layer metrics that must not read 0 in a traced run of this workload.
    entered: tuple[str, ...] = ()

    def __init__(self, root: Path, out: Path, seed: int, digests: dict):
        self.root = root
        self.out = out
        self.seed = seed
        self.expected = digests.get(self.name, {})

    def prepare(self) -> None:
        """Make this seed's inputs; nothing here is timed."""

    def operate(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def digests(self, op: Op) -> dict:
        raise NotImplementedError

    def self_check(self) -> list[str]:
        """Checks made once per run, after the measured operations."""
        return []


class PaperScenarios(Workload):
    name = "paper_scenarios"
    entered = LIVE_ENTERED + ("apps.decide_avoidance_calls",)

    def operate(self) -> Op:
        op = Op(0.0, 0.0)
        for name in config.bundled_scenario_names():
            out_dir = self.out / name
            setup_s, wall_s, result = run_live(None, name, out_dir)
            op.setup_s += setup_s
            op.wall_s += wall_s
            op.outputs.append((name, out_dir, result))
        return op

    def check(self, op: Op) -> list[str]:
        errors = []
        names = [name for name, _, _ in op.outputs]
        if sorted(names) != sorted(self.expected):
            errors.append(f"bundled scenarios {names} differ from the recorded {sorted(self.expected)}")
        for name, out_dir, result in op.outputs:
            errors += checks.compare_digests(name, out_dir, self.expected.get(name, {}))
            errors += checks.live_invariants(name, out_dir, result)
        errors += checks.paper_figures({name: out_dir for name, out_dir, _ in op.outputs})
        return errors

    def digests(self, op: Op) -> dict:
        return {name: checks.artifact_digests(out_dir) for name, out_dir, _ in op.outputs}

    def self_check(self) -> list[str]:
        """Rerun one scenario in two processes under different hash seeds."""
        dirs = [self.out / "determinism" / f"hashseed-{h}" for h in HASH_SEEDS]
        try:
            for h, out_dir in zip(HASH_SEEDS, dirs):
                run_cvsim(self.root, DETERMINISM_SCENARIO, out_dir, hash_seed=h)
        except (subprocess.SubprocessError, OSError) as exc:
            return [f"determinism: cvsim failed in a child process: {exc}"]
        return checks.determinism(dirs, self.expected[DETERMINISM_SCENARIO])


class Corridor(Workload):
    """A synthetic corridor at one ladder point; the seed makes the YAML text."""

    n_vehicles = 0
    n_rsus = 0
    t_end_s = 0.0
    entered = LIVE_ENTERED

    def prepare(self) -> None:
        self.text = corridor_yaml(self.n_vehicles, self.n_rsus, self.seed, self.t_end_s)

    def operate(self) -> Op:
        out_dir = self.out / "artifacts"
        setup_s, wall_s, result = run_live(self.text, self.name, out_dir)
        return Op(setup_s, wall_s, [(self.name, out_dir, result)])

    def check(self, op: Op) -> list[str]:
        (name, out_dir, result), = op.outputs
        errors = checks.live_invariants(name, out_dir, result)
        if self.seed == DEFAULT_SEED:
            errors += checks.compare_digests(name, out_dir, self.expected)
        return errors

    def digests(self, op: Op) -> dict:
        (_, out_dir, _), = op.outputs
        return checks.artifact_digests(out_dir)


class CorridorFleet(Corridor):
    name = "corridor_fleet"
    n_vehicles, n_rsus, t_end_s = 100, 5, 6.0


class RsuDense(Corridor):
    name = "rsu_dense"
    n_vehicles, n_rsus, t_end_s = 20, 40, 10.0


class TraceReplay(Workload):
    name = "trace_replay"
    entered = (
        "config.parse_s", "replay.records", "replay.parse_s", "replay.replay_s",
        "replay.write_s", "apps.detect_queue_calls", "report.csv_s",
    )
    n_vehicles, n_rsus, t_end_s = 100, 5, 15.0

    def prepare(self) -> None:
        """Export the trace from a live corridor run in a child process.

        The child keeps the live run's memory out of this process's peak.
        """
        self.input_dir = self.out / "input"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.input_dir / "corridor.yaml"
        self.scenario.write_text(
            corridor_yaml(self.n_vehicles, self.n_rsus, self.seed, self.t_end_s), encoding="utf-8"
        )
        run_cvsim(self.root, str(self.scenario), self.input_dir)
        self.trace = self.input_dir / "trace.ndjson"
        self.trace_seconds = checks.trace_seconds(self.trace)

    def operate(self) -> Op:
        out_dir = self.out / "replay"
        t0 = time.perf_counter()
        cfg = config.load_scenario(str(self.scenario))
        t1 = time.perf_counter()
        records = replay.parse_trace(self.trace)
        result = replay.replay_trace(records, constants=cfg.constants, corridor=cfg.corridor)
        out_dir.mkdir(parents=True, exist_ok=True)
        replay.write_replay_csv(result, out_dir / "queue_decisions.csv")
        t2 = time.perf_counter()
        return Op(t1 - t0, t2 - t1, [(self.name, out_dir, result)])

    def check(self, op: Op) -> list[str]:
        (name, out_dir, result), = op.outputs
        errors = checks.replay_invariants(self.trace_seconds, out_dir / "queue_decisions.csv", result)
        if self.seed == DEFAULT_SEED:
            errors += checks.compare_digests(name, out_dir, self.expected.get("replay", {}))
        return errors

    def self_check(self) -> list[str]:
        """The exported input trace, checked once: it is the same for every operation."""
        if self.seed != DEFAULT_SEED:
            return []
        return checks.compare_digests(f"{self.name} input", self.input_dir, self.expected.get("input", {}))

    def digests(self, op: Op) -> dict:
        (_, out_dir, _), = op.outputs
        return {
            "input": checks.artifact_digests(self.input_dir),
            "replay": checks.artifact_digests(out_dir),
        }


WORKLOADS = {w.name: w for w in (PaperScenarios, CorridorFleet, RsuDense, TraceReplay)}


def make_workload(name: str, root: Path, seed: int, digests: dict) -> Workload:
    out = root / "perfbench" / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return WORKLOADS[name](root, out, seed, digests)
