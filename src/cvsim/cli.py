"""Command-line entry point: scenario runs and offline trace replay.

Exit codes: 0 clean run, 1 runtime abort inside the simulation, 2 invalid or
unreadable configuration or trace input: one ``error: <file>[:<line>]: <message>``
line on stderr, and nothing written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from .archive import open_text
from .config import ScenarioConfig, bundled_scenario_names, load_scenario, seconds_to_ms
from .core import InputError
from .engine import SimulationAborted
from .replay import parse_trace, replay_trace, write_replay_csv
from .report import write_artifacts
from .sim import Simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsim",
        description=(
            "Deterministic connected-vehicle corridor simulator. "
            "Run a scenario, or replay an exported telemetry trace with --trace."
        ),
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE_OR_NAME",
        help="scenario config file, or a bundled scenario name "
        f"(bundled: {', '.join(bundled_scenario_names()) or 'none'})",
    )
    parser.add_argument("--seed", type=int, metavar="U64", help="override the scenario seed")
    parser.add_argument("--t-end", type=float, metavar="SECONDS", help="override the run length")
    parser.add_argument("--out-dir", default="out", metavar="DIR", help="artifact directory")
    parser.add_argument("--trace", metavar="FILE", help="replay this telemetry trace instead of running")
    parser.add_argument("--event-trace", metavar="FILE",
                        help="also write the engine event trace, one line per event as it fires")
    return parser


def _t_end_ms(args: argparse.Namespace) -> int | None:
    return None if args.t_end is None else seconds_to_ms(args.t_end, "--t-end", True, "<cli>", None)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario with the ``--seed`` and ``--t-end`` overrides applied."""
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.t_end is not None:
        config = replace(config, t_end_ms=_t_end_ms(args))
    return config


def _out_dir(args: argparse.Namespace) -> Path:
    """``--out-dir``, made before anything is written into it or beside it."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory: {exc}", args.out_dir) from None
    return out_dir


def _run(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = _out_dir(args)
    # Opened before the run, so an aborted run leaves the trace up to the event that raised;
    # its directory is made first, as ``--out-dir`` is.
    trace = nullcontext()
    if args.event_trace is not None:
        Path(args.event_trace).parent.mkdir(parents=True, exist_ok=True)
        trace = open_text(args.event_trace)
    with trace as sink:
        result = Simulation(config, trace=sink).run()
    written = write_artifacts(result, out_dir)
    print(f"scenario {config.name}: {result.summary.events_processed} events, "
          f"clock {result.summary.end_time_ms} ms")
    for name in sorted(written):
        print(f"  wrote {written[name]}")
    acc = result.queue_accuracy()
    if acc is not None:
        print(f"  queue detection accuracy: {acc:.6f}")
    return 0


def _replay(args: argparse.Namespace) -> int:
    corridor = constants = None
    if args.scenario:
        config = _load(args)
        corridor, constants, t_end_ms = config.corridor, config.constants, config.t_end_ms
    else:
        t_end_ms = _t_end_ms(args)
    t_end_name = "the scenario's t_end" if args.t_end is None else "the --t-end limit"
    records = parse_trace(args.trace, t_end_ms, t_end_name)
    result = replay_trace(records, constants=constants, corridor=corridor)
    path = _out_dir(args) / "queue_decisions.csv"
    write_replay_csv(result, path)
    print(f"replayed {len(records)} records into {len(result.decisions)} decisions")
    print(f"  wrote {path}")
    if result.accuracy is not None:
        print(f"  accuracy: {result.accuracy:.6f}")
    else:
        print("  accuracy: n/a (trace carries no ground truth)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.trace and not args.scenario:
        parser.error("either --scenario or --trace is required")
    if args.trace and args.event_trace:
        parser.error("--event-trace records a scenario run; replay with --trace has no event trace")
    if args.trace and args.seed is not None:
        parser.error("--seed seeds a scenario run; replay with --trace draws no random numbers")
    try:
        if args.trace:
            return _replay(args)
        return _run(args)
    except (InputError, OSError) as exc:  # an OSError here is an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
