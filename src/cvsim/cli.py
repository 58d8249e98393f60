"""Command-line entry point: scenario runs and offline trace replay.

Exit codes: 0 clean run, 1 runtime abort inside the simulation, 2 invalid
configuration or trace input (diagnostics carry file and line).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, bundled_scenario_names, load_scenario
from .engine import SimulationAborted
from .replay import TraceError, parse_trace, replay_trace, write_replay_csv
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
    parser.add_argument("--format", choices=["text", "csv", "both"], default="both",
                        help="metrics report rendering(s) to write")
    parser.add_argument("--trace", metavar="FILE", help="replay this telemetry trace instead of running")
    parser.add_argument("--event-trace", metavar="FILE", help="also dump the engine event trace")
    return parser


def _run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None or args.t_end is not None:
        from dataclasses import replace

        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.t_end is not None:
            if not (math.isfinite(args.t_end) and args.t_end > 0):
                raise ConfigError(f"--t-end must be positive and finite, got {args.t_end}", source="<cli>")
            kwargs["t_end_ms"] = int(round(args.t_end * 1000))
        config = replace(config, **kwargs)
    sim = Simulation(config, trace=args.event_trace is not None)
    result = sim.run()
    out_dir = Path(args.out_dir)
    written = write_artifacts(result, out_dir, fmt=args.format)
    if args.event_trace:
        sim.engine.dump_trace(args.event_trace)
    print(f"scenario {config.name}: {result.summary.events_processed} events, "
          f"clock {result.summary.end_time_ms} ms")
    for name in sorted(written):
        print(f"  wrote {written[name]}")
    acc = result.queue_accuracy()
    if acc is not None:
        print(f"  queue detection accuracy: {acc:.6f}")
    return 0


def _replay(args: argparse.Namespace) -> int:
    records = parse_trace(args.trace)
    corridor = None
    constants = None
    if args.scenario:
        config = load_scenario(args.scenario)
        corridor = config.corridor
        constants = config.constants
    result = replay_trace(records, constants=constants, corridor=corridor)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "queue_decisions.csv"
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
    try:
        if args.trace:
            return _replay(args)
        return _run(args)
    except (ConfigError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
