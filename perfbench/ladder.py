"""Ad-hoc scale ladder: host time of synthetic corridor runs at several sizes.

    python3 perfbench/ladder.py 10x1 50x5 100x5 200x10 --sim-seconds 60 --seed 1

Each point is ``<vehicles>x<RSUs>``, one run each, in this process. Prints
set-up and wall time (run plus artifacts) per point, and for each point the
wall-time ratio to the previous one, which reads as the cost of doubling the
fleet when consecutive points double it. Nothing here is gated; the gated
workloads are those in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import sys

from run import ROOT, bootstrap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="+", metavar="NxR")
    parser.add_argument("--sim-seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bootstrap()
    from corridor import corridor_yaml
    from workloads import run_live

    previous = None
    for point in args.points:
        n_vehicles, n_rsus = (int(x) for x in point.lower().split("x"))
        name = f"ladder_{n_vehicles}x{n_rsus}"
        text = corridor_yaml(n_vehicles, n_rsus, args.seed, args.sim_seconds)
        gc.collect()
        setup_s, wall_s, result = run_live(text, name, ROOT / "perfbench" / "out" / name)
        ratio = "" if previous is None else f"  x{wall_s / previous:.2f} vs previous"
        print(f"{point:>8}: setup {setup_s:.3f} s  wall {wall_s:.3f} s  "
              f"{result.summary.events_processed} events  {len(result.packets)} packets{ratio}")
        previous = wall_s
    return 0


if __name__ == "__main__":
    sys.exit(main())
