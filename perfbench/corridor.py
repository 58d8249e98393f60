"""Synthetic corridor scenarios for the benchmark, emitted as scenario YAML.

The shape follows the scale ladder: a straight 5 km corridor running due
north, ``n_vehicles`` connected vehicles at 30 mph spread evenly over the first
60 % of it, ``n_rsus`` roadside units spread evenly along it, one signal at
90 % that turns red 5 s into the run, and 2 % near-range short-range loss.
Every vehicle subscribes to the region warning topic on the backend broker.

The seed sets the scenario seed (every random stream of the run) and jitters
each spawn position by at most 2 m, so two seeds give two different inputs
of the same size. The text goes through ``cvsim.config.parse_scenario``; the
program never sees anything but this YAML.
"""

from __future__ import annotations

import math
import random

LENGTH_M = 5000.0
# Metres per degree of latitude on the simulator's spherical Earth.
DEG_TO_M = math.pi / 180.0 * 6_371_000.0
ORIGIN = (40.0, -75.0)
SPEED_MPH = 30.0
SPREAD_FRAC = 0.6
SIGNAL_FRAC = 0.9
JITTER_M = 2.0


def corridor_yaml(n_vehicles: int, n_rsus: int, seed: int, t_end_s: float) -> str:
    """Scenario text for an ``n_vehicles`` x ``n_rsus`` corridor run of ``t_end_s``."""
    if n_vehicles < 1 or n_rsus < 1 or t_end_s <= 0:
        raise ValueError("need at least one vehicle, one RSU and a positive run length")
    rng = random.Random(seed)
    lat0, lon0 = ORIGIN
    spacing = SPREAD_FRAC * LENGTH_M / n_vehicles
    lines = [
        f"name: corridor_{n_vehicles}x{n_rsus}",
        f"description: synthetic {LENGTH_M / 1000:g} km corridor, {n_vehicles} vehicles, {n_rsus} RSUs",
        f"seed: {seed}",
        f"t_end_s: {t_end_s!r}",
        "corridor:",
        "  polyline:",
        f"    - [{lat0!r}, {lon0!r}]",
        f"    - [{lat0 + LENGTH_M / DEG_TO_M!r}, {lon0!r}]",
        "  signals:",
        "    - id: sig1",
        f"      s_m: {SIGNAL_FRAC * LENGTH_M!r}",
        "  rsus:",
    ]
    for j in range(n_rsus):
        lines += [f"    - id: rsu{j + 1}", f"      s_m: {LENGTH_M * (j + 0.5) / n_rsus!r}"]
    # RSU archives keep a third of the run, so pruning drops records in any run length.
    lines += ["archive:", f"  fixed_edge_retention_s: {t_end_s / 3!r}"]
    lines += ["links:", "  dsrc:", "    p_near: 0.02", "vehicles:"]
    # Front vehicle first; the jitter never exceeds a tenth of the spacing.
    jitter = min(JITTER_M, spacing / 10.0)
    for i in range(n_vehicles):
        s_m = spacing * (n_vehicles - 1 - i) + rng.uniform(-jitter, jitter)
        lines += [
            f"  - id: cv{i + 1:04d}",
            f"    s_m: {round(max(0.0, s_m), 3)!r}",
            f"    speed_mph: {SPEED_MPH!r}",
        ]
    lines += [
        "script:",
        "  - at_s: 5.0",
        "    action: signal_red",
        "    signal: sig1",
        "    duration_s: 60.0",
    ]
    return "\n".join(lines) + "\n"
