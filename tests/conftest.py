import os
from pathlib import Path

import pytest

from cvsim.config import load_scenario
from cvsim.sim import run_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def scenario_runs():
    """Session cache of bundled scenario runs (each is deterministic anyway)."""
    cache = {}

    def run(name, seed=None):
        key = (name, seed)
        if key not in cache:
            config = load_scenario(name)
            if seed is not None:
                from dataclasses import replace

                config = replace(config, seed=seed)
            cache[key] = run_scenario(config)
        return cache[key]

    return run


@pytest.fixture
def child_env():
    """Build the environment of a child ``python -m cvsim.cli``: this checkout's ``src`` ahead of any
    inherited ``PYTHONPATH``, which is kept, plus the given variables."""

    def build(**extra: str) -> dict[str, str]:
        inherited = os.environ.get("PYTHONPATH")
        path = os.pathsep.join((str(SRC), inherited)) if inherited else str(SRC)
        return {**os.environ, "PYTHONPATH": path, **extra}

    return build
