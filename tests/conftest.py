import pytest

from cvsim.config import load_scenario
from cvsim.sim import run_scenario


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
