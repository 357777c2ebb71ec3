import os
import random

import pytest

from . import helpers


@pytest.fixture(scope="session")
def corpus():
    """1000 seeded (cactus, divisor) pairs shared by the acceptance tests.

    Small enough for the brute-force oracle: at most 10 vertices, genus at
    most 3, entries in [-4, 6] with total degree capped at 7 (the oracle
    refuses rank searches past 8)."""
    rng = random.Random(0xC0FFEE)
    out = []
    for _ in range(1000):
        g = helpers.random_cactus(rng, max_n=10, max_genus=3)
        f = helpers.random_divisor(rng, g.n, lo=-4, hi=6, max_deg=7)
        out.append((g, f))
    return out


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Fails a test that leaves a child process behind, running or unreaped:
    every process a test starts, and the CLI's pipelined read forks, must be
    reaped by the time it ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test ({'running' if pid == 0 else pid})")
