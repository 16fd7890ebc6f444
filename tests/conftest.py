"""Suite-wide fixtures: a per-test wall-clock watchdog.

A wedged event loop (a future nobody resolves, a worker process that
never answers) would otherwise hang the run until CI's job timeout with
nothing to read.  Each test arms ``faulthandler.dump_traceback_later``:
past its limit every thread's stack is written to the real stderr and
the process exits non-zero.
"""

import faulthandler
import os

import pytest

TIER1_LIMIT = 120.0
"""Seconds one tier-1 test may run (the whole tier takes ~80 s)."""

RUNTIME_LIMIT = 300.0
"""Seconds one ``runtime``-marked test may run: real timers, and the
fleet tests fork worker processes and wait out their own deadlines."""

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while hooks configure, so fd 2 is the
    # terminal here; inside a test it is the capture's temporary file,
    # and a dump written there would die with the process.
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _watchdog(request):
    runtime = request.node.get_closest_marker("runtime") is not None
    faulthandler.dump_traceback_later(
        RUNTIME_LIMIT if runtime else TIER1_LIMIT,
        exit=True,
        file=request.config.stash[_STDERR_FD],
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
