"""Test-wide settings: hypothesis draws the same examples on every run, and
no live-mode thread outlives the test that started it."""

import threading
import time

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

LIVE_THREAD_PREFIXES = ("node-", "xapp-", "broker-")
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def live_threads_end():
    """Fail a test whose node, xApp or broker threads are still alive
    ``THREAD_GRACE_S`` after it ends. Threads alive before the test are not
    counted, so one leak fails one test."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    while True:
        leaked = sorted(
            t.name
            for t in threading.enumerate()
            if t not in before and t.name.startswith(LIVE_THREAD_PREFIXES)
        )
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    if leaked:
        pytest.fail(f"live-mode threads still running: {', '.join(leaked)}")
