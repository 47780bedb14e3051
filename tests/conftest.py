"""Test-wide settings: hypothesis draws the same examples on every run, and
no live-mode thread outlives the test that started it. Also a stand-in
broker that answers one node's setup request as a test tells it to, and
logs of the plans and streams a test constructs."""

import socket
import threading
import time

import pytest
from hypothesis import settings

from ricmerge.merge import StreamSpec, TransmissionPlan
from ricmerge.wire import read_frame

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


class SetupReplier:
    """A stand-in broker for one node connection. It reads the setup
    request, then sends ``reply`` and waits for the node to close its side;
    ``reply`` None sends nothing, and ``b""`` ends the stand-in's side.
    ``node_closed`` tells whether the node closed within 5 s."""

    def __init__(self, reply: bytes | None) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.node_closed: bool | None = None
        self._thread = threading.Thread(target=self._serve, args=(reply,), name="setup-replier")
        self._thread.start()

    def _serve(self, reply: bytes | None) -> None:
        conn, _ = self.listener.accept()
        with conn:
            conn.settimeout(5)
            read_frame(conn)
            if reply == b"":
                conn.shutdown(socket.SHUT_WR)
            elif reply is not None:
                conn.sendall(reply)
            try:
                self.node_closed = conn.recv(1) == b""
            except OSError:
                self.node_closed = False

    def close(self) -> None:
        self._thread.join(timeout=10)
        self.listener.close()


@pytest.fixture
def setup_replier():
    """Make :class:`SetupReplier` instances; each is closed after the test."""
    made = []

    def make(reply: bytes | None) -> SetupReplier:
        made.append(SetupReplier(reply))
        return made[-1]

    yield make
    for replier in made:
        replier.close()


def _constructed(monkeypatch, cls, hook: str) -> list:
    """The ``cls`` objects constructed from now on, in order, logged by
    wrapping the constructor step ``hook``."""
    built = []
    original = getattr(cls, hook)

    def counted(obj, *args, **kwargs):
        original(obj, *args, **kwargs)
        built.append(obj)

    monkeypatch.setattr(cls, hook, counted)
    return built


@pytest.fixture
def plans_built(monkeypatch):
    """The :class:`TransmissionPlan` objects constructed during the test, in
    order, counted through the one validating constructor."""
    return _constructed(monkeypatch, TransmissionPlan, "__post_init__")


@pytest.fixture
def specs_built(monkeypatch):
    """The :class:`StreamSpec` objects constructed during the test, in order."""
    return _constructed(monkeypatch, StreamSpec, "__post_init__")
