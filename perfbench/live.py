"""The live workload: ``ricmerge broker`` in its own process, driven by a
single-threaded selector loop over exactly two TCP connections, one
acting as E2 node 1 and one as an xApp.

A pass has two phases.

1. Closed loop: the xApp subscribes to one KPI at a time and waits for
   each ``SubscribeReply``, so the broker's routing table grows to
   ``SUBSCRIBES`` entries. The node socket drains the ``Subscribe``
   frames the broker pushes.
2. Open loop: the node sends indication frames of ``SAMPLES_PER_FRAME``
   samples at ``RATE`` frames per second, encoded before the phase
   starts. Frame i carries emit time i, which the broker forwards
   unchanged, so each delivery is matched to its send. Latency runs from
   the frame's scheduled send time to its receipt on the xApp socket.

A pass's wall time is the part of the session that depends on the
program: the session from the first subscribe to the delivery of the
last indication, less the fixed schedule of the indication stream. That
is the subscribe phase, the wait for the node's streams, and how far the
last delivery lags behind its scheduled send.
"""

from __future__ import annotations

import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time

from ricmerge import wire
from ricmerge.e2model import SubscriptionItem

NODE = 1
XAPP = 7
SUBSCRIBES = 1000
PERIODS = (10, 20, 40, 50)
SAMPLES_PER_FRAME = 20
# Below the knee: frames of 20 samples queued up at about 4000 per second
# on a 2-core machine, and stayed near 1 ms at 500-2000 per second.
RATE = 1000
STREAM_S = 1.0
REPLY_TIMEOUT_S = 5.0
DRAIN_S = 2.0
START_TIMEOUT_S = 20.0

_LISTENING = re.compile(rb"broker listening on [^:\s]+:(\d+)")


def make_inputs(seed: int):
    """Subscription order and periods, and the indication frames to send:
    ``(kpis, period_of, frames)`` with ``frames[i] = (period, kpis)``."""
    rng = random.Random(seed)
    kpis = [f"KPI{k:04d}" for k in range(SUBSCRIBES)]
    rng.shuffle(kpis)
    period_of = {kpi: rng.choice(PERIODS) for kpi in kpis}
    by_period: dict[int, list[str]] = {p: [] for p in PERIODS}
    for kpi in sorted(kpis):
        by_period[period_of[kpi]].append(kpi)
    frames = []
    for _ in range(int(RATE * STREAM_S)):
        period = rng.choice(PERIODS)
        frames.append((period, tuple(sorted(rng.sample(by_period[period], SAMPLES_PER_FRAME)))))
    return kpis, period_of, frames


class _Conn:
    """A non-blocking socket with an output buffer and frame splitting."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.recvs = 0
        self.frames = 0

    def flush(self) -> None:
        if self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except BlockingIOError:
                return
            del self.outbuf[:sent]

    def receive(self) -> list[bytes]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("broker closed the connection")
        self.recvs += 1
        self.inbuf += data
        frames = []
        while len(self.inbuf) >= 4:
            end = 4 + int.from_bytes(self.inbuf[:4], "big")
            if len(self.inbuf) < end:
                break
            frames.append(bytes(self.inbuf[:end]))
            del self.inbuf[:end]
        self.frames += len(frames)
        return frames


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Session:
    """One broker process and the two connections that drive it."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.node: _Conn | None = None
        self.xapp: _Conn | None = None
        # select(2) takes microsecond timeouts; epoll rounds them up to 1 ms.
        self.sel = selectors.SelectSelector()
        self.replies: list[wire.SubscribeReply] = []
        self.node_streams: set[tuple[str, int]] = set()
        self.on_indication = None

    def start(self) -> float:
        """Start the broker and attach the node; returns set-up seconds."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        begin = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "ricmerge.cli", "broker", "--listen", "127.0.0.1:0"],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        port = self._await_port(begin + START_TIMEOUT_S)
        sock = _connect(port)
        sock.sendall(wire.encode(wire.SetupRequest(NODE)))
        self.node = _Conn(sock)
        self.sel.register(sock, selectors.EVENT_READ, self.node)
        deadline = begin + START_TIMEOUT_S
        while not self.replies and time.monotonic() < deadline:
            self.poll(deadline)
        if not self.replies:
            raise TimeoutError("no setup response from the broker")
        reply = self.replies.pop(0)
        if not isinstance(reply, wire.SetupResponse) or not reply.accepted:
            raise ConnectionError(f"node setup rejected: {reply}")
        return time.monotonic() - begin

    def _await_port(self, deadline: float) -> int:
        stderr = self.proc.stderr
        text = b""
        with selectors.DefaultSelector() as sel:
            sel.register(stderr, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    continue
                chunk = os.read(stderr.fileno(), 4096)
                if not chunk:
                    break
                text += chunk
                match = _LISTENING.search(text)
                if match:
                    return int(match.group(1))
        raise ConnectionError(f"broker did not start: {text.decode(errors='replace')}")

    def attach_xapp(self) -> None:
        port = self.node.sock.getpeername()[1]
        self.xapp = _Conn(_connect(port))
        self.sel.register(self.xapp.sock, selectors.EVENT_READ, self.xapp)

    def poll(self, deadline: float) -> None:
        """Wait for socket events until ``deadline`` at the latest."""
        for conn in (self.node, self.xapp):
            if conn is not None:
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.outbuf else 0)
                self.sel.modify(conn.sock, events, conn)
        timeout = max(0.0, deadline - time.monotonic())
        for key, events in self.sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                conn.flush()
            if events & selectors.EVENT_READ:
                for frame in conn.receive():
                    self._dispatch(conn, frame)

    def _dispatch(self, conn: _Conn, frame: bytes) -> None:
        if conn is self.xapp and frame[4] == wire.KIND_INDICATION and self.on_indication:
            self.on_indication(frame)
            return
        msg = wire.decode(frame)
        if isinstance(msg, (wire.SetupResponse, wire.SubscribeReply)):
            self.replies.append(msg)
        elif isinstance(msg, wire.Subscribe) and conn is self.node:
            self.node_streams.update((i.kpi, i.period_ms) for i in msg.items)
        elif isinstance(msg, wire.Unsubscribe) and conn is self.node:
            self.node_streams.difference_update(msg.items)
        else:
            raise ConnectionError(f"unexpected {type(msg).__name__}")

    def send(self, conn: _Conn, frame: bytes) -> None:
        conn.outbuf += frame
        conn.flush()

    def broker_cpu_s(self) -> float:
        return _cpu_s(self.proc.pid)

    def broker_rss_kb(self) -> int:
        return _peak_rss_kb(self.proc.pid)

    def close(self) -> None:
        """Close both connections, stop the broker and wait for it."""
        for conn in (self.node, self.xapp):
            if conn is not None:
                self.sel.unregister(conn.sock)
                conn.sock.close()
        self.sel.close()
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def setup_probe(root: str) -> float:
    session = Session(root)
    try:
        return session.start()
    finally:
        session.close()


def run_pass(root: str, seed: int, tracer=None) -> dict:
    """One full pass: set-up, the subscribe phase, the indication phase.

    With a tracer, encoding and decoding of indication frames is recorded
    as ``wire.encode`` and ``wire.decode`` spans.
    """
    encode, decode = wire.encode, wire.decode
    if tracer is not None:
        encode, decode = tracer.wrap("wire.encode", encode), tracer.wrap("wire.decode", decode)
    kpis, period_of, plan = make_inputs(seed)
    subscribe_frames = [
        wire.encode(wire.Subscribe(XAPP, NODE, (SubscriptionItem(kpi, period_of[kpi]),)))
        for kpi in kpis
    ]
    sent = [
        (NODE, period, tuple((kpi, i) for kpi in chosen))
        for i, (period, chosen) in enumerate(plan)
    ]
    encoded = [encode(wire.Indication(NODE, i, *frame[1:])) for i, frame in enumerate(sent)]

    session = Session(root)
    try:
        setup_s = session.start()
        session.attach_xapp()
        cpu_start = session.broker_cpu_s()

        # Phase 1: closed-loop subscribes.
        replies: list[bool] = []
        subscribe_ms: list[float] = []
        clock = time.perf_counter
        phase_start = clock()
        for frame in subscribe_frames:
            t0 = clock()
            session.send(session.xapp, frame)
            deadline = time.monotonic() + REPLY_TIMEOUT_S
            while not session.replies and time.monotonic() < deadline:
                session.poll(deadline)
            if not session.replies:
                replies.append(False)
                break
            subscribe_ms.append((clock() - t0) * 1000.0)
            replies.append(session.replies.pop(0).accepted)
        subscribe_s = clock() - phase_start
        expected_streams = {(kpi, period_of[kpi]) for kpi in kpis}
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while session.node_streams != expected_streams and time.monotonic() < deadline:
            session.poll(deadline)

        # Phase 2: open-loop indications at a fixed rate.
        delivered: dict[int, list[tuple]] = {}
        latency_ms: list[float] = []
        late_ms: list[float] = []
        settled = clock()
        start = settled + 0.01
        due = [start + i / RATE for i in range(len(encoded))]

        def on_indication(frame: bytes) -> None:
            now = clock()
            msg = decode(frame)
            i = msg.emit_time_ms
            delivered.setdefault(i, []).append((msg.node, msg.period_ms, msg.samples))
            if i < len(due):
                latency_ms.append((now - due[i]) * 1000.0)

        session.on_indication = on_indication
        xapp = session.xapp
        recvs_before, frames_before = xapp.recvs, xapp.frames
        next_frame = 0
        while next_frame < len(encoded):
            now = clock()
            while next_frame < len(encoded) and due[next_frame] <= now:
                late_ms.append((now - due[next_frame]) * 1000.0)
                session.send(session.node, encoded[next_frame])
                next_frame += 1
            wait = due[next_frame] - clock() if next_frame < len(encoded) else 0.0
            session.poll(time.monotonic() + max(0.0, wait))
        deadline = time.monotonic() + DRAIN_S
        while len(latency_ms) < len(encoded) and time.monotonic() < deadline:
            session.poll(deadline)
        session_s = clock() - phase_start
        scheduled_s = due[-1] - settled
        cpu_s = session.broker_cpu_s() - cpu_start
        rss_kb = session.broker_rss_kb()
        recvs = xapp.recvs - recvs_before
        frames = xapp.frames - frames_before
    finally:
        session.close()

    return {
        "setup_s": setup_s,
        "wall_s": session_s - scheduled_s,
        "session_s": session_s,
        "subscribe_s": subscribe_s,
        "subscribe_ms": subscribe_ms,
        "latency_ms": latency_ms,
        "late_ms": late_ms,
        "broker_cpu_s": cpu_s,
        "rss_kb": rss_kb,
        "frames_per_recv": frames / recvs if recvs else 0.0,
        "replies": replies,
        "node_streams": sorted(session.node_streams),
        "expected_streams": sorted(expected_streams),
        "sent": sent,
        "delivered": delivered,
    }
