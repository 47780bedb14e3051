"""Live mode: a simplified E2AP-like wire protocol over TCP.

Three roles exercise the merge engine over real sockets: a broker that
owns the merge state, node emulators that emit KPI indications on
wall-clock timers, and xApp clients that subscribe and consume.

This module is the only code that reads or writes bytes. Frame layout:
a 4-byte big-endian length (excluding itself), a 1-byte message kind,
then the body. ``_LAYOUTS`` defines each kind's body from the primitives
and row shapes below: 8-byte big-endian unsigned integers, strings as an
8-byte big-endian length followed by UTF-8 bytes, and a 1-byte presence
flag (0x00 absent, 0x01 present) before an item's optional staleness
tolerance. The protocol is versioned by a byte in the setup request and
is deliberately not interoperable with real RAN stacks (no ASN.1, no
SCTP, no security).

Subscription mutations are serialized through one broker-side lock, and
every push to a node goes out under it: the setup reply and backlog, then
each commit's added and removed streams. A commit writes only the
(node, KPI) routing entries it touched, each the engine's group (a fold
plus its xApps). Indication fan-out reads them unlocked, one KPI at a
time, and asks :func:`~ricmerge.merge.fed_at` which xApps a stream
feeds; each store is atomic, so every sample is routed by its group's
plan before or after a commit.

Threads: the broker runs an accept thread, one thread per connection and
a stats thread; a node runs a reader and an emitter; an xApp runs a
reader. Both clients connect through ``_connect``, and every read, the
node's setup reply included, goes through :meth:`_Peer.messages`.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from . import power
from .e2model import SubscriptionItem, SubscriptionRequest, decompose
from .merge import DuplicateDemandError, GroupPlan, MergeState, Touch, UnknownDemandError, fed_at
from .power import PowerModel

logger = logging.getLogger("ricmerge.wire")

PROTOCOL_VERSION = 1
# Sender id used on broker-to-node subscription messages.
BROKER_SENDER = 2**64 - 1

KIND_SETUP_REQUEST = 1
KIND_SETUP_RESPONSE = 2
KIND_SUBSCRIBE = 3
KIND_SUBSCRIBE_REPLY = 4
KIND_UNSUBSCRIBE = 5
KIND_INDICATION = 6

# Timeout for connecting and for the node's setup exchange. Cleared once
# connected: an idle subscription must not end the read loop.
CONNECT_TIMEOUT_S = 5.0

# A node tries this many times to connect, waiting CONNECT_BACKOFF_S after
# the first failure and twice as long after each further one.
CONNECT_ATTEMPTS = 5
CONNECT_BACKOFF_S = 0.2

# How long an xApp waits for the broker's reply to a subscribe.
REPLY_TIMEOUT_S = 5.0

# Entries kept in the node's and the xApp's emit-time logs (the newest).
EMIT_LOG_LEN = 1 << 16

# Items named in the warning for an undelivered push; the count says how
# many there were.
LOGGED_ITEMS = 3

# Largest frame accepted, length prefix excluded. An indication carrying
# 1000 KPIs is about 23 kB; the cap bounds what one length prefix from a
# peer can make the reader allocate.
MAX_FRAME_BYTES = 1 << 20


class CodecError(ValueError):
    """A wire frame could not be encoded or decoded."""


@dataclass(frozen=True)
class SetupRequest:
    node: int
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class SetupResponse:
    node: int
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class Subscribe:
    sender: int
    node: int
    items: tuple[SubscriptionItem, ...]


@dataclass(frozen=True)
class SubscribeReply:
    node: int
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class Unsubscribe:
    sender: int
    node: int
    items: tuple[tuple[str, int], ...]  # (kpi, period_ms)


@dataclass(frozen=True)
class Indication:
    node: int
    emit_time_ms: int
    period_ms: int
    samples: tuple[tuple[str, int], ...]  # (kpi, sample_time_ms)


WireMessage = (
    SetupRequest | SetupResponse | Subscribe | SubscribeReply | Unsubscribe | Indication
)


# Byte layout. Writers return bytes; readers take ``(data, pos)``, return
# ``(value, next_pos)`` and raise ``struct.error`` past the end of ``data``.
_U8 = struct.Struct(">B")
_U64 = struct.Struct(">Q")
pack_u64 = _U64.pack


def read_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(data, pos)[0], pos + 8


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return pack_u64(len(raw)) + raw


def read_name(data: bytes, pos: int) -> tuple[str, int]:
    """Raises ``UnicodeDecodeError``, a ``ValueError``, for bytes that are not UTF-8."""
    length, pos = read_u64(data, pos)
    end = pos + length
    if end > len(data):
        raise struct.error("name runs past the end of the data")
    return data[pos:end].decode("utf-8"), end


def pack_optional_u64(value: int | None) -> bytes:
    return b"\x00" if value is None else b"\x01" + pack_u64(value)


def read_optional_u64(data: bytes, pos: int) -> tuple[int | None, int]:
    (present,) = _U8.unpack_from(data, pos)
    return read_u64(data, pos + 1) if present else (None, pos + 1)


def pack_item(item: SubscriptionItem) -> bytes:
    """A subscription item: the (KPI, period) pair, then the optional tolerance."""
    return pack_name(item.kpi) + pack_u64(item.period_ms) + pack_optional_u64(item.sensitivity_ms)


def read_item(data: bytes, pos: int) -> tuple[SubscriptionItem, int]:
    """Raises ``ValueError`` for an item that ``SubscriptionItem`` rejects."""
    kpi, pos = read_name(data, pos)
    period, pos = read_u64(data, pos)
    tolerance, pos = read_optional_u64(data, pos)
    return SubscriptionItem(kpi, period, tolerance), pos


def pack_items(items: tuple[SubscriptionItem, ...]) -> bytes:
    """A u64 item count, then each item as :func:`pack_item` writes it."""
    return pack_u64(len(items)) + b"".join(map(pack_item, items))


def read_items(data: bytes, pos: int) -> tuple[tuple[SubscriptionItem, ...], int]:
    """Inverse of :func:`pack_items`."""
    count, pos = read_u64(data, pos)
    items = []
    for _ in range(count):
        item, pos = read_item(data, pos)
        items.append(item)
    return tuple(items), pos


def pack_pairs(rows: tuple[tuple[str, int], ...]) -> bytes:
    """A u64 row count, then each (name, u64) row, such as an indication's
    (KPI, sample time): the name as :func:`pack_name` writes it, then the value."""
    parts = [pack_u64(len(rows))]
    for name, value in rows:
        raw = name.encode("utf-8")
        parts += (pack_u64(len(raw)), raw, pack_u64(value))
    return b"".join(parts)


def read_pairs(data: bytes, pos: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """Inverse of :func:`pack_pairs`, in one loop; a name that is not UTF-8
    raises ``UnicodeDecodeError``, as in :func:`read_name`."""
    unpack = _U64.unpack_from
    (count,) = unpack(data, pos)
    pos += 8
    size = len(data)
    rows = []
    for _ in range(count):
        start = pos + 8
        pos = start + unpack(data, pos)[0]
        if pos + 8 > size:
            raise struct.error("row runs past the end of the data")
        rows.append((data[start:pos].decode("utf-8"), unpack(data, pos)[0]))
        pos += 8
    return tuple(rows), pos


_NAME = (pack_name, read_name)
_ITEMS = (pack_items, read_items)
_PAIRS = (pack_pairs, read_pairs)


class _Layout:
    """One message kind: kind byte, class, the fixed fields in wire order as
    ``"struct-code field, ..."`` (big-endian, like the primitives above), and
    an optional trailing field with its ``(writer, reader)``."""

    def __init__(self, kind: int, cls: type, fixed: str, tail=None, codec=(None, None)) -> None:
        codes, self.fields = zip(*(part.split() for part in fixed.split(",")))
        self.head = struct.Struct(">" + "".join(codes))
        self.kind, self.cls, self.tail = kind, cls, tail
        self.write, self.read = codec
        self.names = self.fields + ((tail,) if tail else ())


# The definition of every message kind on the wire.
_LAYOUTS = (
    _Layout(KIND_SETUP_REQUEST, SetupRequest, "B version, Q node"),
    _Layout(KIND_SETUP_RESPONSE, SetupResponse, "Q node, ? accepted", "reason", _NAME),
    _Layout(KIND_SUBSCRIBE, Subscribe, "Q sender, Q node", "items", _ITEMS),
    _Layout(KIND_SUBSCRIBE_REPLY, SubscribeReply, "Q node, ? accepted", "reason", _NAME),
    _Layout(KIND_UNSUBSCRIBE, Unsubscribe, "Q sender, Q node", "items", _PAIRS),
    _Layout(KIND_INDICATION, Indication, "Q node, Q emit_time_ms, Q period_ms", "samples", _PAIRS),
)
_BY_CLASS = {layout.cls: layout for layout in _LAYOUTS}
_BY_KIND = {layout.kind: layout for layout in _LAYOUTS}
_PREFIX = struct.Struct(">IB")  # frame length (excluding itself), kind


def encode(msg: WireMessage) -> bytes:
    """Full frame bytes: length prefix, kind tag, body. Raises :class:`CodecError`
    for a field that does not fit its wire type, such as an id of 2**64."""
    layout = _BY_CLASS.get(type(msg))
    if layout is None:
        raise CodecError(f"not a wire message: {type(msg).__name__}")
    try:
        body = layout.head.pack(*[getattr(msg, name) for name in layout.fields])
        if layout.tail:
            body += layout.write(getattr(msg, layout.tail))
    except struct.error as exc:
        raise CodecError(f"{type(msg).__name__} field does not fit its wire type: {exc}") from None
    length = 1 + len(body)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {length} bytes")
    return _PREFIX.pack(length, layout.kind) + body


def decode(frame: bytes) -> WireMessage:
    """Inverse of :func:`encode`; strict about truncation and trailers.

    Every malformed frame raises :class:`CodecError`, also a name that is
    not UTF-8 and an item that ``SubscriptionItem`` rejects.
    """
    if len(frame) < 5:
        raise CodecError("truncated frame")
    (length,) = struct.unpack_from(">I", frame)
    if length != len(frame) - 4:
        raise CodecError("frame length mismatch")
    layout = _BY_KIND.get(frame[4])
    if layout is None:
        raise CodecError(f"unknown message kind: {frame[4]}")
    try:
        values = layout.head.unpack_from(frame, 5)
        pos = 5 + layout.head.size
        if layout.tail:
            tail, pos = layout.read(frame, pos)
            values += (tail,)
    except struct.error:
        raise CodecError("unexpected end of frame") from None
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    if pos != len(frame):
        raise CodecError("trailing bytes in frame")
    return layout.cls(**dict(zip(layout.names, values)))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """One full frame from the socket, or None on orderly close.

    Raises :class:`CodecError` before reading the body when the length
    prefix exceeds ``MAX_FRAME_BYTES``, and ``OSError`` when the socket
    fails or times out.
    """
    prefix = _recv_exact(sock, 4)
    if prefix is None:
        return None
    (length,) = struct.unpack(">I", prefix)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large: {length} bytes")
    rest = _recv_exact(sock, length)
    if rest is None:
        return None
    return prefix + rest


def _connect(addr: tuple[str, int], attempts: int, backoff_s: float) -> socket.socket:
    """A socket connected to ``addr`` that keeps ``CONNECT_TIMEOUT_S``; tries
    ``attempts`` times, doubling the wait from ``backoff_s``."""
    for attempt in range(1, attempts + 1):
        try:
            return socket.create_connection(addr, timeout=CONNECT_TIMEOUT_S)
        except OSError as exc:
            if attempt == attempts:
                raise ConnectionError(f"broker unreachable (attempts: {attempts}): {exc}") from exc
            time.sleep(backoff_s)
            backoff_s *= 2


def _start(target, name: str, *args) -> threading.Thread:
    """Start a daemon thread running ``target(*args)``."""
    thread = threading.Thread(target=target, name=name, args=args, daemon=True)
    thread.start()
    return thread


class _Peer:
    """A connected socket with serialized writes and the one read loop."""

    def __init__(self, sock: socket.socket) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Frames go out whole: Nagle's algorithm with delayed ACKs held
            # indications back for tens of ms. Some systems refuse the option
            # on a connection the peer has already reset; that one ends anyway.
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self.sock = sock
        self._send_lock = threading.Lock()
        self.reason = "stopped"  # why messages() ended, for the caller's log

    def messages(self, stopping: threading.Event):
        """Yield ``(message, frame_size)`` until ``stopping`` is set or the
        connection ends, leaving the reason in ``self.reason``.

        A caller that ends the connection itself sets ``reason`` and breaks.
        """
        while not stopping.is_set():
            try:
                frame = read_frame(self.sock)
                if frame is None:
                    self.reason = "connection closed"
                    return
                msg = decode(frame)
            except CodecError as exc:
                self.reason = f"malformed frame: {exc}"
                return
            except OSError as exc:
                self.reason = f"read failed: {exc}"
                return
            yield msg, len(frame)

    def send(self, msg: WireMessage) -> bool:
        try:
            with self._send_lock:
                self.sock.sendall(encode(msg))
            return True
        except OSError:
            return False

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _push(peer: _Peer, msg: Subscribe | Unsubscribe) -> None:
    """Send a subscription change to a node; log a warning if it is not delivered."""
    if not peer.send(msg):
        logger.warning(
            "node %d: %s of %d items not delivered, first %s",
            msg.node,
            type(msg).__name__,
            len(msg.items),
            list(msg.items[:LOGGED_ITEMS]),
        )


@dataclass
class NodeTraffic:
    """Indication accounting for one connected node."""

    messages: int = 0
    samples: int = 0
    bytes: int = 0


class Broker:
    """RIC-side endpoint: owns the merge state, routes indications.

    Node connections open with a setup request; xApp connections open
    with their first subscribe, refused when another connection holds
    its xApp id. Every subscription change is pushed to
    the affected node as modified subscription messages.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        model: PowerModel | None = None,
        stats_interval_s: float | None = None,
    ) -> None:
        self._listen_addr = (host, port)
        self._model = model or PowerModel()
        self._stats_interval = stats_interval_s
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []  # accept and stats
        # Every open connection, from accept until its thread ends.
        self._conns: dict[_Peer, threading.Thread] = {}
        self._stopping = threading.Event()
        # Set when the accept thread ends; ``accept_error`` is why, unless stopped.
        self.accept_ended = threading.Event()
        self.accept_error: OSError | None = None
        self._lock = threading.Lock()  # serializes all subscription mutations
        self._engine = MergeState()
        self._nodes: dict[int, _Peer] = {}
        self._xapps: dict[int, _Peer] = {}
        # The engine's groups by (node, KPI); a commit rewrites the keys it touched.
        self._routing: dict[tuple[int, str], GroupPlan] = {}
        self.node_traffic: dict[int, NodeTraffic] = {}

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("broker not started")
        return self._listener.getsockname()

    def start(self) -> None:
        """Listen and start serving; raises ``OSError`` naming the address
        when it cannot be bound."""
        listener = socket.create_server(self._listen_addr)
        self._listener = listener
        self._threads.append(_start(self._accept_loop, "broker-accept", listener))
        if self._stats_interval:
            self._threads.append(_start(self._stats_loop, "broker-stats"))
        logger.info("broker listening on %s:%d", *self.address)

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                # Wakes a thread blocked in accept(); close alone may not.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)
        # The accept thread has ended, so no connection registers after this.
        with self._lock:
            conns = list(self._conns.items())
        for peer, _ in conns:
            peer.close()
        for _, thread in conns:
            thread.join(timeout=5)

    def total_sample_rate(self) -> float:
        with self._lock:
            return float(self._engine.total_sample_rate())

    def plan_streams(self, node: int) -> set[tuple[str, int]]:
        with self._lock:
            return {(i.kpi, i.period_ms) for i in self._node_items(node)}

    def _node_items(self, node: int) -> list[SubscriptionItem]:
        """The node's planned streams by KPI, then period; hold the lock."""
        routing = self._routing
        return [
            SubscriptionItem(kpi, period)
            for owner, kpi in sorted(routing) if owner == node
            for period in routing[owner, kpi][0].periods
        ]

    def _accept_loop(self, listener: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    sock, addr = listener.accept()
                except ConnectionAbortedError:
                    continue  # the client gave up before it was accepted
                except OSError as exc:
                    if not self._stopping.is_set():
                        self.accept_error = exc
                        logger.warning("broker stopped accepting connections: %s", exc)
                    break
                peer = _Peer(sock)
                with self._lock:  # held until registered: the connection's cleanup takes it
                    self._conns[peer] = _start(self._serve_connection, "broker-conn", peer, addr)
        finally:
            self.accept_ended.set()

    def _stats_loop(self) -> None:
        while not self._stopping.wait(self._stats_interval):
            rate = self.total_sample_rate()
            watts = power.predict(self._model, rate)
            logger.info("sample_rate=%.1f samples/s predicted_power=%.2f W", rate, watts)

    def _serve_connection(self, peer: _Peer, addr) -> None:
        node_id: int | None = None
        xapp_id: int | None = None
        try:
            for msg, frame_size in peer.messages(self._stopping):
                if isinstance(msg, SetupRequest) and node_id is None and xapp_id is None:
                    node_id = self._handle_setup(peer, msg)
                    if node_id is None:
                        peer.reason = "setup rejected"
                        break
                elif isinstance(msg, Indication) and node_id is not None:
                    if msg.node != node_id:
                        peer.reason = f"indication for node {msg.node} from node {node_id}"
                        break
                    self._handle_indication(msg, frame_size)
                elif isinstance(msg, Subscribe) and node_id is None:
                    if xapp_id is None:
                        with self._lock:
                            held = self._xapps.setdefault(msg.sender, peer)
                        if held is not peer:
                            peer.reason = "xApp already connected"
                            peer.send(SubscribeReply(msg.node, False, peer.reason))
                            break
                        xapp_id = msg.sender
                    elif msg.sender != xapp_id:
                        peer.reason = "sender id changed mid-connection"
                        break
                    self._handle_subscribe(peer, msg)
                elif isinstance(msg, Unsubscribe) and node_id is None and xapp_id is not None:
                    if msg.sender != xapp_id:
                        peer.reason = "sender id changed mid-connection"
                        break
                    self._handle_unsubscribe(msg)
                else:
                    peer.reason = f"unexpected {type(msg).__name__} on this connection"
                    break
        finally:
            logger.info("connection %s closed (%s)", addr, peer.reason)
            self._cleanup(peer, node_id, xapp_id)
            peer.close()

    def _handle_setup(self, peer: _Peer, msg: SetupRequest) -> int | None:
        """Answer a setup request; an accepted node also gets its planned
        streams. Both go out under the lock, so every later push reaches
        the node after them."""
        with self._lock:
            if msg.version != PROTOCOL_VERSION:
                peer.send(SetupResponse(msg.node, False, "unsupported protocol version"))
                return None
            if msg.node in self._nodes:
                peer.send(SetupResponse(msg.node, False, "node already connected"))
                return None
            self._nodes[msg.node] = peer
            self.node_traffic.setdefault(msg.node, NodeTraffic())
            peer.send(SetupResponse(msg.node, True))
            backlog = tuple(self._node_items(msg.node))
            if backlog:
                _push(peer, Subscribe(BROKER_SENDER, msg.node, backlog))
        logger.info("node %d connected", msg.node)
        return msg.node

    def _handle_subscribe(self, peer: _Peer, msg: Subscribe) -> None:
        try:
            request = SubscriptionRequest(msg.sender, msg.node, msg.items)
        except ValueError as exc:
            peer.send(SubscribeReply(msg.node, False, str(exc)))
            return
        failure = None
        with self._lock:
            if msg.node not in self._nodes:
                failure = "unknown node"
            else:
                try:
                    self._commit(self._engine.add_demands(decompose(request)))
                except DuplicateDemandError as exc:
                    failure = str(exc)
        if failure is not None:
            peer.send(SubscribeReply(msg.node, False, failure))
        else:
            peer.send(SubscribeReply(msg.node, True))

    def _handle_unsubscribe(self, msg: Unsubscribe) -> None:
        """Drop the named demands; one warning names those the broker does not hold."""
        unknown = []
        with self._lock:
            touched = []
            for kpi, _period in msg.items:
                try:
                    touched += self._engine.remove_demand(msg.sender, msg.node, kpi)
                except UnknownDemandError:
                    unknown.append(kpi)
            self._commit(touched)
        if unknown:
            logger.warning(
                "xApp %d: unsubscribe of %d items not held on node %d, first %s",
                msg.sender,
                len(unknown),
                msg.node,
                unknown[:LOGGED_ITEMS],
            )

    def _handle_indication(self, msg: Indication, frame_len: int) -> None:
        traffic = self.node_traffic[msg.node]
        traffic.messages += 1
        traffic.samples += len(msg.samples)
        traffic.bytes += frame_len
        routing = self._routing  # read unlocked: each key's store is atomic
        per_xapp: dict[int, list[tuple[str, int]]] = {}
        for kpi, sample_time in msg.samples:
            group = routing.get((msg.node, kpi))
            for xapp in fed_at(group, msg.period_ms) if group else ():
                per_xapp.setdefault(xapp, []).append((kpi, sample_time))
        for xapp, samples in per_xapp.items():
            peer = self._xapps.get(xapp)
            if peer is not None:
                peer.send(
                    Indication(msg.node, msg.emit_time_ms, msg.period_ms, tuple(samples))
                )

    def _commit(self, touched: list[Touch]) -> None:
        """Route each touched group as it now stands and push its stream
        changes to its node; hold the lock.

        Each node gets the streams that appeared as one Subscribe, then
        those that vanished as one Unsubscribe, each in touch order and by
        period within a group. So a retimed KPI is never without a stream on
        its node. No (KPI, period) is both added and dropped in one commit,
        so the order cannot undo an add.
        """
        routing = self._routing
        adds: dict[int, list[SubscriptionItem]] = {}
        drops: dict[int, list[tuple[str, int]]] = {}
        for key, before, group in touched:
            node, kpi = key
            if group is None:
                del routing[key]
                after = ()
            else:
                routing[key] = group
                after = group[0].periods
            gone = [(kpi, p) for p in before if p not in after]
            if gone:
                drops.setdefault(node, []).extend(gone)
            new = [SubscriptionItem(kpi, p) for p in after if p not in before]
            if new:
                adds.setdefault(node, []).extend(new)
        for message, per_node in ((Subscribe, adds), (Unsubscribe, drops)):
            for node, items in per_node.items():
                peer = self._nodes.get(node)
                if peer is not None:
                    _push(peer, message(BROKER_SENDER, node, tuple(items)))

    def _cleanup(self, peer: _Peer, node_id: int | None, xapp_id: int | None) -> None:
        with self._lock:
            del self._conns[peer]
            if node_id is not None and self._nodes.get(node_id) is peer:
                del self._nodes[node_id]
            if xapp_id is not None and self._xapps.get(xapp_id) is peer:
                del self._xapps[xapp_id]
                self._commit(self._engine.remove_xapp(xapp_id))


class NodeEmulator:
    """E2-node stand-in: honors subscription plans with wall-clock timers.

    A node runs two threads: a reader that applies the broker's
    subscription messages, and an emitter that sends one indication per
    tick of each subscribed period, carrying every KPI subscribed at that
    period (node-and-period batching). A period ticks as soon as it is
    first subscribed, then once per period. ``ended`` is set, and
    ``reason`` says why, when either thread stops while the node is not
    stopping: the broker closed the connection or a send failed.
    """

    def __init__(self, broker_host: str, broker_port: int, node_id: int) -> None:
        self.node_id = node_id
        self._addr = (broker_host, broker_port)
        self._peer: _Peer | None = None
        self._stopping = threading.Event()
        self.ended = threading.Event()
        self.reason: str | None = None
        self._lock = threading.Lock()
        self._streams: dict[int, set[str]] = {}  # period_ms -> kpis
        self._due: dict[int, float] = {}  # period_ms -> next tick (monotonic)
        self._wake = threading.Condition(self._lock)  # wakes the emitter
        self._threads: list[threading.Thread] = []
        self._t0 = 0.0
        self.emitted_messages = 0
        self.emitted_samples = 0
        self.first_emit_monotonic: float | None = None
        # Emit time of each indication sent, logged just before its send.
        self.emit_times: deque[int] = deque(maxlen=EMIT_LOG_LEN)

    def start(self) -> None:
        """Connect and set up; on any failure, close and raise ``ConnectionError``."""
        peer = _Peer(_connect(self._addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF_S))
        peer.send(SetupRequest(self.node_id))
        reply = next(peer.messages(self._stopping), (None, 0))[0]
        if not isinstance(reply, SetupResponse) or not reply.accepted:
            peer.close()
            if isinstance(reply, SetupResponse):
                raise ConnectionError(f"setup rejected: {reply.reason}")
            cause = peer.reason if reply is None else f"unexpected {type(reply).__name__}"
            raise ConnectionError(f"setup failed: {cause}")
        peer.sock.settimeout(None)
        self._peer = peer
        self._t0 = time.monotonic()
        self._threads = [
            _start(self._read_loop, f"node-{self.node_id}", peer),
            _start(self._emit_loop, f"node-{self.node_id}-emit", peer),
        ]
        logger.info("node %d attached to broker", self.node_id)

    def stop(self) -> None:
        self._stopping.set()
        with self._wake:
            self._wake.notify()
        if self._peer is not None:
            self._peer.close()
        for thread in self._threads:
            thread.join(timeout=5)

    def active_streams(self) -> set[tuple[str, int]]:
        with self._lock:
            return {
                (kpi, period)
                for period, kpis in self._streams.items()
                for kpi in kpis
            }

    def _read_loop(self, peer: _Peer) -> None:
        for msg, _ in peer.messages(self._stopping):
            if isinstance(msg, Subscribe):
                now = time.monotonic()
                with self._wake:
                    for item in msg.items:
                        self._streams.setdefault(item.period_ms, set()).add(item.kpi)
                        self._due.setdefault(item.period_ms, now)
                    self._wake.notify()
            elif isinstance(msg, Unsubscribe):
                with self._lock:
                    for kpi, period in msg.items:
                        kpis = self._streams.get(period)
                        if kpis is not None:
                            kpis.discard(kpi)
                            if not kpis:
                                del self._streams[period]
        self._end("reader", peer.reason)

    def _end(self, thread: str, reason: str) -> None:
        """Log that ``thread`` stopped. Unless the node is stopping, set
        ``ended``, keeping the first reason."""
        with self._lock:
            stopping = self._stopping.is_set()
            if not stopping and not self.ended.is_set():
                self.reason = reason
                self.ended.set()
        level = logging.INFO if stopping else logging.WARNING
        logger.log(level, "node %d: %s stopped (%s)", self.node_id, thread, reason)

    def _emit_loop(self, peer: _Peer) -> None:
        """Send each due period's indication; sleep until the next is due.

        A period left without KPIs is dropped from ``_due`` at its next
        tick, so a re-subscription before then keeps its schedule. Sends
        happen outside the lock, so a blocked socket cannot stall the reader.
        """
        while True:
            with self._wake:
                if self._stopping.is_set():
                    return
                now = time.monotonic()
                ready = []
                for period, due in sorted(self._due.items()):
                    if due > now:
                        continue
                    kpis = sorted(self._streams.get(period, ()))
                    if kpis:
                        ready.append((period, kpis))
                        self._due[period] = due + period / 1000.0
                    else:
                        del self._due[period]
                if not ready:
                    next_due = min(self._due.values(), default=None)
                    self._wake.wait(None if next_due is None else next_due - now)
                    continue
            for period, kpis in ready:
                now_ms = int((time.monotonic() - self._t0) * 1000)
                self.emit_times.append(now_ms)
                if not peer.send(
                    Indication(self.node_id, now_ms, period, tuple((k, now_ms) for k in kpis))
                ):
                    self.emit_times.pop()  # never left the node
                    self._end("emitter", "send failed")
                    return
                if self.first_emit_monotonic is None:
                    self.first_emit_monotonic = time.monotonic()
                self.emitted_messages += 1
                self.emitted_samples += len(kpis)


class XAppClient:
    """Subscribing consumer; counts the indications it receives.

    ``ended`` is set when the reader stops, also on ``close``; ``reason``
    says why.
    """

    def __init__(self, broker_host: str, broker_port: int, xapp_id: int) -> None:
        self.xapp_id = xapp_id
        self._addr = (broker_host, broker_port)
        self._peer: _Peer | None = None
        self._reader: threading.Thread | None = None
        self._stopping = threading.Event()
        self._replies: "list[SubscribeReply]" = []
        self._reply_ready = threading.Condition()
        self.ended = threading.Event()  # set under _reply_ready
        self.reason: str | None = None
        self.received_messages = 0
        self.received_samples = 0
        self.samples_per_kpi: dict[str, int] = {}
        self.emit_times: deque[int] = deque(maxlen=EMIT_LOG_LEN)  # as received

    def connect(self) -> None:
        self._peer = _Peer(_connect(self._addr, attempts=1, backoff_s=0.0))
        self._peer.sock.settimeout(None)
        self._reader = _start(self._read_loop, f"xapp-{self.xapp_id}", self._peer)

    def close(self) -> None:
        self._stopping.set()
        if self._peer is not None:
            self._peer.close()
        if self._reader is not None:
            self._reader.join(timeout=5)

    def subscribe(self, node: int, items: tuple[SubscriptionItem, ...]) -> SubscribeReply:
        """Send one subscribe and wait for its reply.

        Raises ``ConnectionError`` at once when the subscribe cannot be sent
        or the connection ends before the reply. On ``TimeoutError`` the
        connection is closed: whether the broker applied the subscribe is
        unknown, and a late reply must not answer a later call.
        """
        if self._peer is None:
            raise RuntimeError("not connected")
        if not self._peer.send(Subscribe(self.xapp_id, node, items)):
            raise ConnectionError("subscribe not sent: connection to broker lost")
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        with self._reply_ready:
            while not self._replies:
                if self.ended.is_set():
                    raise ConnectionError(f"no subscription reply: {self.reason}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._peer.close()
                    raise TimeoutError("no subscription reply from broker; connection closed")
                self._reply_ready.wait(remaining)
            return self._replies.pop(0)

    def unsubscribe(self, node: int, items: tuple[tuple[str, int], ...]) -> None:
        """Send one unsubscribe; the broker sends no reply.

        Raises ``ConnectionError`` when it cannot be sent.
        """
        if self._peer is None:
            raise RuntimeError("not connected")
        if not self._peer.send(Unsubscribe(self.xapp_id, node, items)):
            raise ConnectionError("unsubscribe not sent: connection to broker lost")

    def _read_loop(self, peer: _Peer) -> None:
        for msg, _ in peer.messages(self._stopping):
            if isinstance(msg, SubscribeReply):
                with self._reply_ready:
                    self._replies.append(msg)
                    self._reply_ready.notify()
            elif isinstance(msg, Indication):
                self.received_messages += 1
                self.received_samples += len(msg.samples)
                self.emit_times.append(msg.emit_time_ms)
                for kpi, _ in msg.samples:
                    self.samples_per_kpi[kpi] = self.samples_per_kpi.get(kpi, 0) + 1
        with self._reply_ready:
            self.reason = peer.reason
            self.ended.set()
            self._reply_ready.notify()
        level = logging.INFO if self._stopping.is_set() else logging.WARNING
        logger.log(level, "xApp %d: reader stopped (%s)", self.xapp_id, peer.reason)
