import errno
import logging
import random
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from ricmerge import wire
from ricmerge.e2model import SubscriptionItem
from ricmerge.wire import (
    BROKER_SENDER,
    Broker,
    MAX_FRAME_BYTES,
    CodecError,
    Indication,
    NodeEmulator,
    SetupRequest,
    SetupResponse,
    Subscribe,
    SubscribeReply,
    Unsubscribe,
    XAppClient,
    decode,
    encode,
    read_frame,
)

from helpers import churn_ops, groups, plan_diff


class TestCodec:
    def test_setup_request_layout(self):
        frame = encode(SetupRequest(node=1))
        # length prefix (4) + kind (1) + version (1) + node id (8)
        assert frame == bytes.fromhex("0000000a" "01" "01" "0000000000000001")
        assert len(frame) == 14

    def test_each_kind_has_pinned_bytes(self):
        ab, c = "0000000000000002" "6162", "0000000000000001" "63"  # length-prefixed names
        node, sender = "0000000000000003", "0000000000000007"
        expected = {
            SetupRequest(node=3): "0000000a" "01" "01" + node,
            SetupResponse(3, False, "no"): "00000014" "02" + node + "00"
            "0000000000000002" "6e6f",
            Subscribe(7, 3, (SubscriptionItem("ab", 10), SubscriptionItem("c", 20, 5))):
            "00000046" "03" + sender + node + "0000000000000002"
            + ab + "000000000000000a" "00"
            + c + "0000000000000014" "01" "0000000000000005",
            SubscribeReply(3, True): "00000012" "04" + node + "01" "0000000000000000",
            Unsubscribe(7, 3, (("ab", 10),)): "0000002b" "05" + sender + node
            + "0000000000000001" + ab + "000000000000000a",
            Indication(3, 120, 40, (("ab", 120), ("c", 121))): "00000044" "06" + node
            + "0000000000000078" "0000000000000028" "0000000000000002"
            + ab + "0000000000000078" + c + "0000000000000079",
        }
        for msg, layout in expected.items():
            assert encode(msg) == bytes.fromhex(layout), msg
            assert decode(bytes.fromhex(layout)) == msg

    def test_subscribe_round_trip_with_tolerance(self):
        msg = Subscribe(
            sender=7,
            node=3,
            items=(
                SubscriptionItem("DRB.UEThpDl", 10),
                SubscriptionItem("RRU.PrbUsedDl", 20, 5),
            ),
        )
        assert decode(encode(msg)) == msg

    def test_all_kinds_round_trip(self):
        messages = [
            SetupRequest(9),
            SetupResponse(9, True),
            SetupResponse(9, False, "node already connected"),
            Subscribe(1, 2, (SubscriptionItem("a", 10),)),
            SubscribeReply(2, False, "unknown node"),
            Unsubscribe(1, 2, (("a", 10), ("b", 20))),
            Indication(2, 120, 40, (("a", 120),)),
        ]
        for msg in messages:
            assert decode(encode(msg)) == msg

    def test_truncated_frame_rejected(self):
        frame = encode(Subscribe(1, 2, (SubscriptionItem("a", 10),)))
        with pytest.raises(CodecError):
            decode(frame[:10] + frame[14:])  # drops bytes mid-body

    def test_short_buffer_rejected(self):
        with pytest.raises(CodecError):
            decode(b"\x00\x00")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            decode(b"\x00\x00\x00\x01\x99")

    def test_trailing_bytes_rejected(self):
        frame = encode(SetupRequest(1))
        padded = struct.pack(">I", len(frame) - 4 + 1) + frame[4:] + b"\x00"
        with pytest.raises(CodecError):
            decode(padded)

    def test_bad_names_and_items_raise_codec_error(self):
        frame = encode(Subscribe(1, 2, (SubscriptionItem("a", 10, 5),)))
        name_at = frame.index(b"a")
        period_at, tolerance_at = name_at + 1, name_at + 10
        bad = {
            "utf-8": frame[:name_at] + b"\xff" + frame[name_at + 1:],
            "period": frame[:period_at] + bytes(8) + frame[period_at + 8:],
            "tolerance must be": frame[:tolerance_at] + bytes(8),
            "non-empty": frame[:name_at - 8] + bytes(8) + frame[name_at + 1:],
            # a trailing name whose length runs past the end of the frame
            "unexpected end of frame": encode(SetupResponse(1, False, "ab"))[:-1],
        }
        for reason, frame in bad.items():
            frame = struct.pack(">I", len(frame) - 4) + frame[4:]
            with pytest.raises(CodecError, match=reason):
                decode(frame)

    def test_field_that_does_not_fit_its_wire_type_raises_codec_error(self):
        too_wide = [
            Subscribe(7, 3, (SubscriptionItem("a", 10, 2**64),)),  # u64 tolerance
            SetupRequest(node=2**64),  # u64 node id
        ]
        for msg in too_wide:
            with pytest.raises(CodecError, match="does not fit its wire type"):
                encode(msg)


names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
u64 = st.integers(0, 2**64 - 1)
items = st.lists(
    st.builds(SubscriptionItem, names, st.integers(1, 3_600_000), st.none() | st.integers(1, 10_000)),
    max_size=4,
).map(tuple)
wire_messages = st.one_of(
    st.builds(SetupRequest, u64, st.integers(0, 255)),
    st.builds(SetupResponse, u64, st.booleans(), names | st.just("")),
    st.builds(Subscribe, u64, u64, items),
    st.builds(SubscribeReply, u64, st.booleans(), names | st.just("")),
    st.builds(Unsubscribe, u64, u64, st.lists(st.tuples(names, u64), max_size=4).map(tuple)),
    st.builds(
        Indication, u64, u64, u64, st.lists(st.tuples(names, u64), max_size=4).map(tuple)
    ),
)


@given(wire_messages)
def test_codec_round_trip(msg):
    assert decode(encode(msg)) == msg


pair_rows = st.lists(st.tuples(st.text(max_size=6), u64), max_size=4).map(tuple)


@given(
    st.one_of(
        st.builds(Unsubscribe, u64, u64, pair_rows),
        st.builds(Indication, u64, u64, u64, pair_rows),
    )
)
def test_pair_frames_round_trip_and_every_truncation_is_rejected(msg):
    frame = encode(msg)
    assert decode(frame) == msg
    # Each shorter body, under a length prefix that matches it.
    for end in range(5, len(frame)):
        with pytest.raises(CodecError):
            decode(struct.pack(">I", end - 4) + frame[4:end])


@pytest.fixture
def broker():
    b = Broker()
    b.start()
    yield b
    b.stop()


def wait_until(predicate, timeout_s=5.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestFrameCap:
    def test_oversized_length_rejected_before_body(self):
        ours, peer = socket.socketpair()
        with ours, peer:
            # No body follows: reading one would hit the timeout, not raise.
            ours.settimeout(2)
            peer.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(CodecError, match="frame too large"):
                read_frame(ours)

    def test_broker_logs_why_it_dropped_the_peer(self, broker, caplog):
        caplog.set_level(logging.INFO, logger="ricmerge.wire")
        with socket.create_connection(broker.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert sock.recv(1) == b""
        assert wait_until(lambda: "malformed frame: frame too large" in caplog.text)

    def test_broker_logs_a_name_that_is_not_utf8(self, broker, caplog):
        caplog.set_level(logging.INFO, logger="ricmerge.wire")
        frame = encode(Subscribe(1, 2, (SubscriptionItem("a", 10),)))
        frame = frame.replace(b"a", b"\xff")
        with socket.create_connection(broker.address, timeout=5) as sock:
            sock.sendall(frame)
            assert sock.recv(1) == b""
        assert wait_until(lambda: "closed (malformed frame: 'utf-8' codec" in caplog.text)

    def test_empty_frame_is_malformed(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(struct.pack(">I", 0))
            peer = wire._Peer(ours)
            assert list(peer.messages(threading.Event())) == []
            assert peer.reason.startswith("malformed frame"), peer.reason


class TestBrokerLifecycle:
    def test_stop_closes_a_silent_connection(self):
        broker = Broker()
        broker.start()
        with socket.create_connection(broker.address, timeout=5):
            assert wait_until(
                lambda: any(t.name == "broker-conn" for t in threading.enumerate())
            )
            started = time.monotonic()
            broker.stop()
            assert time.monotonic() - started < 1

    def test_ended_connections_leave_no_threads_behind(self):
        broker = Broker(stats_interval_s=60)
        broker.start()
        try:
            for _ in range(50):
                socket.create_connection(broker.address, timeout=5).close()
            with socket.create_connection(broker.address, timeout=5):
                # accept and stats, plus the one connection still open
                assert wait_until(lambda: len(broker._threads) + len(broker._conns) == 3)
        finally:
            broker.stop()

    def test_accept_loop_outlives_an_aborted_accept_and_logs_why_it_ends(self, caplog):
        caplog.set_level(logging.INFO, logger="ricmerge.wire")
        broker = Broker()
        served, client = socket.socketpair()
        listener = StubListener(
            ConnectionAbortedError(errno.ECONNABORTED, "Software caused connection abort"),
            (served, "socketpair"),
            OSError(errno.EMFILE, "Too many open files"),
        )
        try:
            broker._accept_loop(listener)
            assert broker.accept_ended.is_set()
            assert broker.accept_error.errno == errno.EMFILE
            client.settimeout(5)
            client.sendall(encode(SetupRequest(4)))
            assert decode(read_frame(client)) == SetupResponse(4, True)
        finally:
            broker.stop()
            served.close()
            client.close()
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "stopped accepting connections" in record.getMessage()
        assert "Too many open files" in record.getMessage()

    def test_address_before_start_raises(self):
        with pytest.raises(RuntimeError, match="broker not started"):
            Broker().address

    def test_subscribe_before_connect_raises(self):
        with pytest.raises(RuntimeError, match="not connected"):
            XAppClient("127.0.0.1", 1, 1).subscribe(1, (SubscriptionItem("a", 10),))

    def test_unsubscribe_before_connect_raises(self):
        with pytest.raises(RuntimeError, match="not connected"):
            XAppClient("127.0.0.1", 1, 1).unsubscribe(1, (("a", 10),))


class StubListener:
    """Stands in for the broker's listening socket: each ``accept()``
    returns the next outcome, or raises it if it is an exception."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def accept(self):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class FakePeer:
    """Stands in for a connected peer; records what the broker sends it.

    With ``delivers=False`` every send fails, as on a broken socket.
    """

    def __init__(self, delivers=True):
        self.sent = []
        self.delivers = delivers

    def send(self, msg):
        self.sent.append(msg)
        return self.delivers


class RacingPeer(FakePeer):
    """A node that, when sent its setup reply, first starts ``racer`` and
    waits up to 0.3 s for it, as if another connection's push were
    scheduled just before the reply goes out."""

    def __init__(self, racer):
        super().__init__()
        self.racer = racer

    def send(self, msg):
        if isinstance(msg, SetupResponse):
            self.racer.start()
            self.racer.join(timeout=0.3)
        return super().send(msg)


class TestRouting:
    def test_indication_reaches_only_the_xapps_of_its_period(self):
        broker = Broker()
        node, fast, slow = FakePeer(), FakePeer(), FakePeer()
        assert broker._handle_setup(node, SetupRequest(1)) == 1
        broker._xapps.update({10: fast, 11: slow})
        a40, a60 = SubscriptionItem("a", 40), SubscriptionItem("a", 60)
        b60 = SubscriptionItem("b", 60)
        broker._handle_subscribe(fast, Subscribe(10, 1, (b60,)))
        broker._handle_subscribe(fast, Subscribe(10, 1, (a40,)))
        broker._handle_subscribe(slow, Subscribe(11, 1, (a60,)))
        assert fast.sent == [SubscribeReply(1, True)] * 2
        assert slow.sent == [SubscribeReply(1, True)]
        # 40 and 60 ms without tolerance: two streams for KPI "a".
        assert broker.plan_streams(1) == {("a", 40), ("a", 60), ("b", 60)}
        fast.sent.clear()
        slow.sent.clear()

        broker._handle_indication(Indication(1, 0, 60, (("a", 0), ("b", 0))), 50)
        broker._handle_indication(Indication(1, 0, 40, (("a", 0), ("b", 0))), 50)
        broker._handle_indication(Indication(1, 0, 20, (("a", 0),)), 50)
        assert fast.sent == [
            Indication(1, 0, 60, (("b", 0),)),
            Indication(1, 0, 40, (("a", 0),)),
        ]
        assert slow.sent == [Indication(1, 0, 60, (("a", 0),))]

        # A node that sets up again gets the same streams, by KPI then period.
        del broker._nodes[1]
        again = FakePeer()
        broker._handle_setup(again, SetupRequest(1))
        assert again.sent == [SetupResponse(1, True), Subscribe(BROKER_SENDER, 1, (a40, a60, b60))]

    def test_fan_out_frames_carry_exactly_each_xapps_samples(self, broker):
        """One indication frame from a node socket reaches two xApp sockets
        as the exact bytes of an indication with only that xApp's samples."""
        a20, b20 = SubscriptionItem("a", 20), SubscriptionItem("b", 20)
        a40, c40 = SubscriptionItem("a", 40), SubscriptionItem("c", 40)
        sockets = [socket.create_connection(broker.address, timeout=5) for _ in range(3)]
        node, fast, slow = sockets
        try:
            node.sendall(encode(SetupRequest(1)))
            assert read_frame(node) == encode(SetupResponse(1, True))
            for sock, xapp, items in ((fast, 10, (a20, b20)), (slow, 11, (a40, c40))):
                sock.sendall(encode(Subscribe(xapp, 1, items)))
                assert read_frame(sock) == encode(SubscribeReply(1, True))
            # "a" at 40 ms rides the 20 ms stream; "c" has a 40 ms stream of its own.
            assert read_frame(node) == encode(Subscribe(BROKER_SENDER, 1, (a20, b20)))
            assert read_frame(node) == encode(Subscribe(BROKER_SENDER, 1, (c40,)))
            node.sendall(encode(Indication(1, 120, 20, (("a", 120), ("b", 120)))))
            assert read_frame(fast) == encode(Indication(1, 120, 20, (("a", 120), ("b", 120))))
            assert read_frame(slow) == encode(Indication(1, 120, 20, (("a", 120),)))
        finally:
            for sock in sockets:
                sock.close()

    def test_each_xapp_gets_the_indications_of_its_planned_stream(self):
        rng = random.Random(20260809)
        for _ in range(300):
            broker = Broker()
            broker._handle_setup(FakePeer(), SetupRequest(1))
            xapps = {}
            # Ids are not ranks: draw them apart and in no order.
            for xapp in rng.sample(range(100), rng.randint(1, 5)):
                tolerance = rng.choice([None, rng.randint(1, 16)])
                item = SubscriptionItem("K", rng.randint(1, 24), tolerance)
                peer = xapps[xapp] = broker._xapps[xapp] = FakePeer()
                broker._handle_subscribe(peer, Subscribe(xapp, 1, (item,)))
                assert peer.sent == [SubscribeReply(1, True)]
                peer.sent.clear()
            plan = broker._engine.plan_for(1, "K")
            # Periods run 1-24 ms, so no stream is at 25 ms.
            for period in [s.period_ms for s in plan.streams] + [25]:
                broker._handle_indication(Indication(1, period, period, (("K", period),)), 40)
            for xapp, peer in xapps.items():
                period = plan.streams[plan.fanout[xapp]].period_ms
                assert peer.sent == [Indication(1, period, period, (("K", period),))]

    def test_retime_subscribes_the_new_period_before_dropping_the_old(self):
        broker = Broker()
        node, slow, fast = FakePeer(), FakePeer(), FakePeer()
        broker._handle_setup(node, SetupRequest(1))
        broker._xapps.update({10: slow, 11: fast})
        broker._handle_subscribe(slow, Subscribe(10, 1, (SubscriptionItem("K0", 100),)))
        node.sent.clear()
        broker._handle_subscribe(fast, Subscribe(11, 1, (SubscriptionItem("K0", 50),)))
        # The node is never left without a K0 stream.
        assert node.sent == [
            Subscribe(BROKER_SENDER, 1, (SubscriptionItem("K0", 50),)),
            Unsubscribe(BROKER_SENDER, 1, (("K0", 100),)),
        ]

    def test_each_op_pushes_the_diff_between_the_plans_around_it(self):
        """Over the engine's churn corpus, each single-item subscribe and
        unsubscribe, and the disconnect of an xApp holding both KPIs, pushes
        the node the diff between the plans before and after it: the new
        streams as one Subscribe, then the vanished ones as one Unsubscribe."""

        def pushes(diffs):
            new = tuple(SubscriptionItem(s.kpi, s.period_ms) for _, added in diffs for s in added)
            gone = tuple((s.kpi, s.period_ms) for removed, _ in diffs for s in removed)
            return [Subscribe(BROKER_SENDER, 0, new)] * bool(new) + [
                Unsubscribe(BROKER_SENDER, 0, gone)
            ] * bool(gone)

        retimes = disconnects = 0
        for seed in range(600):
            broker = Broker()
            node, xapp = FakePeer(), FakePeer()
            broker._handle_setup(node, SetupRequest(0))
            engine = broker._engine
            kpis = {}  # each xApp's KPIs, in the order it subscribed to them
            for action, d in churn_ops(random.Random(seed)):
                before = engine.plan_for(0, d.kpi)
                node.sent.clear()
                if action == "add":
                    item = SubscriptionItem(d.kpi, d.period_ms, d.sensitivity_ms)
                    broker._handle_subscribe(xapp, Subscribe(d.xapp, 0, (item,)))
                    assert xapp.sent.pop() == SubscribeReply(0, True)
                    kpis.setdefault(d.xapp, {})[d.kpi] = None
                else:
                    broker._handle_unsubscribe(Unsubscribe(d.xapp, 0, ((d.kpi, d.period_ms),)))
                    del kpis[d.xapp][d.kpi]
                gone, new = diff = plan_diff(before, engine.plan_for(0, d.kpi))
                assert node.sent == pushes([diff]), (seed, action, d)
                retimes += bool(gone and new)
            leaving = max(kpis, key=lambda x: len(kpis[x]), default=None)
            if leaving is None or len(kpis[leaving]) < 2:
                continue
            befores = {kpi: engine.plan_for(0, kpi) for kpi in kpis[leaving]}
            node.sent.clear()
            broker._xapps[leaving] = xapp
            broker._conns[xapp] = None
            broker._cleanup(xapp, None, leaving)
            diffs = [plan_diff(old, engine.plan_for(0, kpi)) for kpi, old in befores.items()]
            assert node.sent == pushes(diffs), (seed, leaving)
            disconnects += 1
        # Enough retimes that push order shows, and enough two-KPI disconnects.
        assert retimes > 400 and disconnects > 100

    def test_undelivered_node_push_is_logged(self, caplog):
        caplog.set_level(logging.WARNING, logger="ricmerge.wire")
        broker = Broker()
        node, xapp = FakePeer(delivers=False), FakePeer()
        broker._handle_setup(node, SetupRequest(7))
        broker._xapps[10] = xapp
        broker._handle_subscribe(xapp, Subscribe(10, 7, (SubscriptionItem("K0", 40),)))
        assert xapp.sent == [SubscribeReply(7, True)]
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "node 7" in record.getMessage()
        assert "Subscribe" in record.getMessage()
        assert "K0" in record.getMessage()

    def test_unsubscribe_of_demands_not_held_is_logged_once(self, caplog):
        caplog.set_level(logging.WARNING, logger="ricmerge.wire")
        broker = Broker()
        node, xapp = FakePeer(), FakePeer()
        broker._handle_setup(node, SetupRequest(7))
        broker._xapps[10] = xapp
        broker._handle_subscribe(xapp, Subscribe(10, 7, (SubscriptionItem("K0", 40),)))
        node.sent.clear()
        held_and_not = (("K0", 40),) + tuple((f"X{i}", 40) for i in range(5))
        broker._handle_unsubscribe(Unsubscribe(10, 7, held_and_not))
        assert node.sent == [Unsubscribe(BROKER_SENDER, 7, (("K0", 40),))]
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        message = record.getMessage()
        assert "xApp 10" in message and "node 7" in message and "5 items" in message
        assert "X0" in message and "X2" in message and "X3" not in message
        assert "K0" not in message

    def test_setup_reply_and_backlog_reach_the_node_before_a_racing_push(self):
        broker = Broker()
        first, xapp = FakePeer(), FakePeer()
        broker._handle_setup(first, SetupRequest(1))
        broker._xapps[10] = xapp
        broker._handle_subscribe(xapp, Subscribe(10, 1, (SubscriptionItem("K0", 40),)))
        del broker._nodes[1]
        racer = threading.Thread(
            target=broker._handle_subscribe,
            args=(xapp, Subscribe(10, 1, (SubscriptionItem("K1", 40),))),
        )
        node = RacingPeer(racer)
        assert broker._handle_setup(node, SetupRequest(1)) == 1
        racer.join(timeout=5)
        assert not racer.is_alive()
        assert node.sent == [
            SetupResponse(1, True),
            Subscribe(BROKER_SENDER, 1, (SubscriptionItem("K0", 40),)),
            Subscribe(BROKER_SENDER, 1, (SubscriptionItem("K1", 40),)),
        ]

    def test_undelivered_setup_backlog_is_logged(self, caplog):
        caplog.set_level(logging.WARNING, logger="ricmerge.wire")
        broker = Broker()
        first, xapp = FakePeer(), FakePeer()
        broker._handle_setup(first, SetupRequest(7))
        broker._xapps[10] = xapp
        broker._handle_subscribe(xapp, Subscribe(10, 7, (SubscriptionItem("K0", 40),)))
        del broker._nodes[7]
        broker._handle_setup(FakePeer(delivers=False), SetupRequest(7))
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "node 7" in record.getMessage()
        assert "Subscribe" in record.getMessage()
        assert "K0" in record.getMessage()

    def test_undelivered_push_log_line_is_bounded(self, caplog):
        caplog.set_level(logging.WARNING, logger="ricmerge.wire")
        broker = Broker()
        node, xapp = FakePeer(delivers=False), FakePeer()
        broker._handle_setup(node, SetupRequest(7))
        broker._xapps[10] = xapp
        items = tuple(SubscriptionItem(f"K{i}", 40) for i in range(200))
        broker._handle_subscribe(xapp, Subscribe(10, 7, items))
        [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
        message = record.getMessage()
        assert "200 items" in message and "K0" in message
        assert len(message) < 300


    def test_indication_for_another_node_drops_the_peer(self, broker, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="ricmerge.wire")
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        xapp = FakePeer()
        broker._handle_setup(FakePeer(), SetupRequest(2))
        broker._xapps[10] = xapp
        broker._handle_subscribe(xapp, Subscribe(10, 2, (SubscriptionItem("K0", 40),)))
        # Node 2 is connected, node 7 is not; each claim comes from node 1.
        for claimed in (2, 7):
            with socket.create_connection(broker.address, timeout=5) as sock:
                sock.sendall(encode(SetupRequest(1)))
                assert decode(read_frame(sock)) == SetupResponse(1, True)
                sock.sendall(encode(Indication(claimed, 0, 40, (("K0", 0),))))
                assert read_frame(sock) is None
            reason = f"(indication for node {claimed} from node 1)"
            assert wait_until(lambda: reason in caplog.text), caplog.text
        assert xapp.sent == [SubscribeReply(2, True)]
        assert broker.node_traffic[2].messages == 0
        assert errors == []


class CountingDict(dict):
    """A dict that logs the keys stored or deleted through it, calling
    ``on_write(key)`` after each, and counts the entries walks over it read."""

    def __init__(self, *args, on_write=None):
        super().__init__(*args)
        self.written = []
        self.walked = 0
        self.on_write = on_write

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._wrote(key)

    def __delitem__(self, key):
        super().__delitem__(key)
        self._wrote(key)

    def _wrote(self, key):
        self.written.append(key)
        if self.on_write is not None:
            self.on_write(key)

    def __iter__(self):
        self.walked += len(self)
        return super().__iter__()

    def keys(self):
        self.walked += len(self)
        return super().keys()

    def values(self):
        self.walked += len(self)
        return super().values()

    def items(self):
        self.walked += len(self)
        return super().items()


class TestPerKeyRouting:
    @pytest.mark.parametrize("held", [10, 10_000])
    def test_a_change_writes_only_the_routes_it_touches(self, held):
        """Whatever the number of groups held, a subscribe, an unsubscribe
        and a disconnect write only their own routing keys, and neither the
        broker nor the engine walks its tables."""
        broker = Broker()
        node, bulk, leaving, late = FakePeer(), FakePeer(), FakePeer(), FakePeer()
        broker._handle_setup(node, SetupRequest(1))
        broker._xapps.update({1: bulk, 2: leaving, 3: late})
        broker._conns[leaving] = None
        many = tuple(SubscriptionItem(f"K{i}", 40) for i in range(held))
        broker._handle_subscribe(bulk, Subscribe(1, 1, many))
        both = (SubscriptionItem("L0", 40), SubscriptionItem("L1", 20))
        broker._handle_subscribe(leaving, Subscribe(2, 1, both))
        routing = broker._routing = CountingDict(broker._routing)
        engine = broker._engine
        engine._demands, engine._groups = CountingDict(engine._demands), CountingDict(engine._groups)
        node.sent.clear()

        broker._handle_subscribe(late, Subscribe(3, 1, (SubscriptionItem("N", 50),)))
        broker._handle_unsubscribe(Unsubscribe(3, 1, (("N", 50),)))
        broker._cleanup(leaving, None, 2)

        assert broker._routing is routing
        assert routing.written == [(1, "N"), (1, "N"), (1, "L0"), (1, "L1")]
        assert routing.walked == engine._demands.walked == engine._groups.walked == 0
        assert node.sent == [
            Subscribe(BROKER_SENDER, 1, (SubscriptionItem("N", 50),)),
            Unsubscribe(BROKER_SENDER, 1, (("N", 50),)),
            Unsubscribe(BROKER_SENDER, 1, (("L0", 40), ("L1", 20))),
        ]
        assert routing == groups(engine) and len(routing) == held

    def test_an_indication_racing_a_commit_is_routed_per_kpi(self):
        """A commit that touches several KPIs of one node writes their
        routes one at a time, and an indication routed between two writes
        sees some KPIs before the commit and some after. That is enough:
        a sample's xApps depend on its own group only, so each sample goes
        where its group's old plan or its new plan sends it."""
        broker = Broker()
        node, slow, fast = FakePeer(), FakePeer(), FakePeer()
        broker._handle_setup(node, SetupRequest(1))
        broker._xapps.update({10: slow, 11: fast})
        def items(period):
            return SubscriptionItem("a", period), SubscriptionItem("b", period)

        broker._handle_subscribe(slow, Subscribe(10, 1, items(40)))
        slow.sent.clear()
        seen = []

        def route_now(key):
            for period in (40, 20):
                broker._handle_indication(Indication(1, 0, period, (("a", 0), ("b", 0))), 60)
            seen.append((key, slow.sent[:], fast.sent[:]))
            slow.sent.clear()
            fast.sent.clear()

        broker._routing = CountingDict(broker._routing, on_write=route_now)
        # One commit retimes both KPIs from 40 ms to one 20 ms stream.
        broker._handle_subscribe(fast, Subscribe(11, 1, items(20)))

        def sent(period, *kpis):
            return Indication(1, 0, period, tuple((kpi, 0) for kpi in kpis))

        assert seen == [
            # "a" is routed by its new plan, "b" still by its old one.
            ((1, "a"), [sent(40, "b"), sent(20, "a")], [sent(20, "a")]),
            ((1, "b"), [sent(20, "a", "b")], [sent(20, "a", "b")]),
        ]
        assert fast.sent == [SubscribeReply(1, True)]

    def test_indications_routed_during_commits_see_whole_groups(self):
        """Stress: four threads route 20 ms indications while a fifth keeps
        moving ten KPIs between one 40 ms stream and one 20 ms stream that
        feeds both xApps. Each sample reaches both xApps or neither, and
        the routing ends equal to the engine's groups."""
        broker = Broker()
        node, slow, fast = FakePeer(), FakePeer(), FakePeer()
        broker._handle_setup(node, SetupRequest(1))
        broker._xapps.update({10: slow, 11: fast})
        kpis = [f"K{i}" for i in range(10)]
        broker._handle_subscribe(slow, Subscribe(10, 1, tuple(SubscriptionItem(k, 40) for k in kpis)))
        retime = Subscribe(11, 1, tuple(SubscriptionItem(k, 20) for k in kpis))
        back = Unsubscribe(11, 1, tuple((k, 20) for k in kpis))
        samples = tuple((k, 0) for k in kpis)
        errors = []

        def commit():
            try:
                for _ in range(200):
                    broker._handle_subscribe(fast, retime)
                    broker._handle_unsubscribe(back)
            except Exception as exc:
                errors.append(exc)

        def route(worker):
            try:
                for i in range(2000):
                    broker._handle_indication(Indication(1, worker * 10_000 + i, 20, samples), 99)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=commit)]
        threads += [threading.Thread(target=route, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []

        def delivered(peer):
            return {
                m.emit_time_ms: {kpi for kpi, _ in m.samples}
                for m in peer.sent
                if isinstance(m, Indication)
            }

        assert delivered(slow) == delivered(fast)
        assert broker._routing == groups(broker._engine)


class TestIdleConnections:
    def test_subscription_after_idle_reaches_the_node(self, broker, monkeypatch):
        monkeypatch.setattr(wire, "CONNECT_TIMEOUT_S", 0.2)
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=5)
        node.start()
        client = XAppClient(host, port, 50)
        client.connect()
        try:
            time.sleep(0.6)  # three connect timeouts without traffic
            assert client.subscribe(5, (SubscriptionItem("K0", 50),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})
            assert wait_until(lambda: client.received_messages >= 2)
        finally:
            client.close()
            node.stop()

    def test_node_logs_why_its_reader_stopped(self, caplog):
        caplog.set_level(logging.INFO, logger="ricmerge.wire")
        broker = Broker()
        broker.start()
        node = NodeEmulator(*broker.address, node_id=6)
        node.start()
        try:
            broker.stop()
            assert wait_until(
                lambda: any(
                    r.levelno == logging.WARNING and "node 6: reader stopped (" in r.getMessage()
                    for r in caplog.records
                )
            )
        finally:
            node.stop()


class TestConnectionEnded:
    def test_node_is_ended_soon_after_the_broker_stops(self):
        broker = Broker()
        broker.start()
        node = NodeEmulator(*broker.address, node_id=7)
        node.start()
        try:
            assert not node.ended.is_set()
            broker.stop()
            assert node.ended.wait(1)
            assert node.reason
        finally:
            node.stop()

    def test_xapp_is_ended_soon_after_the_broker_stops(self):
        broker = Broker()
        broker.start()
        client = XAppClient(*broker.address, 70)
        client.connect()
        try:
            assert not client.ended.is_set()
            broker.stop()
            assert client.ended.wait(1)
            assert client.reason
        finally:
            client.close()

    def test_node_is_ended_when_its_emitter_cannot_send(self, broker):
        node = NodeEmulator(*broker.address, node_id=8)
        node.start()
        node._peer.send = lambda msg: False
        client = XAppClient(*broker.address, 80)
        client.connect()
        try:
            assert client.subscribe(8, (SubscriptionItem("K0", 20),)).accepted
            assert node.ended.wait(5)
            assert node.reason == "send failed"
        finally:
            client.close()
            node.stop()

    def test_a_stopped_node_is_not_ended(self, broker):
        node = NodeEmulator(*broker.address, node_id=9)
        node.start()
        node.stop()
        assert not node.ended.is_set() and node.reason is None


class TestLiveMode:
    def test_identical_subscriptions_share_one_stream(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=1)
        node.start()
        a = XAppClient(host, port, 10)
        b = XAppClient(host, port, 11)
        a.connect()
        b.connect()
        try:
            items = (SubscriptionItem("KPI0000", 50),)
            assert a.subscribe(1, items).accepted
            assert b.subscribe(1, items).accepted
            assert wait_until(lambda: node.active_streams() == {("KPI0000", 50)})
            assert wait_until(lambda: a.received_messages >= 3)
            assert wait_until(lambda: b.received_messages >= 3)
            assert broker.plan_streams(1) == {("KPI0000", 50)}
        finally:
            a.close()
            b.close()
            node.stop()

    def test_partial_overlap_is_merged_per_kpi(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=2)
        node.start()
        a = XAppClient(host, port, 20)
        b = XAppClient(host, port, 21)
        a.connect()
        b.connect()
        try:
            assert a.subscribe(
                2, (SubscriptionItem("K0", 40), SubscriptionItem("K1", 60))
            ).accepted
            assert b.subscribe(2, (SubscriptionItem("K0", 40),)).accepted
            assert wait_until(
                lambda: node.active_streams() == {("K0", 40), ("K1", 60)}
            )
            assert wait_until(lambda: b.samples_per_kpi.get("K0", 0) >= 2)
            assert "K1" not in b.samples_per_kpi
        finally:
            a.close()
            b.close()
            node.stop()

    def test_unknown_node_subscription_fails(self, broker):
        host, port = broker.address
        client = XAppClient(host, port, 30)
        client.connect()
        try:
            reply = client.subscribe(99, (SubscriptionItem("K0", 50),))
            assert not reply.accepted
            assert reply.reason == "unknown node"
        finally:
            client.close()

    def test_conflicting_subscription_leaves_state_untouched(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=8)
        node.start()
        client = XAppClient(host, port, 70)
        client.connect()
        try:
            assert client.subscribe(8, (SubscriptionItem("K0", 50),)).accepted
            reply = client.subscribe(
                8, (SubscriptionItem("K1", 50), SubscriptionItem("K0", 100))
            )
            assert not reply.accepted
            assert "already subscribes" in reply.reason
            # The rejected request must not have planted its first item.
            assert broker.plan_streams(8) == {("K0", 50)}
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})
        finally:
            client.close()
            node.stop()

    def test_resubscription_is_idempotent(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=3)
        node.start()
        client = XAppClient(host, port, 40)
        client.connect()
        try:
            items = (SubscriptionItem("K0", 50),)
            assert client.subscribe(3, items).accepted
            assert client.subscribe(3, items).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})
        finally:
            client.close()
            node.stop()

    def test_faster_subscription_retimes_node_stream(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=4)
        node.start()
        a = XAppClient(host, port, 50)
        b = XAppClient(host, port, 51)
        a.connect()
        b.connect()
        try:
            assert a.subscribe(4, (SubscriptionItem("K0", 100),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 100)})
            assert b.subscribe(4, (SubscriptionItem("K0", 50),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})
        finally:
            a.close()
            b.close()
            node.stop()

    def test_unsubscribe_retimes_then_clears_the_node(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=7)
        node.start()
        a = XAppClient(host, port, 80)
        b = XAppClient(host, port, 81)
        a.connect()
        b.connect()
        try:
            assert a.subscribe(7, (SubscriptionItem("K0", 100),)).accepted
            assert b.subscribe(7, (SubscriptionItem("K0", 50),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})

            b.unsubscribe(7, (("K0", 50),))
            assert wait_until(lambda: node.active_streams() == {("K0", 100)})
            received = a.received_messages
            assert wait_until(lambda: a.received_messages >= received + 2)

            # The unknown KPI is ignored; the connection stays open.
            a.unsubscribe(7, (("K0", 100), ("K9", 100)))
            assert wait_until(lambda: node.active_streams() == set())
            assert broker.plan_streams(7) == set()
            assert a.subscribe(7, (SubscriptionItem("K1", 100),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K1", 100)})
        finally:
            a.close()
            b.close()
            node.stop()

    def test_disconnect_tears_down_owned_streams(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=5)
        node.start()
        client = XAppClient(host, port, 60)
        client.connect()
        try:
            assert client.subscribe(5, (SubscriptionItem("K0", 50),)).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 50)})
        finally:
            client.close()
        assert wait_until(lambda: node.active_streams() == set())
        node.stop()

    def test_tcp_connections_send_without_delay(self, broker):
        node = NodeEmulator(*broker.address, node_id=13)
        node.start()
        client = XAppClient(*broker.address, 130)
        client.connect()
        try:
            assert wait_until(lambda: len(broker._conns) == 2)
            with broker._lock:
                accepted = [peer.sock for peer in broker._conns]
            for sock in [node._peer.sock, client._peer.sock, *accepted]:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close()
            node.stop()

    def test_duplicate_node_id_rejected(self, broker):
        host, port = broker.address
        first = NodeEmulator(host, port, node_id=6)
        first.start()
        second = NodeEmulator(host, port, node_id=6)
        with pytest.raises(ConnectionError, match="node already connected"):
            second.start()
        first.stop()

    def test_duplicate_xapp_id_rejected(self, broker):
        """A second connection that subscribes with a held xApp id is
        refused and closed; the first keeps its indications and demands."""
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=12)
        node.start()
        first = XAppClient(host, port, 70)
        impostor = XAppClient(host, port, 70)
        first.connect()
        impostor.connect()
        try:
            assert first.subscribe(12, (SubscriptionItem("a", 20),)).accepted
            reply = impostor.subscribe(12, (SubscriptionItem("a", 20),))
            assert (reply.accepted, reply.reason) == (False, "xApp already connected")
            impostor.close()
            seen = first.samples_per_kpi.get("a", 0)
            assert wait_until(lambda: first.samples_per_kpi.get("a", 0) >= seen + 3)
            assert impostor.received_samples == 0
            assert broker.plan_streams(12) == {("a", 20)}
        finally:
            first.close()
            impostor.close()
            node.stop()

    def test_unreachable_broker_retries_then_fails(self, monkeypatch):
        monkeypatch.setattr(wire, "CONNECT_ATTEMPTS", 2)
        monkeypatch.setattr(wire, "CONNECT_BACKOFF_S", 0.01)
        node = NodeEmulator("127.0.0.1", 1, node_id=9)
        started = time.monotonic()
        with pytest.raises(ConnectionError, match=r"unreachable \(attempts: 2\)"):
            node.start()
        assert time.monotonic() - started < 5

    def test_unreachable_broker_fails_the_xapp_connect(self):
        client = XAppClient("127.0.0.1", 1, 1)
        with pytest.raises(ConnectionError, match=r"unreachable \(attempts: 1\)"):
            client.connect()
        client.close()

    def test_a_late_reply_answers_no_later_subscribe(self, monkeypatch):
        """After a timed-out subscribe the client closes its connection, so
        the reply that comes late is never taken as the next call's, and the
        next subscribe fails at once because it cannot be sent."""
        monkeypatch.setattr(wire, "REPLY_TIMEOUT_S", 0.1)
        listener = socket.create_server(("127.0.0.1", 0))
        replied = threading.Event()

        def answer_late():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                read_frame(conn)
                time.sleep(0.3)
                try:
                    conn.sendall(encode(SubscribeReply(3, False, "reply to the first")))
                except OSError:
                    pass  # the client may already have gone
                replied.set()

        thread = threading.Thread(target=answer_late, name="late-replier")
        thread.start()
        client = XAppClient(*listener.getsockname(), 1)
        try:
            client.connect()
            with pytest.raises(TimeoutError, match="connection closed"):
                client.subscribe(3, (SubscriptionItem("a", 10),))
            assert replied.wait(5)
            monkeypatch.setattr(wire, "REPLY_TIMEOUT_S", 5.0)
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="subscribe not sent"):
                client.subscribe(3, (SubscriptionItem("b", 10),))
            assert time.monotonic() - started < 1
            with pytest.raises(ConnectionError, match="unsubscribe not sent"):
                client.unsubscribe(3, (("a", 10),))
        finally:
            client.close()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()

    def test_a_broker_that_closes_fails_the_subscribe_at_once(self, monkeypatch):
        """The broker closes without a reply (as it does after a malformed
        frame or on stop): the waiting subscribe fails with the reader's
        reason instead of waiting out the reply timeout."""
        monkeypatch.setattr(wire, "REPLY_TIMEOUT_S", 5.0)
        listener = socket.create_server(("127.0.0.1", 0))

        def read_and_close():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                read_frame(conn)

        thread = threading.Thread(target=read_and_close, name="closing-broker")
        thread.start()
        client = XAppClient(*listener.getsockname(), 1)
        try:
            client.connect()
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="no subscription reply: connection closed"):
                client.subscribe(3, (SubscriptionItem("a", 10),))
            assert time.monotonic() - started < 1
        finally:
            client.close()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()

    @pytest.mark.parametrize(
        "reply, cause",
        [
            (None, "setup failed: read failed: timed out"),
            (b"\0\0\0\0", "setup failed: malformed frame: truncated frame"),
            (b"", "setup failed: connection closed"),
            (encode(Indication(9, 0, 10, ())), "setup failed: unexpected Indication"),
            (encode(SetupResponse(9, False, "no")), "setup rejected: no"),
        ],
        ids=["silent", "malformed", "closed", "wrong-kind", "rejected"],
    )
    def test_failed_setup_closes_the_socket(self, monkeypatch, setup_replier, reply, cause):
        monkeypatch.setattr(wire, "CONNECT_TIMEOUT_S", 0.2)
        replier = setup_replier(reply)
        node = NodeEmulator(*replier.address, node_id=9)
        with pytest.raises(ConnectionError) as exc:
            node.start()
        assert str(exc.value) == cause
        replier.close()
        assert replier.node_closed is True
        node.stop()


def node_threads(node_id):
    return sorted(
        t.name
        for t in threading.enumerate()
        if t.name == f"node-{node_id}" or t.name.startswith(f"node-{node_id}-")
    )


class TestEmitter:
    def test_one_emitter_thread_serves_every_period(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=11)
        node.start()
        client = XAppClient(host, port, 110)
        client.connect()
        try:
            items = (SubscriptionItem("K0", 20), SubscriptionItem("K1", 30))
            assert client.subscribe(11, items).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 20), ("K1", 30)})
            assert wait_until(lambda: client.samples_per_kpi.get("K1", 0) >= 3)
            assert client.samples_per_kpi["K0"] >= 3
            assert len(node_threads(11)) == 2
        finally:
            client.close()
            node.stop()
        assert node.emitted_messages == len(node.emit_times)
        assert node_threads(11) == []

    def test_period_resubscribed_many_times_keeps_emitting(self, broker):
        host, port = broker.address
        node = NodeEmulator(host, port, node_id=12)
        node.start()
        client = XAppClient(host, port, 120)
        client.connect()
        try:
            items = (SubscriptionItem("K0", 20),)
            for _ in range(50):
                assert client.subscribe(12, items).accepted
                client.unsubscribe(12, (("K0", 20),))
            assert client.subscribe(12, items).accepted
            assert wait_until(lambda: node.active_streams() == {("K0", 20)})
            emitted = node.emitted_messages
            assert wait_until(lambda: node.emitted_messages >= emitted + 5)
        finally:
            client.close()
            node.stop()
