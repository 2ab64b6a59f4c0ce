import random
import socket
import threading
import time

import pytest

from saska.adversary import AttackStrategy, StrategyKind, _Attacker, _run_trial
from saska.errors import ChannelClosed, MalformedMessage, Timeout
from saska.protocol import (
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    AuthNonce,
    decode_message,
    encode_message,
    init_initiator,
    initiator_on_payload,
    responder_on_commit,
    responder_on_decommit,
)
from saska import transport
from saska.transport import (
    Deliver,
    Direction,
    Drop,
    Inject,
    Replace,
    StreamChannel,
    StreamListener,
    connect_stream,
)


def frame_of(body: bytes, tag: int = 0x01) -> bytes:
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


class Scripted(_Attacker):
    """An attacker whose every decision is made by a plain function; the
    _Attacker base answers the key comparisons once the victims confirm."""

    def __init__(self, decide, params, k):
        super().__init__(AttackStrategy(StrategyKind.FULL_MITM), params, k, random.Random(0))
        self.decide = decide

    def __call__(self, frame, direction, history):
        return self.decide(frame, direction, history)


def run_through(decide, params, k=20):
    """One honest initiator and responder, every frame passing `decide`."""
    return _run_trial(params, k, random.Random(1), random.Random(2), Scripted(decide, params, k))


class TestInterposition:
    def test_identity_callback_passes_through(self, test_params):
        out = run_through(lambda frame, direction, history: Deliver(), test_params)
        assert out.sas_a is not None and out.sas_a == out.sas_b
        assert out.keys_equal
        assert out.aborts == ()
        assert len(out.transcript) == 3

    def test_drop_everything_starves_both_peers(self, test_params):
        out = run_through(lambda frame, direction, history: Drop(), test_params)
        assert out.sas_a is None and out.sas_b is None
        assert out.aborts == ()
        assert len(out.transcript) == 1
        assert out.transcript[0].delivered == ()

    def test_replace_and_inject(self, test_params):
        swap = frame_of(b"\x55" * 32)
        extra = frame_of(b"\x66" * 32)

        def adversary(frame, direction, history):
            if not history:
                return [Replace(swap), Inject(extra, Direction.B_TO_A)]
            return Deliver()

        out = run_through(adversary, test_params)
        event = out.transcript[0]
        assert isinstance(decode_message(event.frame), Msg1)
        assert event.frame != swap
        assert event.delivered == ((Direction.A_TO_B, swap), (Direction.B_TO_A, extra))
        # B took the swapped commitment and answered it; A took the injected
        # commit frame where it expected a payload, and aborted
        assert isinstance(decode_message(out.transcript[1].frame), Msg2)
        assert out.transcript[1].direction is Direction.B_TO_A
        assert len(out.transcript) == 2
        assert len(out.aborts) == 1 and out.aborts[0].startswith("initiator: MalformedMessage")

    def test_nonce_replacement_causes_sas_mismatch(self, test_params):
        def flip_msg2_nonce(frame, direction, history):
            msg = decode_message(frame)
            if isinstance(msg, Msg2):
                n = msg.payload.auth_nonce
                forged = PairingPayload(
                    msg.payload.identity,
                    msg.payload.public_share,
                    AuthNonce.from_int(n.to_int() ^ 1, n.k),
                )
                return Replace(encode_message(Msg2(msg.param_set_id, msg.k, forged)))
            return Deliver()

        out = run_through(flip_msg2_nonce, test_params)
        assert out.sas_a is not None and out.sas_b is not None
        assert out.sas_a != out.sas_b
        assert not out.success

    def test_transcript_sequencing_and_causality(self, test_params):
        observed_histories = []

        def adversary(frame, direction, history):
            observed_histories.append(history)
            return Deliver()

        out = run_through(adversary, test_params)
        assert [e.seq for e in out.transcript] == [1, 2, 3]
        # decision n saw exactly the events of frames 1..n-1
        assert len(observed_histories) == 3
        for n, history in enumerate(observed_histories):
            assert history == out.transcript[:n]

    def test_deterministic_replay_of_decisions(self, test_params):
        def substitute(frame, direction, history):
            if len(history) == 1:
                return Replace(frame_of(b"\x99" * 32, tag=0x02))
            return Deliver()

        out = run_through(substitute, test_params)
        assert len(out.transcript) == 2
        # replay: feeding the recorded prefix back into the callback
        # reproduces the recorded actions, proving decisions used only
        # frames 1..n
        for i, event in enumerate(out.transcript):
            again = substitute(event.frame, event.direction, out.transcript[:i])
            assert (again,) == event.actions

    def test_duplicating_every_frame_terminates(self, test_params):
        def duplicate(frame, direction, history):
            return [Deliver(), Inject(frame, direction)]

        out = run_through(duplicate, test_params)
        # one callback per frame a peer sends: Msg1, Msg2, Msg3
        assert [type(decode_message(e.frame)) for e in out.transcript] == [Msg1, Msg2, Msg3]
        assert all(len(e.delivered) == 2 for e in out.transcript)
        # the second Msg1 reaches B while it awaits the opening: B aborts,
        # so the Msg3 copies are ignored; A ignores the second Msg2
        assert out.sas_a is not None and out.sas_b is None
        assert out.aborts == (
            "responder: MalformedMessage: expected a decommit message, got Msg1",
        )


class TestStreamTransport:
    def test_loopback_roundtrip(self):
        listener = StreamListener(0)
        results = {}

        def server():
            chan = listener.accept(2.0)
            results["frame"] = chan.recv_frame(2.0)
            chan.send_frame(frame_of(b"\x02" * 32))
            chan.close()

        t = threading.Thread(target=server)
        t.start()
        client = connect_stream("127.0.0.1", listener.port, timeout=2.0)
        sent = frame_of(b"\x01" * 32)
        client.send_frame(sent)
        reply = client.recv_frame(2.0)
        t.join()
        listener.close()
        client.close()
        assert results["frame"] == sent
        assert reply == frame_of(b"\x02" * 32)

    def test_protocol_over_loopback(self, test_params):
        listener = StreamListener(0)
        box = {}

        def server():
            chan = listener.accept(2.0)
            state_b, msg2 = responder_on_commit(
                test_params, "bob", 20, random.Random(2),
                decode_message(chan.recv_frame(2.0)))
            chan.send_frame(encode_message(msg2))
            box["sas_b"] = responder_on_decommit(state_b, decode_message(chan.recv_frame(2.0)))
            chan.close()

        t = threading.Thread(target=server)
        t.start()
        chan = connect_stream("127.0.0.1", listener.port, timeout=2.0)
        state_a, msg1 = init_initiator(test_params, "alice", 20, random.Random(1))
        chan.send_frame(encode_message(msg1))
        msg3, sas_a = initiator_on_payload(state_a, decode_message(chan.recv_frame(2.0)))
        chan.send_frame(encode_message(msg3))
        t.join()
        listener.close()
        chan.close()
        assert sas_a == box["sas_b"]

    def test_connection_refused(self):
        listener = StreamListener(0)
        port = listener.port
        listener.close()
        with pytest.raises(ConnectionRefusedError):
            connect_stream("127.0.0.1", port, timeout=1.0)

    def test_connect_timeout_translated(self, monkeypatch):
        def never_connects(addr, timeout=None):
            raise socket.timeout("timed out")

        monkeypatch.setattr(transport.socket, "create_connection", never_connects)
        with pytest.raises(Timeout):
            connect_stream("203.0.113.1", 9, timeout=0.1)

    def test_recv_timeout(self):
        listener = StreamListener(0)
        client = connect_stream("127.0.0.1", listener.port, timeout=1.0)
        server = listener.accept(1.0)
        with pytest.raises(Timeout):
            client.recv_frame(0.05)
        server.close()
        client.close()
        listener.close()

    def test_peer_close_raises_channel_closed(self):
        listener = StreamListener(0)
        client = connect_stream("127.0.0.1", listener.port, timeout=1.0)
        server = listener.accept(1.0)
        server.close()
        with pytest.raises(ChannelClosed):
            client.recv_frame(1.0)
        client.close()
        listener.close()

    def test_oversize_header_rejected_on_recv(self):
        listener = StreamListener(0)
        client = connect_stream("127.0.0.1", listener.port, timeout=1.0)
        server = listener.accept(1.0)
        server._sock.sendall(bytes([0x01]) + (70000).to_bytes(4, "big"))
        with pytest.raises(MalformedMessage):
            client.recv_frame(1.0)
        server.close()
        client.close()
        listener.close()

    def test_oversize_rejected_at_send(self):
        listener = StreamListener(0)
        client = connect_stream("127.0.0.1", listener.port, timeout=1.0)
        server = listener.accept(1.0)
        with pytest.raises(MalformedMessage):
            client.send_frame(frame_of(b"\x00" * 65536))
        server.close()
        client.close()
        listener.close()

    def test_accept_timeout(self):
        listener = StreamListener(0)
        with pytest.raises(Timeout):
            listener.accept(0.05)
        listener.close()

    def test_timeout_bounds_the_whole_frame(self):
        """A peer dripping one byte every 0.1 s cannot stretch a 0.5 s read."""
        near, far = socket.socketpair()
        stop = threading.Event()
        frame = frame_of(b"\x00" * 32)

        def drip():
            for i in range(len(frame)):
                if stop.wait(0.1):
                    return
                far.sendall(frame[i:i + 1])

        t = threading.Thread(target=drip)
        t.start()
        chan = StreamChannel(near)
        try:
            began = time.monotonic()
            with pytest.raises(Timeout):
                chan.recv_frame(0.5)
            assert time.monotonic() - began < 1.0
        finally:
            stop.set()
            t.join(5.0)
            chan.close()
            far.close()
        assert not t.is_alive()
