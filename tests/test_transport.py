import random
import socket
import struct
import threading
import time

import pytest

from saska.errors import MalformedMessage, Timeout
from saska.protocol import Peer, Role
from saska import transport
from saska.transport import StreamChannel, StreamListener, connect_stream


def frame_of(body: bytes, tag: int = 0x01) -> bytes:
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


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
            b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
            while b.sas is None:
                for frame in b.receive(chan.recv_frame(2.0)):
                    chan.send_frame(frame)
            box["sas_b"] = b.sas
            chan.close()

        t = threading.Thread(target=server)
        t.start()
        chan = connect_stream("127.0.0.1", listener.port, timeout=2.0)
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        for frame in a.start():
            chan.send_frame(frame)
        for frame in a.receive(chan.recv_frame(2.0)):
            chan.send_frame(frame)
        t.join()
        listener.close()
        chan.close()
        assert a.sas == box["sas_b"]

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
        with pytest.raises(ConnectionError, match="^peer closed the stream$"):
            client.recv_frame(1.0)
        client.close()
        listener.close()

    def test_send_to_closed_peer_raises_channel_closed(self):
        near, far = socket.socketpair()
        far.close()
        chan = StreamChannel(near)
        try:
            with pytest.raises(BrokenPipeError):
                chan.send_frame(frame_of(b"\x01" * 32))
        finally:
            chan.close()

    def test_reset_connection_raises_channel_closed(self):
        listener = StreamListener(0)
        client = connect_stream("127.0.0.1", listener.port, timeout=1.0)
        server = listener.accept(1.0)
        # linger on with a zero timeout: close() sends RST, not FIN
        server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        server.close()
        try:
            with pytest.raises(ConnectionResetError):
                client.recv_frame(1.0)
        finally:
            client.close()
            listener.close()

    def test_spent_deadline_times_out_before_any_read(self):
        near, far = socket.socketpair()
        chan = StreamChannel(near)
        frame = frame_of(b"\x03" * 32)
        try:
            far.sendall(frame)
            with pytest.raises(Timeout):
                chan.recv_frame(1e-9)
            assert chan.recv_frame(1.0) == frame  # the waiting frame was not touched
        finally:
            chan.close()
            far.close()

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
