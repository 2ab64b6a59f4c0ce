"""Frame transport over TCP.

StreamChannel carries the protocol frames verbatim over a connected stream
socket; the CLI peers use it.  The simulator needs no channel object: it
moves frames between two sans-I/O peers itself (see adversary).
"""

from __future__ import annotations

import socket
import time

from .errors import Timeout
from .protocol import HEADER_LEN, frame_body_length


class StreamChannel:
    """Duplex frame channel over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_frame(self, frame: bytes):
        self._sock.sendall(frame)

    def _read_exact(self, n: int, deadline: float, timeout: float) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Timeout(f"no frame within {timeout} s")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(n - len(buf))
            except socket.timeout:
                raise Timeout(f"no frame within {timeout} s") from None
            if not chunk:
                raise ConnectionError("peer closed the stream")
            buf.extend(chunk)
        return bytes(buf)

    def recv_frame(self, timeout: float) -> bytes:
        """Read one whole frame; `timeout` bounds the whole frame, not each
        recv()."""
        deadline = time.monotonic() + timeout
        header = self._read_exact(HEADER_LEN, deadline, timeout)
        body_len = frame_body_length(header)
        return header + self._read_exact(body_len, deadline, timeout)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def connect_stream(address: str, port: int, timeout: float) -> StreamChannel:
    """Connect to a listening peer.  Raises Timeout on connect expiry;
    ConnectionRefusedError propagates when nothing is listening."""
    try:
        sock = socket.create_connection((address, port), timeout=timeout)
    except socket.timeout:
        raise Timeout(f"connect to {address}:{port} timed out after {timeout} s") from None
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return StreamChannel(sock)


class StreamListener:
    """Listening socket that accepts one pairing peer at a time."""

    def __init__(self, port: int):
        self._sock = socket.create_server(("", port), backlog=1)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self, timeout: float) -> StreamChannel:
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise Timeout(f"no peer connected within {timeout} s") from None
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return StreamChannel(conn)

    def close(self):
        self._sock.close()
