"""Frame transport over TCP, and the adversary's action vocabulary.

StreamChannel carries the protocol frames verbatim over a connected stream
socket; the CLI peers use it.  The simulator needs no channel object: it
moves frames between two sans-I/O peers itself and asks an adversary
callback, at send time, what becomes of each frame.  The Dolev-Yao
attacker's choices - overhear, intercept, modify, drop, inject - are the
action classes below.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from enum import Enum

from .errors import ChannelClosed, Timeout
from .protocol import HEADER_LEN, frame_body_length


class Direction(Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"

    @property
    def reverse(self) -> "Direction":
        return Direction.B_TO_A if self is Direction.A_TO_B else Direction.A_TO_B


# Adversary actions.  A callback (frame, direction, history) returns one
# action or a list of them; actions apply in order.

@dataclass(frozen=True)
class Deliver:
    """Pass the observed frame through unchanged."""


@dataclass(frozen=True)
class Replace:
    """Deliver this frame instead of the observed one."""

    frame: bytes


@dataclass(frozen=True)
class Drop:
    """Deliver nothing."""


@dataclass(frozen=True)
class Inject:
    """Additionally deliver a forged frame travelling in `direction`."""

    frame: bytes
    direction: Direction


@dataclass(frozen=True)
class TranscriptEvent:
    """One observed frame plus everything the adversary did with it."""

    seq: int
    direction: Direction
    frame: bytes
    actions: tuple
    delivered: tuple  # of (Direction, bytes) actually passed on


# --- stream sockets --------------------------------------------------------

class StreamChannel:
    """Duplex frame channel over a connected stream socket."""

    def __init__(self, sock: socket.socket, read_timeout: float = 30.0):
        self._sock = sock
        self.read_timeout = read_timeout

    def send_frame(self, frame: bytes):
        frame_body_length(frame)
        try:
            self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

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
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed("peer closed the stream")
            buf.extend(chunk)
        return bytes(buf)

    def recv_frame(self, timeout: float | None = None) -> bytes:
        """Read one whole frame; `timeout` bounds the whole frame, not each
        recv()."""
        timeout = self.read_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        header = self._read_exact(HEADER_LEN, deadline, timeout)
        body_len = frame_body_length(header, whole=False)
        return header + self._read_exact(body_len, deadline, timeout)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def connect_stream(address: str, port: int, timeout: float = 10.0) -> StreamChannel:
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

    def __init__(self, port: int, host: str = "", backlog: int = 1):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self, timeout: float | None = None) -> StreamChannel:
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise Timeout(f"no peer connected within {timeout} s") from None
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return StreamChannel(conn)

    def close(self):
        self._sock.close()
