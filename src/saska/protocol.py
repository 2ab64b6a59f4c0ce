"""Three-message pairing protocol with short-authentication-string checking.

Message flow (initiator A, responder B):

    A -> B   Msg1: commitment c over A's encoded payload
    B -> A   Msg2: B's payload in the clear (identity, public share, nonce)
    A -> B   Msg3: the opening of c: its nonce and A's encoded payload

Both sides then derive the k-bit authentication string S = N_A xor N_B and
display it; the session key is computed only after the local operator
confirms the strings match.  Because A commits to N_A before seeing N_B,
and B reveals N_B before seeing N_A, an active attacker must fix its own
nonce while one honest nonce is still hidden.
"""

from __future__ import annotations

import hashlib
import random
from collections import namedtuple
from enum import Enum, IntEnum

from .commitment import DIGEST_LEN, NONCE_LEN, commit, open_commitment
from .errors import (
    MalformedMessage,
    PairingError,
    RngFailure,
    SubgroupCheckFailed,
    WrongPhase,
)
from .group import (
    DhParams,
    derive_key,
    gen_private_share,
    in_subgroup,
    int_to_octets,
    pub_share,
)

DEFAULT_K = 20
MAX_K = 64
MAX_IDENTITY_OCTETS = 64

# Frame layout: [1-octet tag][4-octet big-endian body length][body].
TAG_COMMIT = 0x01
TAG_PAYLOAD = 0x02
TAG_DECOMMIT = 0x03
HEADER_LEN = 5
MAX_BODY = 65535


def check_identity(label: str) -> str:
    """A peer label, 1..64 octets of printable UTF-8: it is shown beside the
    SAS, a line that ESC, CR, LF or a bidi control could rewrite."""
    try:
        encoded = label.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"identity is not encodable UTF-8: {exc}") from exc
    if not 1 <= len(encoded) <= MAX_IDENTITY_OCTETS:
        raise ValueError(f"identity must be 1..{MAX_IDENTITY_OCTETS} octets, got {len(encoded)}")
    if not label.isprintable():
        raise ValueError(f"identity {label!r} has a non-printable character")
    return label


def _nonce_value(data: bytes, k: int) -> int:
    """The k-bit nonce in data, which must be ceil(k/8) big-endian octets."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"auth nonce: k must be in [1, {MAX_K}], got {k}")
    if len(data) != (k + 7) // 8:
        raise ValueError(f"auth nonce: need {(k + 7) // 8} octets for k={k}, got {len(data)}")
    value = int.from_bytes(data, "big")
    if value >> k:
        raise ValueError(f"auth nonce: padding bits above bit {k} must be zero")
    return value


class Sas(namedtuple("Sas", "value k")):
    """Authentication string S = N_A xor N_B, a k-bit int."""

    __slots__ = ()

    def __new__(cls, value: int, k: int):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"sas: k must be in [1, {MAX_K}], got {k}")
        if not 0 <= value < 1 << k:
            raise ValueError(f"sas: value is not a {k}-bit int")
        return super().__new__(cls, value, k)

    def to_int(self) -> int:
        return self.value


def gen_auth_nonce(k: int, rng: random.Random) -> int:
    """A k-bit authentication nonce, an int below 2^k."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    try:
        return rng.getrandbits(k)
    except Exception as exc:
        raise RngFailure(str(exc)) from exc


def compute_sas(local: int, remote: int, k: int) -> Sas:
    return Sas(local ^ remote, k)


def format_sas(sas: Sas) -> str:
    """Uppercase hex, ceil(k/4) digits, most-significant nibble first."""
    digits = (sas.k + 3) // 4
    return format(sas.value, f"0{digits}X")


def key_fingerprint(key: int) -> str:
    """First 8 hex digits of SHA-256 over int_to_octets(key), for display."""
    return hashlib.sha256(int_to_octets(key)).hexdigest()[:8]


# --- payload and wire encoding -------------------------------------------

# The cleartext message m = identity || public share || nonce, where the
# identity is a checked label and the share and the k-bit nonce are ints.
PairingPayload = namedtuple("PairingPayload", "identity public_share auth_nonce")


def _field(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise MalformedMessage(f"field of {len(data)} octets exceeds 65535")
    return len(data).to_bytes(2, "big") + data


def _read_field(body: bytes, off: int) -> tuple[bytes, int]:
    if off + 2 > len(body):
        raise MalformedMessage("truncated field length")
    n = int.from_bytes(body[off:off + 2], "big")
    off += 2
    if off + n > len(body):
        raise MalformedMessage("field data runs past end of body")
    return body[off:off + n], off + n


def encode_payload(payload: PairingPayload, k: int) -> bytes:
    """Length-prefixed field encoding, the nonce in ceil(k/8) big-endian
    octets; injective, so commitment binding covers the exact
    identity/share/nonce boundaries."""
    return (
        _field(payload.identity.encode("utf-8"))
        + _field(int_to_octets(payload.public_share))
        + _field(payload.auth_nonce.to_bytes((k + 7) // 8, "big"))
    )


def decode_payload(data: bytes, k: int) -> PairingPayload:
    """Parse payload fields, validating against the session bit length k."""
    ident_raw, off = _read_field(data, 0)
    share_raw, off = _read_field(data, off)
    nonce_raw, off = _read_field(data, off)
    if off != len(data):
        raise MalformedMessage(f"{len(data) - off} trailing octets after payload fields")
    try:
        identity = check_identity(ident_raw.decode("utf-8"))
    except ValueError as exc:
        raise MalformedMessage(f"bad identity field: {exc}") from exc
    if not share_raw or (len(share_raw) > 1 and share_raw[0] == 0):
        raise MalformedMessage("public share is not a minimal big-endian integer")
    try:
        nonce = _nonce_value(nonce_raw, k)
    except ValueError as exc:
        raise MalformedMessage(f"bad nonce field: {exc}") from exc
    return PairingPayload(identity, int.from_bytes(share_raw, "big"), nonce)


Msg1 = namedtuple("Msg1", "c")  # the commitment digest
Msg2 = namedtuple("Msg2", "param_set_id k payload")
Msg3 = namedtuple("Msg3", "nonce message")


PairingMessage = Msg1 | Msg2 | Msg3


def frame_body_length(header: bytes) -> int:
    """Check a frame's 5-octet header and return the body length it
    declares, at most MAX_BODY.  A stream reader calls this on the bare
    header to bound its read; decode_message checks the whole frame."""
    if len(header) < HEADER_LEN:
        raise MalformedMessage(f"frame of {len(header)} octets is shorter than the header")
    body_len = int.from_bytes(header[1:HEADER_LEN], "big")
    if body_len > MAX_BODY:
        raise MalformedMessage(f"declared body length {body_len} exceeds {MAX_BODY}")
    return body_len


def encode_message(msg: PairingMessage) -> bytes:
    if isinstance(msg, Msg1):
        tag, body = TAG_COMMIT, msg.c
    elif isinstance(msg, Msg2):
        tag = TAG_PAYLOAD
        body = (
            msg.param_set_id.to_bytes(4, "big")
            + msg.k.to_bytes(2, "big")
            + encode_payload(msg.payload, msg.k)
        )
    elif isinstance(msg, Msg3):
        tag, body = TAG_DECOMMIT, msg.nonce + msg.message
    else:
        raise TypeError(f"not a pairing message: {msg!r}")
    if len(body) > MAX_BODY:
        raise MalformedMessage(f"body of {len(body)} octets exceeds {MAX_BODY}")
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


def decode_message(frame: bytes) -> PairingMessage:
    """Decode one framed message.

    Msg3 payload octets are deliberately left unparsed here: the responder
    must check them against the commitment first, so that any tampering
    surfaces as OpenFailed rather than a parse error.
    """
    body_len = frame_body_length(frame)
    if len(frame) - HEADER_LEN != body_len:
        raise MalformedMessage(
            f"body length {len(frame) - HEADER_LEN} does not match header {body_len}"
        )
    tag = frame[0]
    body = frame[HEADER_LEN:]
    if tag == TAG_COMMIT:
        if body_len != DIGEST_LEN:
            raise MalformedMessage(f"commit body must be {DIGEST_LEN} octets, got {body_len}")
        return Msg1(body)
    if tag == TAG_PAYLOAD:
        if body_len < 6:
            raise MalformedMessage("payload body shorter than its fixed prefix")
        param_set_id = int.from_bytes(body[:4], "big")
        k = int.from_bytes(body[4:6], "big")
        if not 1 <= k <= MAX_K:
            raise MalformedMessage(f"k = {k} outside [1, {MAX_K}]")
        return Msg2(param_set_id, k, decode_payload(body[6:], k))
    if tag == TAG_DECOMMIT:
        if body_len < NONCE_LEN:
            raise MalformedMessage(f"decommit body must hold a {NONCE_LEN}-octet nonce")
        return Msg3(body[:NONCE_LEN], body[NONCE_LEN:])
    raise MalformedMessage(f"unknown message tag 0x{tag:02x}")


# --- per-session state machine --------------------------------------------

class Role(Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class Phase(IntEnum):
    CREATED = 0
    COMMIT_EXCHANGED = 1
    PAYLOAD_EXCHANGED = 2
    DECOMMITTED = 3
    SAS_READY = 4
    CONFIRMED = 5
    ABORTED = 6


class Peer:
    """One side of a pairing session, with no I/O of its own.

    start() and receive(frame) return the frames to send; the caller moves
    them over whatever carries them (a TCP stream, or the simulator's
    queue).  receive() looks its step up in _STEPS, the one place that holds
    the message order.  phase_log is the state; phases move strictly forward
    because each _STEPS row lists rising phases above the one it rests in,
    which TestPhaseOrder in tests/test_protocol.py checks from outside.
    Construction draws nothing: the initiator draws in start(), the
    responder when the commitment arrives, each from rng, the session's one
    entropy source (the OS by default).  A seeded rng and a forced nonce,
    which replaces the auth nonce's draw, exist for the attack simulator
    and for tests.
    """

    def __init__(
        self,
        role: Role,
        params: DhParams,
        identity: str,
        k: int = DEFAULT_K,
        rng: random.Random | None = None,
        *,
        nonce: int | None = None,
    ):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
        if nonce is not None and not 0 <= nonce < 1 << k:
            raise ValueError(f"forced nonce is not a {k}-bit value")
        self.role = role
        self.params = params
        self.identity = check_identity(identity)
        self.k = k
        self.rng = rng or random.SystemRandom()
        self.phase_log = [Phase.CREATED]
        self.private: int | None = None
        self.own_nonce = nonce
        self.own_payload: PairingPayload | None = None
        self.commitment: bytes | None = None  # digest, own (initiator) or received (responder)
        self.opening: Msg3 | None = None      # initiator only
        self.remote_payload: PairingPayload | None = None
        self.sas: Sas | None = None
        self.session_key: int | None = None

    @property
    def phase(self) -> Phase:
        return self.phase_log[-1]

    def _advance(self, *phases: Phase):
        self.phase_log.extend(phases)

    def _draw(self):
        """Private share, then the auth nonce unless one was forced."""
        self.private = gen_private_share(self.params, self.rng)
        if self.own_nonce is None:
            self.own_nonce = gen_auth_nonce(self.k, self.rng)
        self.own_payload = PairingPayload(
            self.identity, pub_share(self.params, self.private), self.own_nonce
        )

    def start(self) -> list[bytes]:
        """Open the session: the initiator's commitment, nothing for the
        responder.  The payload itself stays hidden until Msg3."""
        if self.role is Role.RESPONDER:
            return []
        if self.phase is not Phase.CREATED:
            raise WrongPhase(f"start in phase {self.phase.name}")
        self._draw()
        message = encode_payload(self.own_payload, self.k)
        self.commitment, nonce = commit(message, self.rng)
        self.opening = Msg3(nonce, message)
        self._advance(Phase.COMMIT_EXCHANGED)
        return [encode_message(Msg1(self.commitment))]

    def receive(self, frame: bytes) -> list[bytes]:
        """Take one frame; return the replies.  A frame that fails a check
        aborts the peer and its error propagates; frames after an abort or
        once the SAS is ready are ignored."""
        if self.phase >= Phase.SAS_READY:
            return []
        try:
            msg = decode_message(frame)
            step = _STEPS.get((self.role, self.phase))
            if step is None:
                raise WrongPhase(f"{self.role.value} received a frame in phase {self.phase.name}")
            cls, name, on_message, phases = step
            if not isinstance(msg, cls):
                raise MalformedMessage(f"expected a {name} message, got {type(msg).__name__}")
            replies = on_message(self, msg)
        except PairingError:
            self._advance(Phase.ABORTED)
            raise
        self._advance(*phases)
        return replies

    def _accept_remote(self, payload: PairingPayload, side: str):
        """Check the remote share, then keep the payload and compute the SAS.
        The SAS is an XOR, so either role passes its own nonce first."""
        if not in_subgroup(self.params, payload.public_share):
            raise SubgroupCheckFailed(
                f"{side} share of {payload.public_share.bit_length()} bits rejected")
        self.remote_payload = payload
        self.sas = compute_sas(self.own_nonce, payload.auth_nonce, self.k)

    def _on_commit(self, msg1: Msg1) -> list[bytes]:
        """Accept the initiator's commitment and reply with our payload."""
        self._draw()
        self.commitment = msg1.c
        return [encode_message(Msg2(self.params.set_id, self.k, self.own_payload))]

    def _on_payload(self, msg2: Msg2) -> list[bytes]:
        """Take the responder's payload, check it, and release the opening.

        The subgroup check runs before Msg3 is produced: a bad share aborts the
        session with the initiator's payload still hidden.
        """
        if msg2.param_set_id != self.params.set_id:
            raise MalformedMessage(
                f"parameter set mismatch: peer 0x{msg2.param_set_id:08x}, ours 0x{self.params.set_id:08x}"
            )
        if msg2.k != self.k:
            raise MalformedMessage(f"k mismatch: peer {msg2.k}, ours {self.k}")
        self._accept_remote(msg2.payload, "responder")
        return [encode_message(self.opening)]

    def _on_decommit(self, msg3: Msg3) -> list[bytes]:
        """Open the stored commitment and recover the initiator's payload.

        Opening happens before the payload octets are parsed, so any tampering
        with commit material surfaces as OpenFailed.
        """
        message = open_commitment(self.commitment, msg3.nonce, msg3.message)
        self._accept_remote(decode_payload(message, self.k), "initiator")
        return []

    def confirm(self, user_accepts: bool) -> int | None:
        """Derive the session key iff the operator accepted the SAS comparison.

        On rejection the session aborts and no key material is ever computed.
        """
        if self.phase is not Phase.SAS_READY:
            raise WrongPhase(f"confirm in phase {self.phase.name}")
        if not user_accepts:
            self._advance(Phase.ABORTED)
            return None
        self.session_key = derive_key(self.params, self.remote_payload.public_share, self.private)
        self._advance(Phase.CONFIRMED)
        return self.session_key


# (role, phase it rests in) -> (message class, its name, step, phases the
# step passes through); below SAS_READY, a frame in a phase missing here
# is out of order.
_STEPS = {
    (Role.RESPONDER, Phase.CREATED): (
        Msg1, "commit", Peer._on_commit, (Phase.COMMIT_EXCHANGED, Phase.PAYLOAD_EXCHANGED)),
    (Role.INITIATOR, Phase.COMMIT_EXCHANGED): (
        Msg2, "payload", Peer._on_payload, (Phase.PAYLOAD_EXCHANGED, Phase.DECOMMITTED, Phase.SAS_READY)),
    (Role.RESPONDER, Phase.PAYLOAD_EXCHANGED): (
        Msg3, "decommit", Peer._on_decommit, (Phase.DECOMMITTED, Phase.SAS_READY)),
}
