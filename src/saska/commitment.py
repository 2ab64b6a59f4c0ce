"""Hash-based commitment scheme over SHA-256.

commit() maps an octet string m to a (c, d) pair where c = SHA-256(TAG ||
nonce || m) with a 256-bit random nonce.  Binding comes from collision
resistance of SHA-256, hiding from the unpredictability of the nonce.
open_commitment() returns m only when the digest matches in full; truncated
comparison is deliberately not offered.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from .errors import EmptyMessage, OpenFailed, RngFailure
from .record import Record, set_field

# Fixed 8-octet ASCII domain separation tag; both peers use it implicitly,
# preventing digests from being replayed across protocols.
DOMAIN_TAG = b"SASKA-01"

DIGEST_LEN = 32
NONCE_LEN = 32


class Commitment(Record):
    __slots__ = ("digest",)

    def __init__(self, digest: bytes):
        if len(digest) != DIGEST_LEN:
            raise ValueError(f"commitment digest must be {DIGEST_LEN} octets, got {len(digest)}")
        set_field(self, "digest", digest)


class Decommitment(Record):
    __slots__ = ("nonce", "message")

    def __init__(self, nonce: bytes, message: bytes):
        set_field(self, "nonce", nonce)
        set_field(self, "message", message)


def _digest(nonce: bytes, message: bytes) -> bytes:
    return hashlib.sha256(DOMAIN_TAG + nonce + message).digest()


def commit(message: bytes, rng: random.Random) -> tuple[Commitment, Decommitment]:
    """Produce the commit/open pair for a non-empty octet string."""
    if not message:
        raise EmptyMessage("cannot commit to an empty message")
    try:
        nonce = rng.getrandbits(NONCE_LEN * 8).to_bytes(NONCE_LEN, "big")
    except Exception as exc:
        raise RngFailure(str(exc)) from exc
    return Commitment(_digest(nonce, message)), Decommitment(nonce, message)


def open_commitment(commitment: Commitment, decommitment: Decommitment) -> bytes:
    """Return the committed message, or raise OpenFailed on any mismatch."""
    expected = _digest(decommitment.nonce, decommitment.message)
    if not hmac.compare_digest(expected, commitment.digest):
        raise OpenFailed("commitment digest mismatch")
    return decommitment.message
