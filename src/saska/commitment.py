"""Hash-based commitment scheme over SHA-256.

commit() maps an octet string m to a digest c = SHA-256(TAG || nonce || m)
and the 256-bit random nonce that, with m, opens it.  Binding comes from
collision resistance of SHA-256, hiding from the unpredictability of the
nonce.
open_commitment() returns m only when the digest matches in full; truncated
comparison is deliberately not offered.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from .errors import OpenFailed

# Fixed 8-octet ASCII domain separation tag; both peers use it implicitly,
# preventing digests from being replayed across protocols.
DOMAIN_TAG = b"SASKA-01"

DIGEST_LEN = 32
NONCE_LEN = 32


def _digest(nonce: bytes, message: bytes) -> bytes:
    return hashlib.sha256(DOMAIN_TAG + nonce + message).digest()


def commit(message: bytes, rng: random.Random) -> tuple[bytes, bytes]:
    """The digest and the nonce that opens it, for an octet string."""
    nonce = rng.getrandbits(NONCE_LEN * 8).to_bytes(NONCE_LEN, "big")
    return _digest(nonce, message), nonce


def open_commitment(digest: bytes, nonce: bytes, message: bytes) -> bytes:
    """Return the committed message, or raise OpenFailed on any mismatch."""
    if not hmac.compare_digest(_digest(nonce, message), digest):
        raise OpenFailed("commitment digest mismatch")
    return message
