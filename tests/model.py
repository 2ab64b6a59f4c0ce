"""The pairing protocol, stated once for the tests and apart from saska.protocol.

frames() builds Msg1, Msg2 and Msg3 from the values the peers drew, sas()
is the string the two operators compare, and winning_nonce() is the forced
honest nonce that makes an attack trial's two strings match.  The module
reads saska.group and saska.commitment but never saska.protocol, so the
cross-check in tests/test_protocol.py compares two implementations written
apart.  A test that predicts a SAS, a win or a loss asks this module, so a
change to the SAS rule edits sas() and nothing else in the tests.
"""

import hashlib

from saska.commitment import DOMAIN_TAG
from saska.group import _field, int_to_octets

HEADER = 5  # a tag octet, then the body length in 4 octets
R_OCTETS = 32  # the initiator's opening nonce R, the first octets of Msg3's body
MSG2_PREFIX = 6  # Msg2's body: a 4-octet group id and a 2-octet k, then the payload


def _payload_octets(identity: str, share: int, nonce: int, k: int) -> bytes:
    """identity || share || nonce, each behind a 2-octet length; the nonce
    takes ceil(k/8) octets."""
    return b"".join((_field(identity.encode("utf-8")), _field(int_to_octets(share)),
                     _field(nonce.to_bytes((k + 7) // 8, "big"))))


def _parse_payload(data: bytes) -> tuple[str, int, int]:
    """(identity, share, nonce) of well-formed payload octets."""
    fields = []
    while data:
        end = 2 + int.from_bytes(data[:2], "big")
        fields.append(data[2:end])
        data = data[end:]
    identity, share, nonce = fields
    return identity.decode("utf-8"), int.from_bytes(share, "big"), int.from_bytes(nonce, "big")


def _frame(tag: int, body: bytes) -> bytes:
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


def frames(params, k: int, initiator: tuple, responder: tuple, r: bytes) -> tuple[bytes, bytes, bytes]:
    """Msg1, Msg2 and Msg3 of an honest session.  initiator and responder
    are each (identity, exponent, nonce) as that peer drew them, and r is
    the initiator's 32-octet opening nonce."""
    m_i, m_r = (_payload_octets(identity, pow(params.g, x, params.p), nonce, k)
                for identity, x, nonce in (initiator, responder))
    return (_frame(1, hashlib.sha256(DOMAIN_TAG + r + m_i).digest()),
            _frame(2, params.set_id.to_bytes(4, "big") + k.to_bytes(2, "big") + m_r),
            _frame(3, r + m_i))


def sas(payload_i: tuple, payload_r: tuple, r: bytes, k: int) -> int:
    """The k-bit string from the initiator's and the responder's payloads,
    each (identity, share, nonce), and the initiator's opening nonce r: the
    XOR of the two nonces, which binds neither identity nor share (ROADMAP
    item 1)."""
    return payload_i[2] ^ payload_r[2]


def view_sas(msg2: bytes, msg3: bytes) -> int:
    """The string a peer shows once it holds this Msg2 and this Msg3, sent
    or received."""
    k = int.from_bytes(msg2[HEADER + 4:HEADER + MSG2_PREFIX], "big")
    body = msg3[HEADER:]
    return sas(_parse_payload(body[R_OCTETS:]), _parse_payload(msg2[HEADER + MSG2_PREFIX:]), body[:R_OCTETS], k)


def transcript_sas(outcome) -> tuple[int, int]:
    """(A's string, B's string) of a simulator trial whose peers both
    reached their strings, read from its transcript of (direction, frame
    sent, deliveries): A sent Msg1 and Msg3 and took a Msg2, and B the
    other way round."""
    sent = {frame[0]: frame for _, frame, _ in outcome.transcript}
    got = {frame[0]: frame for *_, deliveries in outcome.transcript for _, frame in deliveries}
    return view_sas(got[2], sent[3]), view_sas(sent[2], got[3])


def winning_nonce(outcome) -> int:
    """The value of the forced honest nonce that makes both strings match,
    from a first run in which that nonce was forced to any value (an
    unforced run draws in another order).

    The forced nonce is the one the attacker must guess, so it is the honest
    nonce sent last: every forged frame is fixed before it is revealed.  It
    enters only its own side's string, by XOR, so the strings match exactly
    when it equals its first-run value xor both first-run strings; no
    enumeration is needed, even at k = 64."""
    s_a, s_b = transcript_sas(outcome)
    last = outcome.transcript[-1][1]
    payload = last[HEADER + (R_OCTETS if last[0] == 3 else MSG2_PREFIX):]
    return _parse_payload(payload)[2] ^ s_a ^ s_b
