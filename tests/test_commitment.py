import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saska.commitment import (
    DIGEST_LEN,
    DOMAIN_TAG,
    NONCE_LEN,
    commit,
    open_commitment,
)
from saska.errors import OpenFailed


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_round_trip():
    c, nonce = commit(b"attack at dawn", random.Random(1))
    assert open_commitment(c, nonce, b"attack at dawn") == b"attack at dawn"


def test_digest_is_32_octets():
    c, nonce = commit(b"ab", random.Random(1))
    assert len(c) == DIGEST_LEN and len(nonce) == NONCE_LEN
    # a digest one octet short or long never opens, whatever it holds
    for wrong in (c[:-1], c + b"\x00"):
        with pytest.raises(OpenFailed):
            open_commitment(wrong, nonce, b"ab")


def test_domain_tag_is_8_ascii_octets():
    assert len(DOMAIN_TAG) == 8
    DOMAIN_TAG.decode("ascii")


def test_fresh_nonces_give_distinct_commitments():
    rng = random.Random(2)
    c1, _ = commit(b"same message", rng)
    c2, _ = commit(b"same message", rng)
    assert c1 != c2


def test_rng_failure_propagates():
    class Broken:
        def getrandbits(self, n):
            raise OSError("entropy pool exhausted")

    with pytest.raises(OSError, match="entropy pool exhausted"):
        commit(b"m", Broken())


class TestTamperRejection:
    def test_every_nonce_bit_flip_fails(self):
        c, nonce = commit(b"short", random.Random(3))
        for bit in range(len(nonce) * 8):
            with pytest.raises(OpenFailed):
                open_commitment(c, flip_bit(nonce, bit), b"short")

    def test_every_message_octet_change_fails(self):
        message = b"tamper me"
        c, nonce = commit(message, random.Random(4))
        for i in range(len(message)):
            mutated = bytearray(message)
            mutated[i] ^= 0xFF
            with pytest.raises(OpenFailed):
                open_commitment(c, nonce, bytes(mutated))

    def test_every_commit_bit_flip_fails(self):
        c, nonce = commit(b"x", random.Random(5))
        for bit in range(DIGEST_LEN * 8):
            with pytest.raises(OpenFailed):
                open_commitment(flip_bit(c, bit), nonce, b"x")

    def test_every_message_bit_flip_fails(self):
        c, nonce = commit(b"bits", random.Random(6))
        for bit in range(len(b"bits") * 8):
            with pytest.raises(OpenFailed):
                open_commitment(c, nonce, flip_bit(b"bits", bit))


@given(message=st.binary(min_size=1, max_size=4096))
@settings(max_examples=200)
def test_round_trip_property(message):
    c, nonce = commit(message, random.Random(0))
    assert open_commitment(c, nonce, message) == message


def test_nonce_freshness_over_many_commits():
    rng = random.Random(7)
    digests = {commit(b"repeated", rng)[0] for _ in range(10_000)}
    assert len(digests) == 10_000
