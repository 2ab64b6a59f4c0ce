import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saska.commitment import (
    DIGEST_LEN,
    DOMAIN_TAG,
    Commitment,
    Decommitment,
    commit,
    open_commitment,
)
from saska.errors import EmptyMessage, OpenFailed, RngFailure
from saska.protocol import gen_auth_nonce


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_round_trip():
    c, d = commit(b"attack at dawn", random.Random(1))
    assert open_commitment(c, d) == b"attack at dawn"


def test_digest_is_32_octets():
    c, _ = commit(b"ab", random.Random(1))
    assert len(c.digest) == DIGEST_LEN
    with pytest.raises(ValueError):
        Commitment(bytes(31))


def test_domain_tag_is_8_ascii_octets():
    assert len(DOMAIN_TAG) == 8
    DOMAIN_TAG.decode("ascii")


def test_fresh_nonces_give_distinct_commitments():
    rng = random.Random(2)
    c1, _ = commit(b"same message", rng)
    c2, _ = commit(b"same message", rng)
    assert c1.digest != c2.digest


def test_empty_message_rejected():
    with pytest.raises(EmptyMessage):
        commit(b"", random.Random(1))


def test_rng_failure_wrapped():
    class Broken:
        def getrandbits(self, n):
            raise OSError("no entropy")

    with pytest.raises(RngFailure):
        commit(b"m", Broken())
    with pytest.raises(RngFailure):
        gen_auth_nonce(8, Broken())


class TestTamperRejection:
    def test_every_nonce_bit_flip_fails(self):
        c, d = commit(b"short", random.Random(3))
        for bit in range(len(d.nonce) * 8):
            bad = Decommitment(flip_bit(d.nonce, bit), d.message)
            with pytest.raises(OpenFailed):
                open_commitment(c, bad)

    def test_every_message_octet_change_fails(self):
        c, d = commit(b"tamper me", random.Random(4))
        for i in range(len(d.message)):
            mutated = bytearray(d.message)
            mutated[i] ^= 0xFF
            with pytest.raises(OpenFailed):
                open_commitment(c, Decommitment(d.nonce, bytes(mutated)))

    def test_every_commit_bit_flip_fails(self):
        c, d = commit(b"x", random.Random(5))
        for bit in range(DIGEST_LEN * 8):
            with pytest.raises(OpenFailed):
                open_commitment(Commitment(flip_bit(c.digest, bit)), d)

    def test_every_message_bit_flip_fails(self):
        c, d = commit(b"bits", random.Random(6))
        for bit in range(len(d.message) * 8):
            with pytest.raises(OpenFailed):
                open_commitment(c, Decommitment(d.nonce, flip_bit(d.message, bit)))


@given(message=st.binary(min_size=1, max_size=4096))
@settings(max_examples=200)
def test_round_trip_property(message):
    c, d = commit(message, random.Random(0))
    assert open_commitment(c, d) == message


def test_nonce_freshness_over_many_commits():
    rng = random.Random(7)
    digests = {commit(b"repeated", rng)[0].digest for _ in range(10_000)}
    assert len(digests) == 10_000
