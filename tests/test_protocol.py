import functools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saska.commitment import commit
from saska.errors import (
    MalformedMessage,
    OpenFailed,
    PairingError,
    SubgroupCheckFailed,
    WrongPhase,
)
from saska.group import PARAM_SETS, gen_private_share, pub_share
from saska import protocol
from saska.protocol import (
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    Peer,
    Phase,
    Role,
    Sas,
    check_identity,
    compute_sas,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
    format_sas,
    frame_body_length,
    key_fingerprint,
)

import model

# printable labels of at most 64 octets
LABELS = st.text(st.characters(exclude_categories=("C", "Z")) | st.just(" "), min_size=1, max_size=16)


class ScriptedExponents:
    """Random source whose randrange() pops preset values; everything else
    comes from the seeded base generator."""

    def __init__(self, exponents, seed=0):
        self._exponents = list(exponents)
        self._base = random.Random(seed)

    def randrange(self, *args, **kwargs):
        if self._exponents:
            return self._exponents.pop(0)
        return self._base.randrange(*args, **kwargs)

    def getrandbits(self, n):
        return self._base.getrandbits(n)


def honest_exchange(params, k=20, rng_a=None, rng_b=None, id_a="alice", id_b="bob"):
    """Both peers, then Msg1, Msg2 and Msg3, of one honest session; by
    default the initiator draws from random.Random(1) and the responder
    from random.Random(2)."""
    a = Peer(Role.INITIATOR, params, id_a, k, rng_a or random.Random(1))
    b = Peer(Role.RESPONDER, params, id_b, k, rng_b or random.Random(2))
    (frame1,) = a.start()
    (frame2,) = b.receive(frame1)
    (frame3,) = a.receive(frame2)
    assert b.receive(frame3) == []
    return a, b, frame1, frame2, frame3


def model_frames(a: Peer, b: Peer) -> tuple[bytes, bytes, bytes]:
    """tests/model.py's frames from the values initiator a and responder b drew."""
    return model.frames(a.params, a.k, (a.identity, a.private, a.own_nonce),
                        (b.identity, b.private, b.own_nonce), a.opening.nonce)


def parse(frame: bytes, k: int = 8):
    """decode_message, then the payload parse that a peer at bit length k
    makes of a Msg2's or a Msg3's octets."""
    msg = decode_message(frame)
    if type(msg) is not Msg1:
        decode_payload(msg.message, k)
    return msg


def started_initiator(params, k=20, seed=1):
    a = Peer(Role.INITIATOR, params, "alice", k, random.Random(seed))
    (frame1,) = a.start()
    return a, frame1


class TestIdentity:
    def test_valid(self):
        assert check_identity("alice") == "alice"
        assert encode_payload(PairingPayload("alice", 8, 1), 8).startswith(b"\x00\x05alice")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_identity("")

    def test_64_octets_ok_65_rejected(self):
        check_identity("a" * 64)
        with pytest.raises(ValueError):
            check_identity("a" * 65)

    def test_multibyte_counts_octets(self):
        check_identity("é" * 32)  # 64 octets of UTF-8
        with pytest.raises(ValueError):
            check_identity("é" * 33)

    @pytest.mark.parametrize("label", ["bob : 00000\x1b[8m", "bob\r", "a\nb", "bob\u202e", "bob\udc80"])
    def test_non_printable_rejected(self, label):
        with pytest.raises(ValueError, match="^identity "):
            check_identity(label)

    def test_checked_where_a_label_enters(self, test_params):
        with pytest.raises(ValueError, match="^identity must be 1..64 octets, got 65$"):
            Peer(Role.INITIATOR, test_params, "a" * 65)
        raw = encode_payload(PairingPayload("a" * 65, 8, 1), 8)
        with pytest.raises(MalformedMessage, match="^bad identity field: identity must be"):
            decode_payload(raw, 8)


class TestNonceGeneration:
    def test_k20_is_an_int_below_2_to_20(self, test_params):
        peer = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        peer.start()
        assert type(peer.own_nonce) is int
        assert 0 <= peer.own_nonce < 2**20


class TestComputeSas:
    def test_self_xor_is_zero(self):
        assert compute_sas(0x5A5A5, 0x5A5A5, 20).to_int() == 0

    def test_xor_identity(self):
        assert compute_sas(0x12345, 0, 20).to_int() == 0x12345

    def test_byte_oracle(self):
        assert compute_sas(0xAB, 0x3C, 8) == Sas(0x97, 8)

    @pytest.mark.parametrize("k", [1, 8, 20, 64])
    def test_to_int_round_trips_the_top_value(self, k):
        assert Sas((1 << k) - 1, k).to_int() == (1 << k) - 1

    @pytest.mark.parametrize("name", ["test", "p40"])
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64])
    def test_session_sas_is_the_k_bit_xor_of_the_nonces(self, k, name):
        # Sas checks nothing itself: the k that Peer checks and the nonces
        # it draws or decodes keep the string in range
        a, b, _, msg2, msg3 = honest_exchange(PARAM_SETS[name], k=k)
        assert a.sas == b.sas
        assert a.sas.k == k
        assert a.sas.value == model.view_sas(msg2, msg3)
        assert a.sas.value < 1 << k
        assert len(format_sas(a.sas)) == math.ceil(k / 4)

    @given(x=st.integers(0, 2**20 - 1), y=st.integers(0, 2**20 - 1))
    @settings(max_examples=100)
    def test_symmetry(self, x, y):
        assert compute_sas(x, y, 20) == compute_sas(y, x, 20)


class TestFormatSas:
    @pytest.mark.parametrize(
        "value,k,expected",
        [
            (0, 20, "00000"),
            (0x0BEEF, 20, "0BEEF"),
            (0x97, 8, "97"),
            (1, 1, "1"),
            (0, 1, "0"),
            (0xFFFFF, 20, "FFFFF"),
        ],
    )
    def test_known(self, value, k, expected):
        assert format_sas(compute_sas(value, 0, k)) == expected


class TestWireFormat:
    def test_msg1_frame_layout(self, test_params):
        _, frame = started_initiator(test_params)
        assert frame[0] == 0x01
        assert int.from_bytes(frame[1:5], "big") == 32
        assert len(frame) == 37  # nothing but the commitment crosses the wire

    def test_truncated_msg1_rejected(self, test_params):
        _, frame = started_initiator(test_params)
        with pytest.raises(MalformedMessage):
            decode_message(frame[:20])

    def test_unknown_tag_rejected(self):
        with pytest.raises(MalformedMessage) as info:
            decode_message(bytes([0x09]) + (1).to_bytes(4, "big") + b"x")
        assert str(info.value) == "unknown message tag 0x09"
        # and on the way out, a value that is no message has no tag
        with pytest.raises(TypeError):
            encode_message(object())

    def test_oversize_body_rejected(self):
        frame = bytes([0x02]) + (70000).to_bytes(4, "big") + b"\x00" * 70000
        with pytest.raises(MalformedMessage):
            decode_message(frame)

    def test_oversize_body_rejected_at_encode(self):
        # encode_message alone bounds outgoing frames: 32 nonce octets + 65,504
        message = b"\x00" * 65504
        _, nonce = commit(message, random.Random(0))
        with pytest.raises(MalformedMessage):
            encode_message(Msg3(nonce, message))

    def test_body_of_65535_octets_is_the_largest_frame(self):
        # both bounds sit at MAX_BODY: the header check and encode_message
        assert frame_body_length(bytes([0x03]) + (65535).to_bytes(4, "big")) == 65535
        with pytest.raises(MalformedMessage) as info:
            frame_body_length(bytes([0x03]) + (65536).to_bytes(4, "big"))
        assert str(info.value) == "declared body length 65536 exceeds 65535"
        message = b"\x00" * (65535 - 32)
        _, nonce = commit(message, random.Random(0))
        frame = encode_message(Msg3(nonce, message))
        assert len(frame) == 5 + 65535 and decode_message(frame) == Msg3(nonce, message)
        with pytest.raises(MalformedMessage) as info:
            encode_message(Msg3(nonce, message + b"\x00"))
        assert str(info.value) == "body of 65536 octets exceeds 65535"

    def test_msg2_at_k_64_round_trips(self):
        payload = PairingPayload("bob", 8, 2**64 - 1)
        msg2 = Msg2(0x12345678, 64, encode_payload(payload, 64))
        frame = encode_message(msg2)
        assert frame.endswith(b"\x00\x08" + b"\xff" * 8)
        assert decode_message(frame) == msg2
        assert decode_payload(msg2.message, 64) == payload

    def test_field_longer_than_65535_octets_rejected_at_encode(self):
        with pytest.raises(MalformedMessage, match="^field of 65536 octets exceeds 65535$"):
            encode_payload(PairingPayload("x" * 65536, 1, 0), 8)
        # the widest field still encodes, behind a length prefix of 0xFFFF
        raw = encode_payload(PairingPayload("x" * 65535, 1, 0), 8)
        assert raw[:2] == b"\xff\xff" and len(raw) == 2 + 65535 + 3 + 3

    def test_header_length_mismatch_rejected(self):
        frame = bytes([0x01]) + (32).to_bytes(4, "big") + b"\x00" * 31
        with pytest.raises(MalformedMessage) as info:
            decode_message(frame)
        assert str(info.value) == "body length 31 does not match header 32"

    def test_trailing_payload_bytes_rejected(self):
        payload = PairingPayload("x", 8, 1)
        with pytest.raises(MalformedMessage) as info:
            decode_payload(encode_payload(payload, 8) + b"\x00", 8)
        assert str(info.value) == "1 trailing octets after payload fields"

    def test_non_minimal_share_rejected(self):
        payload = PairingPayload("x", 8, 1)
        raw = bytearray(encode_payload(payload, 8))
        # widen the share field 0x08 -> 0x00 0x08
        assert raw[3:6] == b"\x00\x01\x08"
        raw[3:6] = b"\x00\x02\x00\x08"
        with pytest.raises(MalformedMessage) as info:
            decode_payload(bytes(raw), 8)
        assert str(info.value) == "public share is not a minimal big-endian integer"
        # one 0x00 octet is the minimal encoding of the share 0
        raw[3:7] = b"\x00\x01\x00"
        assert decode_payload(bytes(raw), 8).public_share == 0

    def test_bad_nonce_length_rejected(self):
        payload = PairingPayload("x", 8, 1)
        raw = encode_payload(payload, 8)
        # k=20 expects 3 nonce octets, field has 1
        with pytest.raises(MalformedMessage, match="^bad nonce field: auth nonce: need 3 octets"):
            decode_payload(raw, 20)

    def test_nonce_padding_bits_rejected(self):
        raw = encode_payload(PairingPayload("x", 8, 0xFFFFF), 20)
        assert raw.endswith(b"\x00\x03\x0f\xff\xff")
        # the top four bits of a k=20 nonce field must be zero
        with pytest.raises(MalformedMessage, match="^bad nonce field: auth nonce: padding bits"):
            decode_payload(raw[:-3] + b"\xff\xff\xff", 20)

    def test_nonce_field_is_ceil_k_octets_big_endian(self):
        raw = encode_payload(PairingPayload("x", 8, 0xBEEF), 20)
        assert raw.endswith(b"\x00\x03\x00\xbe\xef")
        nonce = decode_payload(raw, 20).auth_nonce
        assert type(nonce) is int and nonce == 0xBEEF

    def test_escape_in_msg2_identity_rejected(self, test_params):
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        (frame2,) = b.receive(frame1)
        assert frame2.count(b"\x00\x03bob") == 1
        with pytest.raises(MalformedMessage):
            a.receive(frame2.replace(b"\x00\x03bob", b"\x00\x03bo\x1b"))
        assert a.phase is Phase.ABORTED

    def test_msg2_k_outside_range_rejected_before_its_payload(self, test_params, monkeypatch):
        # a Msg2 with any 16-bit k frames as a record; the initiator's exact
        # k match names the fault, not the nonce field that decode_payload
        # would reject next, and no Msg3 leaves it, then or later
        _, _, _, frame2, _ = honest_exchange(test_params)
        parsed = []
        monkeypatch.setattr(protocol, "decode_payload", lambda *args: parsed.append(args))
        for k in (0, 65, 65535):
            frame = frame2[:9] + k.to_bytes(2, "big") + frame2[11:]
            assert decode_message(frame) == Msg2(test_params.set_id, k, frame2[11:])
            a, _ = started_initiator(test_params)
            with pytest.raises(MalformedMessage) as info:
                a.receive(frame)
            assert str(info.value) == f"k mismatch: peer {k}, ours 20"
            assert a.phase is Phase.ABORTED and Phase.DECOMMITTED not in a.phase_log
            assert a.receive(frame2) == []
        assert parsed == []

    @pytest.mark.parametrize("name", ["test", "p40", "modp2048"])
    def test_each_peer_parses_the_remote_payload_once(self, name, monkeypatch):
        """Over one honest session each peer parses one payload, the
        other's, and decode_message parses none."""
        parsed = []

        def spy(data, k):
            parsed.append((data, k))
            return decode_payload(data, k)

        monkeypatch.setattr(protocol, "decode_payload", spy)
        a, b, frame1, frame2, frame3 = honest_exchange(PARAM_SETS[name])
        assert parsed == [(b.own_message, 20), (a.own_message, 20)]
        assert frame2.endswith(b.own_message) and frame3.endswith(a.own_message)
        for frame in (frame1, frame2, frame3):
            decode_message(frame)
        assert len(parsed) == 2
        assert a.sas == b.sas

    @pytest.mark.parametrize("tag, body, reason", [
        pytest.param(0x01, b"\x00" * 31, "commit body must be 32 octets", id="commit-31"),
        # the commit body's length check is its only guard, so one octet over fails too
        pytest.param(0x01, b"\x00" * 33, "commit body must be 32 octets", id="commit-33"),
        pytest.param(0x02, b"\x00" * 5, "payload body shorter than its fixed prefix", id="payload-5"),
        # the fixed prefix alone (set id 0, k = 8) passes it, and the first field is cut
        pytest.param(0x02, bytes(4) + b"\x00\x08", "truncated field length", id="payload-6"),
        pytest.param(0x03, b"\x00" * 31, "decommit body must hold a 32-octet nonce", id="decommit-31"),
        # set id 0, k = 8, a whole identity field, then one octet of a length prefix
        pytest.param(0x02, bytes(4) + b"\x00\x08" + b"\x00\x01x" + b"\x00",
                     "truncated field length", id="field-length-cut"),
    ])
    def test_well_framed_body_too_short_rejected(self, tag, body, reason):
        frame = bytes([tag]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(MalformedMessage, match=reason):
            parse(frame)

    @pytest.mark.parametrize("decode, data, text", [
        pytest.param(decode_message, b"\x01\x00", "frame of 2 octets is shorter than the header",
                     id="header-cut"),
        # set id 0, k = 8, then an identity field that declares 5 octets and holds 2
        pytest.param(parse, bytes([0x02]) + (10).to_bytes(4, "big") + bytes(4) + b"\x00\x08\x00\x05ab",
                     "field data runs past end of body", id="field-data-cut"),
        pytest.param(functools.partial(decode_payload, k=8), b"\x00\x05ab",
                     "field data runs past end of body", id="payload-field-data-cut"),
    ])
    def test_backed_up_guard_names_its_fault(self, decode, data, text):
        # a later check refuses each input too, but with another text
        with pytest.raises(MalformedMessage) as info:
            decode(data)
        assert str(info.value) == text

    @pytest.mark.parametrize("field", range(3), ids=["identity", "share", "nonce"])
    def test_each_field_cut_names_its_fault(self, field):
        raw = encode_payload(PairingPayload("x", 8, 1), 8)
        assert raw == b"\x00\x01x" b"\x00\x01\x08" b"\x00\x01\x01"
        start = 3 * field  # where this field's length prefix begins
        for cut, text in ((start, "truncated field length"), (start + 1, "truncated field length"),
                          (start + 2, "field data runs past end of body")):
            with pytest.raises(MalformedMessage) as info:
                decode_payload(raw[:cut], 8)
            assert str(info.value) == text, cut

    @pytest.mark.parametrize("k", [1, 8, 20, 64])
    @pytest.mark.parametrize("name", ["test", "p40", "modp2048"])
    def test_every_cut_grown_or_misframed_frame_is_malformed(self, name, k):
        """Each frame of one seeded honest session, cut at every octet,
        grown by one octet, or behind a body length one off, raises
        MalformedMessage and nothing else: as it is, and with its header
        rewritten to frame what is left, so that every cut reaches the
        fixed-offset parser.  A Msg2's or Msg3's payload is parsed too."""
        def framed(tag, body):
            return bytes([tag]) + len(body).to_bytes(4, "big") + body

        for frame in honest_exchange(PARAM_SETS[name], k)[2:]:
            parse(frame, k)
            tag, body = frame[0], frame[5:]
            bad = [frame[:cut] for cut in range(len(frame))]
            bad += [framed(tag, body[:cut]) for cut in range(len(body))]
            bad += [frame + b"\x00", framed(tag, body + b"\x00")]
            bad += [bytes([tag]) + (len(body) + d).to_bytes(4, "big") + body for d in (-1, 1)]
            for data in bad:
                with pytest.raises(MalformedMessage):
                    parse(data, k)

    def test_bad_utf8_identity_rejected(self):
        raw = b"\x00\x02\xff\xfe" + b"\x00\x01\x08" + b"\x00\x01\x01"
        with pytest.raises(MalformedMessage):
            decode_payload(raw, 8)

    @pytest.mark.parametrize("name", ["test", "p40", "modp2048"])
    def test_dh_values_are_plain_ints(self, name):
        # exponent, share and decoded share on the pow path and the table path
        params = PARAM_SETS[name]
        x = gen_private_share(params, random.Random(1))
        share = pub_share(params, x)
        payload = PairingPayload("x", share, 1)
        decoded = decode_payload(encode_payload(payload, 8), 8).public_share
        assert type(x) is int and type(share) is int and type(decoded) is int
        assert decoded == share

    @given(
        label=LABELS,
        share=st.integers(min_value=1, max_value=2**256),
        k=st.integers(min_value=1, max_value=64),
        nonce=st.integers(min_value=0),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_wire_round_trip_all_variants(self, label, share, k, nonce, data):
        nonce %= 2**k
        payload = PairingPayload(check_identity(label), share, nonce)

        msg2 = Msg2(data.draw(st.integers(0, 2**32 - 1)), k, encode_payload(payload, k))
        decoded = decode_message(encode_message(msg2))
        assert decoded == msg2
        assert decode_payload(decoded.message, k) == payload

        message = encode_payload(payload, k)
        c, nonce = commit(message, random.Random(0))
        msg1 = Msg1(c)
        assert decode_message(encode_message(msg1)) == msg1

        msg3 = Msg3(nonce, message)
        decoded = decode_message(encode_message(msg3))
        assert decoded == msg3
        assert decode_payload(decoded.message, k) == payload


class TestHonestRun:
    def test_sas_agree_and_keys_match(self, test_params):
        a, b, *_ = honest_exchange(test_params)
        assert a.sas == b.sas
        key_a = a.confirm(True)
        key_b = b.confirm(True)
        assert type(key_a) is int
        assert key_a == key_b
        assert a.phase is Phase.CONFIRMED
        assert key_fingerprint(key_a) == key_fingerprint(key_b)
        assert len(key_fingerprint(key_a)) == 8
        # criterion 7's key 12, the README's example fingerprint
        assert key_fingerprint(12) == "ef6cbd21"

    def test_scripted_exponents_give_known_key(self, test_params):
        # a=3, b=4: shared secret 2^12 mod 23 = 2
        rng_a = ScriptedExponents([3], seed=1)
        rng_b = ScriptedExponents([4], seed=2)
        a, b, *_ = honest_exchange(test_params, rng_a=rng_a, rng_b=rng_b)
        assert a.own_payload.public_share == 8
        assert b.own_payload.public_share == 16
        assert a.confirm(True) == 2
        assert b.confirm(True) == 2

    def test_phase_logs(self, test_params):
        a, b, *_ = honest_exchange(test_params)
        a.confirm(True)
        b.confirm(True)
        expected = [
            Phase.CREATED,
            Phase.COMMIT_EXCHANGED,
            Phase.PAYLOAD_EXCHANGED,
            Phase.DECOMMITTED,
            Phase.SAS_READY,
            Phase.CONFIRMED,
        ]
        assert a.phase_log == expected
        assert b.phase_log == expected

    def test_remote_identities_exchanged(self, test_params):
        a, b, *_ = honest_exchange(test_params)
        assert a.remote_payload.identity == "bob"
        assert b.remote_payload.identity == "alice"

    def test_completeness_many_seeds(self, test_params, p40_params):
        for seed in range(30):
            a, b, *_ = honest_exchange(
                test_params, rng_a=random.Random(seed), rng_b=random.Random(seed + 1000)
            )
            assert a.sas == b.sas
            assert a.confirm(True) == b.confirm(True)
        a, b, *_ = honest_exchange(p40_params, k=20)
        assert a.sas == b.sas
        assert a.confirm(True) == b.confirm(True)

    def test_k_defaults_to_20(self, test_params):
        a = Peer(Role.INITIATOR, test_params, "alice", rng=random.Random(1))
        a.start()
        assert a.k == 20
        assert type(a.own_nonce) is int and 0 <= a.own_nonce < 2**20


class TestReferenceModel:
    """Peer against tests/model.py, which states the protocol apart from
    saska.protocol."""

    @given(name=st.sampled_from(["test", "p40", "modp2048"]), k=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1), id_a=LABELS, id_b=LABELS)
    @example(name="modp2048", k=64, seed=0, id_a="alice", id_b="bob")
    @example(name="test", k=1, seed=0, id_a="alice", id_b="bob")
    @settings(max_examples=100, deadline=None)
    def test_frames_and_strings_are_the_models(self, name, k, seed, id_a, id_b):
        a, b, *sent = honest_exchange(PARAM_SETS[name], k, random.Random(seed), random.Random(seed + 1),
                                      id_a, id_b)
        msg1, msg2, msg3 = model_frames(a, b)
        assert sent == [msg1, msg2, msg3]
        assert a.sas.value == b.sas.value == model.view_sas(msg2, msg3)

    @pytest.mark.parametrize("name, initiator, responder", [
        pytest.param("p40", (2, 105), (1, 40), id="p40"),
        pytest.param("modp2048", (2, 344), (1, 279), id="modp2048"),
    ])
    def test_messages_and_octets_per_side(self, name, initiator, responder):
        # saska's side of the paper's overhead claim: one seeded honest
        # session at k = 20, counted from the model's frames
        msg1, msg2, msg3 = model_frames(*honest_exchange(PARAM_SETS[name])[:2])
        sent = {"initiator": (msg1, msg3), "responder": (msg2,)}
        assert {side: (len(frames), sum(map(len, frames))) for side, frames in sent.items()} == {
            "initiator": initiator, "responder": responder}

    @pytest.mark.parametrize("name, initiator, responder", [
        # p40: six 132-bit exponent draws (about 1.55 on average), then the nonce and the opening nonce
        pytest.param("p40", (8, 6 * 132 + 20 + 256), (2, 132 + 20), id="p40"),
        pytest.param("modp2048", (3, 256 + 20 + 256), (2, 256 + 20), id="modp2048"),
    ])
    def test_random_bits_per_side(self, name, initiator, responder):
        # the bits each side's generator yields in the session above:
        # the exponent, the k-bit nonce and, for the initiator, the
        # commitment's 256-bit opening nonce.  randrange draws the exponent
        # again when a draw is not below its bound, so a count holds for
        # its seed only
        class Counting(random.Random):
            draws = bits = 0

            def getrandbits(self, n):
                self.draws += 1
                self.bits += n
                return super().getrandbits(n)

        rng_a, rng_b = Counting(1), Counting(2)
        counted = honest_exchange(PARAM_SETS[name], 20, rng_a, rng_b)[2:]
        assert counted == honest_exchange(PARAM_SETS[name], 20)[2:]  # counting changes no draw
        assert {"initiator": (rng_a.draws, rng_a.bits), "responder": (rng_b.draws, rng_b.bits)} == {
            "initiator": initiator, "responder": responder}


class TestPhaseGuards:
    def test_second_payload_is_wrong_phase(self, test_params):
        """Once the SAS is ready a second Msg2 is ignored."""
        a, b, _, frame2, _ = honest_exchange(test_params)
        assert a.receive(frame2) == []
        assert a.phase is Phase.SAS_READY  # guard must not clobber the session

    def test_confirm_before_sas_ready(self, test_params):
        a, _ = started_initiator(test_params)
        with pytest.raises(WrongPhase):
            a.confirm(True)

    def test_confirm_false_aborts_without_key(self, test_params):
        a, b, *_ = honest_exchange(test_params)
        assert a.confirm(False) is None
        assert a.phase is Phase.ABORTED
        assert a.session_key is None
        with pytest.raises(WrongPhase):
            a.confirm(True)

    def test_decommit_before_commit_phase(self, test_params):
        """A second Msg3 is ignored too: the responder's SAS is ready."""
        a, b, _, _, frame3 = honest_exchange(test_params)
        assert b.receive(frame3) == []
        assert b.phase is Phase.SAS_READY

    def test_responder_rejects_non_commit(self, test_params):
        _, _, _, frame2, _ = honest_exchange(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(3))
        with pytest.raises(MalformedMessage):
            b.receive(frame2)
        assert b.phase is Phase.ABORTED


def bad_share_frame(params, nonce: int) -> bytes:
    """A Msg2 whose public share, 1, lies outside the subgroup."""
    return encode_message(Msg2(params.set_id, 20, encode_payload(PairingPayload(
        "bob", 1, nonce), 20)))


class TestKeyGating:
    def test_derive_key_called_only_on_confirm(self, test_params, monkeypatch):
        calls = []
        real = protocol.derive_key

        def spy(params, peer_share, x):
            calls.append(peer_share)
            return real(params, peer_share, x)

        monkeypatch.setattr(protocol, "derive_key", spy)
        a, b, *_ = honest_exchange(test_params)
        assert calls == []  # full exchange, sas ready, still no key derivation
        a.confirm(False)
        assert calls == []
        b.confirm(True)
        assert len(calls) == 1

    def test_no_key_on_any_abort_path(self, test_params):
        a, _ = started_initiator(test_params)
        with pytest.raises(SubgroupCheckFailed):
            a.receive(bad_share_frame(test_params, 0))
        assert a.session_key is None
        assert Phase.CONFIRMED not in a.phase_log


class TestAttacksAtOpLevel:
    def test_identity_share_aborts_before_decommit(self, test_params):
        a, _ = started_initiator(test_params)
        with pytest.raises(SubgroupCheckFailed):
            a.receive(bad_share_frame(test_params, 5))
        assert a.phase is Phase.ABORTED
        # the decommitment never left the initiator
        assert Phase.DECOMMITTED not in a.phase_log

    def test_param_set_mismatch_aborts(self, test_params):
        other = PARAM_SETS["p40"]
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, other, "bob", 20, random.Random(2))
        (frame2,) = b.receive(frame1)
        with pytest.raises(MalformedMessage) as info:
            a.receive(frame2)
        assert str(info.value) == "parameter set mismatch: peer 0xc74f6b20, ours 0xc4ad08ab"
        assert a.phase is Phase.ABORTED

    def test_k_mismatch_aborts(self, test_params):
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 16, random.Random(2))
        (frame2,) = b.receive(frame1)
        with pytest.raises(MalformedMessage) as info:
            a.receive(frame2)
        assert str(info.value) == "k mismatch: peer 16, ours 20"
        assert a.phase is Phase.ABORTED

    def test_decommit_for_different_message_fails_open(self, test_params, monkeypatch):
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        (frame2,) = b.receive(frame1)
        a.receive(frame2)
        # adversary commits to its own payload and sends that opening
        # against A's original commitment
        forged = encode_payload(PairingPayload("alice", 8, 7), 20)
        _, forged_nonce = commit(forged, random.Random(9))
        parsed = []
        monkeypatch.setattr(protocol, "decode_payload", lambda *args: parsed.append(args))
        with pytest.raises(OpenFailed):
            b.receive(encode_message(Msg3(forged_nonce, forged)))
        assert parsed == []  # the opening failed before the payload was parsed
        assert b.phase is Phase.ABORTED

    def test_empty_opening_fails_open_not_parse(self, test_params, monkeypatch):
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        b.receive(frame1)
        # a Msg3 body of the genuine nonce alone: well framed, opens nothing
        frame3 = encode_message(Msg3(a.opening.nonce, b""))
        assert len(frame3) == 5 + 32
        parsed = []
        monkeypatch.setattr(protocol, "decode_payload", lambda *args: parsed.append(args))
        with pytest.raises(OpenFailed):
            b.receive(frame3)
        assert parsed == []
        assert b.phase is Phase.ABORTED

    def test_nonce_substitution_changes_sas(self, test_params):
        a, frame1 = started_initiator(test_params)
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        (frame2,) = b.receive(frame1)
        msg2 = decode_message(frame2)
        payload = decode_payload(msg2.message, msg2.k)
        evil_nonce = payload.auth_nonce ^ 0x1
        evil = Msg2(msg2.param_set_id, msg2.k, encode_payload(
                    PairingPayload(payload.identity, payload.public_share, evil_nonce), msg2.k))
        (frame3,) = a.receive(encode_message(evil))
        b.receive(frame3)
        # S_A xor S_B = N_B xor N_E != 0
        assert a.sas != b.sas
        assert a.sas.to_int() ^ b.sas.to_int() == 0x1

    def test_initiator_share_outside_subgroup_rejected(self, test_params):
        # a forged commit/decommit pair whose payload carries a non-subgroup share
        forged = encode_payload(PairingPayload("alice", 5, 3), 20)
        c, nonce = commit(forged, random.Random(1))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        b.receive(encode_message(Msg1(c)))
        with pytest.raises(SubgroupCheckFailed):
            b.receive(encode_message(Msg3(nonce, forged)))
        assert b.phase is Phase.ABORTED

    def test_garbage_inside_opened_commitment_is_malformed(self, test_params):
        c, nonce = commit(b"\x00\x70junk", random.Random(1))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        b.receive(encode_message(Msg1(c)))
        with pytest.raises(MalformedMessage):
            b.receive(encode_message(Msg3(nonce, b"\x00\x70junk")))
        assert b.phase is Phase.ABORTED


# 2,000 octets: past the 4,300 digits int-to-str allows by default
BIG_SHARE = (1 << 16000) - 1


def raw_payload(identity: bytes, share: bytes, nonce: bytes) -> bytes:
    """Payload octets built field by field, with no check on any field."""
    return b"".join(len(f).to_bytes(2, "big") + f for f in (identity, share, nonce))


# each field is either arbitrary octets or a well-formed value on the test
# group at k=20, so that both outcomes occur
hostile_fields = given(
    identity=st.binary(max_size=70) | st.sampled_from([b"bob", "é".encode() * 32]),
    share=st.binary(max_size=40) | st.integers(1, 23).map(lambda n: bytes([n])),
    nonce=st.binary(max_size=4) | st.integers(0, 2**20 - 1).map(lambda n: n.to_bytes(3, "big")),
)
big_share_example = example(identity=b"x", share=BIG_SHARE.to_bytes(2000, "big"), nonce=bytes(3))


class TestHostilePayload:
    """Whatever payload a hostile peer sends, receive raises nothing but a
    PairingError, which leaves the peer ABORTED; a payload that passes
    every check leaves it SAS_READY."""

    def test_oversized_share_in_msg2_aborts_initiator(self, test_params):
        a, _ = started_initiator(test_params)
        msg2 = Msg2(test_params.set_id, 20, encode_payload(PairingPayload("bob", BIG_SHARE, 0), 20))
        with pytest.raises(SubgroupCheckFailed, match="^responder share of 16000 bits rejected$"):
            a.receive(encode_message(msg2))
        assert a.phase is Phase.ABORTED

    def test_oversized_share_in_opened_commitment_aborts_responder(self, test_params):
        message = encode_payload(PairingPayload("alice", BIG_SHARE, 0), 20)
        c, nonce = commit(message, random.Random(1))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        b.receive(encode_message(Msg1(c)))
        with pytest.raises(SubgroupCheckFailed, match="^initiator share of 16000 bits rejected$"):
            b.receive(encode_message(Msg3(nonce, message)))
        assert b.phase is Phase.ABORTED

    @staticmethod
    def check_receive(peer: Peer, frame: bytes):
        try:
            peer.receive(frame)
        except PairingError:
            assert peer.phase is Phase.ABORTED
        else:
            assert peer.phase is Phase.SAS_READY

    @hostile_fields
    @big_share_example
    @settings(max_examples=150, deadline=None)
    def test_hostile_msg2_at_initiator(self, identity, share, nonce):
        params = PARAM_SETS["test"]
        a, _ = started_initiator(params)
        body = params.set_id.to_bytes(4, "big") + (20).to_bytes(2, "big") + raw_payload(identity, share, nonce)
        self.check_receive(a, bytes([0x02]) + len(body).to_bytes(4, "big") + body)

    @hostile_fields
    @big_share_example
    @settings(max_examples=150, deadline=None)
    def test_hostile_opened_payload_at_responder(self, identity, share, nonce):
        params = PARAM_SETS["test"]
        message = raw_payload(identity, share, nonce)
        c, opening_nonce = commit(message, random.Random(1))
        b = Peer(Role.RESPONDER, params, "bob", 20, random.Random(2))
        b.receive(encode_message(Msg1(c)))
        self.check_receive(b, encode_message(Msg3(opening_nonce, message)))


class TestPeer:
    """The abort, ignore and construction rules of the state machine."""

    def test_construction_draws_nothing(self, test_params):
        rng = random.Random(5)
        before = rng.getstate()
        Peer(Role.INITIATOR, test_params, "alice", 20, rng)
        # the responder draws nothing until the commitment arrives
        assert Peer(Role.RESPONDER, test_params, "bob", 20, rng).start() == []
        assert rng.getstate() == before

    def test_k_checked_at_construction(self, test_params):
        # the one check of an API caller's k, which nothing after it repeats
        rng = random.Random(5)
        before = rng.getstate()
        for role in Role:
            for k in (0, 65):
                with pytest.raises(ValueError) as info:
                    Peer(role, test_params, "alice", k, rng)
                assert str(info.value) == f"k must be in [1, 64], got {k}"
        # a forced nonce must be a k-bit value, checked before any draw
        for nonce in (-1, 2**8):
            with pytest.raises(ValueError):
                Peer(Role.RESPONDER, test_params, "bob", 8, rng, nonce=nonce)
        assert rng.getstate() == before
        assert Peer(Role.RESPONDER, test_params, "bob", 8, nonce=2**8 - 1).own_nonce == 255

    @pytest.mark.parametrize("role", list(Role))
    def test_failed_draw_propagates_as_raised(self, test_params, role):
        """An OS fault in the draw is not a pairing fault: the peer returns
        no frame, logs no phase and lets the very exception through."""
        fault = OSError("entropy pool exhausted")

        class Broken(random.Random):
            def getrandbits(self, k):
                raise fault

        peer = Peer(role, test_params, "alice", 20, Broken())
        if role is Role.INITIATOR:
            act = peer.start
        else:
            _, frame1 = started_initiator(test_params)
            act = functools.partial(peer.receive, frame1)
        frames = None
        with pytest.raises(OSError) as info:
            frames = act()
        assert info.value is fault
        assert frames is None
        assert peer.phase_log == [Phase.CREATED]

    def test_receive_before_start_is_wrong_phase(self, test_params):
        _, _, _, frame2, _ = honest_exchange(test_params)
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        with pytest.raises(WrongPhase) as info:
            a.receive(frame2)
        assert str(info.value) == "initiator received a frame in phase CREATED"
        assert a.phase_log == [Phase.CREATED, Phase.ABORTED]

    def test_start_twice_is_wrong_phase(self, test_params):
        a, frame1 = started_initiator(test_params)
        with pytest.raises(WrongPhase):
            a.start()
        assert a.phase is Phase.COMMIT_EXCHANGED
        assert encode_message(Msg1(a.commitment)) == frame1

    def test_rejected_frame_aborts_and_later_frames_are_ignored(self, test_params):
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        (msg1,) = a.start()
        (msg2,) = b.receive(msg1)
        with pytest.raises(MalformedMessage):
            a.receive(b"\x07\x00\x00\x00\x01\x00")
        assert a.phase is Phase.ABORTED and a.phase_log[-1] is Phase.ABORTED
        assert a.receive(msg2) == []
        assert a.sas is None

    def test_responder_aborts_before_any_state(self, test_params):
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        with pytest.raises(MalformedMessage):
            b.receive(b"\x01\x00\x00")
        assert b.phase_log == [Phase.CREATED, Phase.ABORTED] and b.private is None
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        assert b.receive(a.start()[0]) == []

    def test_frames_after_sas_ready_are_ignored(self, test_params):
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
        (msg1,) = a.start()
        (msg2,) = b.receive(msg1)
        (msg3,) = a.receive(msg2)
        assert b.receive(msg3) == []
        assert b.receive(msg3) == [] and a.receive(msg2) == []
        assert a.sas == b.sas and a.phase is b.phase is Phase.SAS_READY


@functools.lru_cache(maxsize=None)
def fuzz_frames(params_name: str) -> dict:
    """The genuine frames at k=20, the same session at k=16 and on the
    other group, and a forged commitment to a share of 1 with its opening,
    which opens nothing but that commitment."""
    params = PARAM_SETS[params_name]
    other = PARAM_SETS["p40" if params_name == "test" else "test"]
    forged = encode_payload(PairingPayload("alice", 1, 7), 20)
    c, nonce = commit(forged, random.Random(9))
    sessions = {"": (params, 20), "wrong-k-": (params, 16), "wrong-set-": (other, 20)}
    return {
        **{f"{prefix}msg{n}": frame for prefix, (group, k) in sessions.items()
           for n, frame in enumerate(honest_exchange(group, k)[2:], 1)},
        "forged-msg1": encode_message(Msg1(c)),
        "forged-msg3": encode_message(Msg3(nonce, forged)),
    }


HONEST_STEP = st.sampled_from([("start",), ("frame", "msg1", None), ("frame", "msg2", None),
                               ("frame", "msg3", None), ("confirm", True), ("confirm", False)])
HOSTILE_FRAME = st.one_of(
    # any named frame, whole or cut short; named when first drawn, so that a
    # session that fails fails the test, not the module's import
    st.tuples(st.just("frame"), st.deferred(lambda: st.sampled_from(sorted(fuzz_frames("test")))),
              st.none() | st.integers(0, 60)),
    st.tuples(st.just("garbage"), st.binary(max_size=12)),
)


@st.composite
def fuzz_actions(draw):
    """Honest steps in any order with up to two hostile frames among them,
    so that runs often get as far as SAS_READY and past it."""
    actions = draw(st.lists(HONEST_STEP, max_size=8))
    for hostile in draw(st.lists(HOSTILE_FRAME, max_size=2)):
        actions.insert(draw(st.integers(0, len(actions))), hostile)
    return actions


class TestPhaseOrder:
    """Whatever a role is fed, in whatever order, only a PairingError
    escapes and phase_log only moves forward: it starts at CREATED, rises
    strictly, ends at CONFIRMED or ABORTED if it holds either, and the
    session key exists exactly when CONFIRMED is in it."""

    @staticmethod
    def act(peer: Peer, frames: dict, action: tuple):
        kind, *args = action
        if kind == "start":
            peer.start()
        elif kind == "confirm":
            peer.confirm(args[0])
        elif kind == "frame":
            name, cut = args
            peer.receive(frames[name][:cut])
        else:
            peer.receive(args[0])

    @given(params_name=st.sampled_from(["test", "p40"]), role=st.sampled_from(Role), actions=fuzz_actions())
    @example(params_name="test", role=Role.RESPONDER,
             actions=[("frame", "msg1", None), ("frame", "msg3", None), ("confirm", True), ("confirm", True)])
    @example(params_name="p40", role=Role.INITIATOR,
             actions=[("start",), ("frame", "msg2", None), ("confirm", True), ("confirm", False)])
    @settings(max_examples=300, deadline=None)
    def test_phases_only_move_forward(self, params_name, role, actions):
        params = PARAM_SETS[params_name]
        frames = fuzz_frames(params_name)
        # seeded as in honest_exchange, so the genuine frames are this peer's session
        seed = 1 if role is Role.INITIATOR else 2
        peer = Peer(role, params, "alice" if role is Role.INITIATOR else "bob", 20, random.Random(seed))
        for action in actions:
            try:
                self.act(peer, frames, action)
            except PairingError:
                pass
            log = peer.phase_log
            assert log[0] is Phase.CREATED
            assert all(a < b for a, b in zip(log, log[1:])), log
            assert Phase.CONFIRMED not in log[:-1] and Phase.ABORTED not in log[:-1], log
            assert (peer.session_key is not None) == (Phase.CONFIRMED in log)
