import random
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

import pytest

from saska.adversary import (
    AttackStrategy,
    _Attacker,
    Direction,
    FullMitmAttacker,
    GuessRule,
    StrategyKind,
    _child_rngs,
    _run_trial,
    check_run,
    estimate_attack_success,
    exhaustive_attack_success,
    make_attacker,
    misbound,
    run_mitm_trial,
    sim_report,
    wilson_interval,
)
from saska.group import PARAM_SETS
from saska.protocol import (
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)

import model

ATTACK_KINDS = (
    StrategyKind.IMPERSONATE_INITIATOR,
    StrategyKind.IMPERSONATE_RESPONDER,
    StrategyKind.FULL_MITM,
)
HONEST = AttackStrategy(StrategyKind.HONEST)


class TestHonestSession:
    def test_small_group(self, test_params):
        out = run_mitm_trial(HONEST, test_params, 20, 1)
        assert out.success and out.sas_match and out.keys_equal
        assert out.sas_a == out.sas_b

    def test_p40_group(self, p40_params):
        out = run_mitm_trial(HONEST, p40_params, 20, 2)
        assert out.success

    def test_distinct_seeds_distinct_nonces(self, test_params):
        a = run_mitm_trial(HONEST, test_params, 20, 3)
        b = run_mitm_trial(HONEST, test_params, 20, 4)
        assert a.success and b.success
        assert a.sas_a != b.sas_a  # overwhelmingly likely at k=20; frozen by seeds

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_modp2048_group(self, seed):
        out = run_mitm_trial(HONEST, PARAM_SETS["modp2048"], 20, seed)
        assert out.success and out.sas_match and out.keys_equal

    @pytest.mark.parametrize("name", ["test", "p40"])
    def test_k64_session_pairs(self, name):
        # MAX_K itself: the widest SAS, nonce and Msg2 k field
        out = run_mitm_trial(HONEST, PARAM_SETS[name], 64, 6)
        assert out.success and out.sas_match and out.keys_equal and out.aborts == ()
        assert out.sas_a.k == 64

    def test_transcript_has_three_frames(self, test_params):
        out = run_mitm_trial(HONEST, test_params, 20, 5)
        # each entry a (Direction, bytes, tuple) triple, in send order
        assert [(type(d), type(f), type(delivered)) for d, f, delivered in out.transcript] == [
            (Direction, bytes, tuple)] * 3
        assert [(d, type(decode_message(f))) for d, f, _ in out.transcript] == [
            (Direction.A_TO_B, Msg1), (Direction.B_TO_A, Msg2), (Direction.A_TO_B, Msg3)]
        assert all(delivered == ((d, f),) for d, f, delivered in out.transcript)


def forced_trial(kind, params, k, guess, nonce_value, seed=0):
    """Run a fixed-guess attack with the guessed honest nonce forced."""
    strategy = AttackStrategy(kind, GuessRule.FIXED, guess)
    return run_mitm_trial(strategy, params, k, seed, nonce_value)


def winning_nonce(kind, params, k, guess) -> int:
    """The forced nonce with which the fixed guess wins, as tests/model.py
    reads it from a first run with the nonce forced to 0."""
    first = forced_trial(kind, params, k, guess, 0)
    assert (first.sas_a.value, first.sas_b.value) == model.transcript_sas(first)
    return model.winning_nonce(first)


class TestMitmTrials:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_correct_guess_wins(self, test_params, kind):
        nonce = winning_nonce(kind, test_params, 8, 0x5A)
        out = forced_trial(kind, test_params, 8, guess=0x5A, nonce_value=nonce)
        assert out.success
        assert out.sas_match
        assert out.attacker_key_with_a or out.attacker_key_with_b

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_wrong_guess_gives_sas_mismatch(self, test_params, kind):
        nonce = winning_nonce(kind, test_params, 8, 0x5A) ^ 1
        out = forced_trial(kind, test_params, 8, guess=0x5A, nonce_value=nonce)
        assert not out.success
        assert out.sas_a is not None and out.sas_b is not None
        assert out.sas_a != out.sas_b

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_success_implies_sas_match(self, test_params, kind):
        strategy = AttackStrategy(kind, GuessRule.UNIFORM)
        for seed in range(50):
            out = run_mitm_trial(strategy, test_params, 3, seed)
            if out.success:
                assert out.sas_match
                assert out.attacker_key_with_a or out.attacker_key_with_b

    @pytest.mark.parametrize("name", ["test", "p40"])
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_k64_correct_guess_wins(self, kind, name):
        # MAX_K itself on the attack path: the attacker's forged payloads
        # carry 64-bit nonces, and a right guess still wins outright
        guess = 0xF00D_CAFE_DEAD_BEEF  # bit 63 set
        nonce = winning_nonce(kind, PARAM_SETS[name], 64, guess)
        out = forced_trial(kind, PARAM_SETS[name], 64, guess=guess, nonce_value=nonce)
        assert out.success and out.sas_match and out.aborts == ()
        assert out.sas_a.k == 64

    @pytest.mark.parametrize("name", ["test", "p40"])
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_attacker_holds_both_keys_on_win(self, kind, name):
        """Every strategy substitutes its own share toward both victims, so
        a win hands it both keys.  Impersonate-responder's decisions never
        read B's Msg2: key_with_b alone parses it."""
        params = PARAM_SETS[name]
        nonce = winning_nonce(kind, params, 4, 7)
        out = forced_trial(kind, params, 4, guess=7, nonce_value=nonce)
        assert out.success and out.attacker_key_with_a and out.attacker_key_with_b
        assert not out.keys_equal  # the victims hold different keys: that is the attack

    def test_rebound_commitment_fails_open(self, test_params):
        """An attacker that commits, then tries to open with a modified
        nonce, is caught by the binding check."""

        class RebindingMitm(FullMitmAttacker):
            def __call__(self, frame, direction):
                msg = decode_message(frame)
                if isinstance(msg, Msg3) and direction is Direction.A_TO_B:
                    better = PairingPayload(
                        "alice", self.share, (self.blind ^ 1) & ((1 << self.k) - 1))
                    forged = Msg3(self.opening.nonce, encode_payload(better, self.k))
                    return [(direction, encode_message(forged))]
                return super().__call__(frame, direction)

        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.FIXED, 0)
        rng, rng_e = _child_rngs(9)
        attacker = RebindingMitm(strategy, test_params, 4, rng_e)
        out = _run_trial(test_params, 4, rng, attacker)
        assert not out.success
        assert any("OpenFailed" in note for note in out.aborts)

    def test_rejected_frame_aborts_initiator(self, test_params):
        """A frame that fails decoding aborts A for good: the genuine Msg2
        behind it is ignored and A never releases its decommitment."""

        class GarbageToInitiator(_Attacker):
            def __call__(self, frame, direction):
                if isinstance(decode_message(frame), Msg1):
                    return [(direction, frame), (Direction.B_TO_A, bytes.fromhex("070000000100"))]
                return [(direction, frame)]

        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.FIXED, 0)
        rng, rng_e = _child_rngs(3)
        attacker = GarbageToInitiator(strategy, test_params, 8, rng_e)
        out = _run_trial(test_params, 8, rng, attacker)
        assert len(out.aborts) == 1 and out.aborts[0].startswith("initiator: ")
        assert out.sas_a is None
        assert not any(isinstance(decode_message(f), Msg3) for _, f, _ in out.transcript)
        assert not out.sas_match and not out.keys_equal and not out.success

    def test_honest_strategy_through_trial_api(self, test_params):
        strategy = AttackStrategy(StrategyKind.HONEST)
        assert run_mitm_trial(strategy, test_params, 8, seed=1).success

    @pytest.mark.parametrize("rule", list(GuessRule))
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_message_fixes_direction(self, test_params, kind, rule):
        """Only the honest peers' own frames reach the attacker callback, so
        the message alone fixes the direction it travels in."""
        expected = {(Msg1, Direction.A_TO_B), (Msg2, Direction.B_TO_A), (Msg3, Direction.A_TO_B)}
        for seed in range(20):
            out = run_mitm_trial(AttackStrategy(kind, rule), test_params, 4, seed)
            for direction, frame, _ in out.transcript:
                assert (type(decode_message(frame)), direction) in expected, seed

    @pytest.mark.parametrize("rule", list(GuessRule))
    def test_guess_is_fixed_once(self, test_params, rule):
        """A second resolve_guess returns the first guess and draws nothing,
        even after another nonce was seen in the clear."""
        strategy = AttackStrategy(StrategyKind.FULL_MITM, rule, 5)
        attacker = make_attacker(strategy, test_params, 8, random.Random(4))
        first = attacker.resolve_guess()
        state = attacker.rng.getstate()
        payload = encode_payload(PairingPayload("bob", attacker.share, 0x3C), 8)
        attacker.frame_b = encode_message(Msg2(test_params.set_id, 8, payload))
        assert attacker.payload_b.auth_nonce == 0x3C
        assert attacker.resolve_guess() == first
        assert attacker.rng.getstate() == state

    @pytest.mark.parametrize("kind, folded", [
        (StrategyKind.FULL_MITM, 0xC3),
        (StrategyKind.IMPERSONATE_RESPONDER, 0x5A),
        (StrategyKind.IMPERSONATE_INITIATOR, 0),
    ])
    def test_adaptive_guess_folds_the_nonces_seen(self, test_params, kind, folded):
        """The adaptive guess is the XOR of the nonces recorded when it is
        fixed: B's alone (0xC3) when full-mitm answers A, A's alone (0x5A)
        when impersonate-responder commits toward B, and none when
        impersonate-initiator commits first."""
        rng, rng_e = _child_rngs(1)
        attacker = make_attacker(AttackStrategy(kind, GuessRule.ADAPTIVE), test_params, 8, rng_e)
        _run_trial(test_params, 8, rng, attacker, 0x5A, 0xC3)
        assert attacker.guess == folded


class TestDeterminism:
    @pytest.mark.parametrize("kind", ATTACK_KINDS + (StrategyKind.HONEST,))
    def test_identical_seeds_identical_transcripts(self, test_params, kind):
        strategy = AttackStrategy(kind, GuessRule.UNIFORM)
        t1 = run_mitm_trial(strategy, test_params, 8, seed=77).transcript
        t2 = run_mitm_trial(strategy, test_params, 8, seed=77).transcript
        assert t1 == t2

    def test_honest_draws_same_under_every_strategy(self, p40_params):
        """The attacker draws from a generator of its own, so A's Msg1 and
        B's own Msg2 are the same bytes whatever the strategy."""
        sent = set()
        for kind in StrategyKind:
            out = run_mitm_trial(AttackStrategy(kind, GuessRule.UNIFORM), p40_params, 20, seed=31)
            (msg2,) = [frame for direction, frame, _ in out.transcript
                       if direction is Direction.B_TO_A]
            sent.add((out.transcript[0][1], msg2))
        assert len(sent) == 1

    def test_attacker_has_its_own_generator(self):
        rng, rng_e = _child_rngs(31)
        assert rng_e is not rng
        # the honest stream is the same with and without an attacker
        honest, none = _child_rngs(31, attacker=False)
        assert none is None and honest.getstate() == rng.getstate()

    def test_different_seeds_differ(self, test_params):
        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.UNIFORM)
        t1 = run_mitm_trial(strategy, test_params, 8, seed=1).transcript
        t2 = run_mitm_trial(strategy, test_params, 8, seed=2).transcript
        assert [f for _, f, _ in t1] != [f for _, f, _ in t2]


class TestExhaustive:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fixed_guess_exact_small_k(self, test_params, kind, k):
        strategy = AttackStrategy(kind, GuessRule.FIXED, 0)
        assert exhaustive_attack_success(strategy, test_params, k) == Fraction(1, 2**k)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_nonzero_fixed_guess_exact(self, test_params, kind):
        # 13 is wider than k = 3: the guess is its low 3 bits, 5
        for guess in (5, 13):
            strategy = AttackStrategy(kind, GuessRule.FIXED, guess)
            assert exhaustive_attack_success(strategy, test_params, 3) == Fraction(1, 8)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_uniform_rule_frozen_to_fixed(self, test_params, kind):
        strategy = AttackStrategy(kind, GuessRule.UNIFORM)
        assert exhaustive_attack_success(strategy, test_params, 4, seed=3) == Fraction(1, 16)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_adaptive_rule_cannot_beat_bound(self, test_params, kind):
        strategy = AttackStrategy(kind, GuessRule.ADAPTIVE)
        assert exhaustive_attack_success(strategy, test_params, 4) <= Fraction(1, 16)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_modp2048_exact_rate(self, kind):
        # one of the four trials wins, so the lazily derived attacker keys
        # are compared on the success branch as well
        strategy = AttackStrategy(kind, GuessRule.FIXED, 1)
        assert exhaustive_attack_success(strategy, PARAM_SETS["modp2048"], 2) == Fraction(1, 4)

    def test_k8_fixed_guess(self, test_params):
        strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.FIXED, 0)
        assert exhaustive_attack_success(strategy, test_params, 8) == Fraction(1, 256)

    def test_k_too_large(self, test_params):
        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.FIXED, 0)
        with pytest.raises(ValueError, match="^k = 17 exceeds the enumeration bound 16$"):
            exhaustive_attack_success(strategy, test_params, 17)

    def test_enumeration_bound_is_inclusive(self):
        # checked without running the 2^16 trials k = 16 would take
        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.FIXED, 0)
        assert check_run(strategy, 16) is None
        with pytest.raises(ValueError) as excinfo:
            check_run(strategy, 17)
        assert str(excinfo.value) == "k = 17 exceeds the enumeration bound 16"

    def test_honest_is_always_complete(self, test_params):
        strategy = AttackStrategy(StrategyKind.HONEST)
        assert exhaustive_attack_success(strategy, test_params, 2) == 1


class TestCommitThenGuess:
    """Transcript audit: the frame carrying the attacker's guess is emitted
    strictly before the frame revealing the nonce being guessed."""

    @staticmethod
    def _first_seq(transcript, pred):
        """The sequence number, position plus 1, of the first entry that
        pred(direction, frame, delivered) accepts."""
        for seq, entry in enumerate(transcript, 1):
            if pred(*entry):
                return seq
        return None

    def _delivered_commit_seq(self, transcript, direction):
        return self._first_seq(
            transcript,
            lambda _d, _f, delivered: any(
                d is direction and isinstance(decode_message(f), Msg1)
                for d, f in delivered
            ),
        )

    def _observed_seq(self, transcript, msg_type, direction):
        return self._first_seq(
            transcript,
            lambda d, f, _: d is direction and isinstance(decode_message(f), msg_type),
        )

    @pytest.mark.parametrize("kind", (StrategyKind.IMPERSONATE_INITIATOR, StrategyKind.FULL_MITM))
    def test_commit_out_before_initiator_nonce_visible(self, test_params, kind):
        out = run_mitm_trial(AttackStrategy(kind, GuessRule.FIXED, 0), test_params, 8, seed=6)
        commit_seq = self._delivered_commit_seq(out.transcript, Direction.A_TO_B)
        reveal_seq = self._observed_seq(out.transcript, Msg3, Direction.A_TO_B)
        assert commit_seq is not None and reveal_seq is not None
        assert commit_seq < reveal_seq

    def test_commit_out_before_responder_nonce_visible(self, test_params):
        strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.FIXED, 0)
        out = run_mitm_trial(strategy, test_params, 8, seed=6)
        commit_seq = self._delivered_commit_seq(out.transcript, Direction.A_TO_B)
        reveal_seq = self._observed_seq(out.transcript, Msg2, Direction.B_TO_A)
        assert commit_seq is not None and reveal_seq is not None
        assert commit_seq < reveal_seq
        # and its payload toward A went out before A revealed N_A
        payload_seq = self._first_seq(
            out.transcript,
            lambda _d, _f, delivered: any(
                d is Direction.B_TO_A and isinstance(decode_message(f), Msg2)
                for d, f in delivered
            ),
        )
        msg3_seq = self._observed_seq(out.transcript, Msg3, Direction.A_TO_B)
        assert payload_seq < msg3_seq


class TestEstimate:
    def test_k8_ci_contains_bound(self, test_params):
        strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.UNIFORM)
        est = estimate_attack_success(strategy, test_params, 8, 20_000, seed=11)
        assert est.trials == 20_000
        assert est.ci_low <= 2**-8 <= est.ci_high
        assert est.ci_low <= est.rate <= est.ci_high

    def test_honest_rate_is_one(self, test_params):
        strategy = AttackStrategy(StrategyKind.HONEST)
        est = estimate_attack_success(strategy, test_params, 8, 100, seed=1)
        assert est.rate == 1.0 and est.successes == 100

    def test_attack_trials_floor(self, test_params):
        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.UNIFORM)
        with pytest.raises(ValueError):
            estimate_attack_success(strategy, test_params, 8, 999, seed=1)

    def test_honest_trials_floor(self):
        strategy = AttackStrategy(StrategyKind.HONEST)
        with pytest.raises(ValueError) as excinfo:
            check_run(strategy, 8, 0)
        assert str(excinfo.value) == "trials must be positive"
        assert check_run(strategy, 8, 1) is None

    @pytest.mark.parametrize("kind", [StrategyKind.HONEST, StrategyKind.FULL_MITM])
    def test_trials_ceiling_is_inclusive(self, kind):
        strategy = AttackStrategy(kind, GuessRule.UNIFORM)
        assert check_run(strategy, 8, 10**9) is None
        with pytest.raises(ValueError) as excinfo:
            check_run(strategy, 8, 10**9 + 1)
        assert str(excinfo.value) == f"trials must be at most 1000000000, got {10**9 + 1}"

    def test_same_seed_same_estimate(self, test_params):
        strategy = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.UNIFORM)
        e1 = estimate_attack_success(strategy, test_params, 4, 1000, seed=5)
        e2 = estimate_attack_success(strategy, test_params, 4, 1000, seed=5)
        assert e1 == e2

    def test_exhaustive_inside_ci_for_most_experiments(self, test_params):
        # spec invariant: for k <= 10, the exact fraction lies inside the
        # Monte Carlo 99% CI in >= 95% of repeated experiments
        strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.UNIFORM)
        exact = exhaustive_attack_success(
            AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.FIXED, 0),
            test_params, 3)
        covered = 0
        experiments = 20
        for i in range(experiments):
            est = estimate_attack_success(strategy, test_params, 3, 1200, seed=1000 + i)
            covered += est.ci_low <= float(exact) <= est.ci_high
        assert covered >= 0.95 * experiments


class TestPassRule:
    """Every report `saska sim` prints is judged by sim_report alone."""

    honest = AttackStrategy(StrategyKind.HONEST)
    attack = AttackStrategy(StrategyKind.FULL_MITM, GuessRule.UNIFORM)

    def test_honest_with_one_unpaired_trial_fails(self):
        assert not sim_report(self.honest, 8, 100, 99).passed
        assert sim_report(self.honest, 8, 100, 100).passed

    def test_exhaustive_two_successes_fail(self):
        report = sim_report(self.attack, 3, 8, 2, exhaustive=True)
        assert report.mode == "exhaustive" and not report.passed
        assert "result=fail" in report.kv_line()

    def test_exhaustive_one_success_passes(self):
        report = sim_report(self.attack, 3, 8, 1, exhaustive=True)
        assert report.passed and report.rate == report.ci_low == report.ci_high == 2**-3

    def test_montecarlo_interval_above_bound_fails(self):
        report = sim_report(self.attack, 8, 1000, 50)
        assert report.mode == "montecarlo"
        assert report.ci_low > 2**-8 and not report.passed


class TestWilson:
    def test_brackets_rate(self):
        low, high = wilson_interval(391, 100_000)
        assert low <= 391 / 100_000 <= high
        assert low <= 2**-8 <= high

    def test_zero_successes(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0 < high < 0.02
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_all_successes(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert 0.98 < low < 1.0


def frame_of(body: bytes, tag: int = 0x01) -> bytes:
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


class Scripted(_Attacker):
    """An attacker whose every decision is made by a plain function; the
    _Attacker base answers the key comparisons once the victims confirm."""

    def __init__(self, decide, params, k):
        super().__init__(AttackStrategy(StrategyKind.FULL_MITM), params, k, random.Random(0))
        self.decide = decide

    def __call__(self, frame, direction):
        return self.decide(frame, direction)


def run_through(decide, params, k=20):
    """One honest initiator and responder, every frame passing `decide`."""
    return _run_trial(params, k, random.Random(1), Scripted(decide, params, k))


class TestInterposition:
    def test_identity_callback_passes_through(self, test_params):
        out = run_through(lambda frame, direction: [(direction, frame)], test_params)
        assert out.sas_a is not None and out.sas_a == out.sas_b
        assert out.keys_equal
        assert out.aborts == ()
        assert len(out.transcript) == 3

    def test_tuple_subclass_is_a_delivery(self, test_params):
        # the delivery check is an isinstance test, so a named tuple passes
        Delivery = namedtuple("Delivery", "direction frame")
        out = run_through(lambda frame, direction: [Delivery(direction, frame)], test_params)
        assert out.keys_equal and out.aborts == ()
        assert all(type(pair) is Delivery for _, _, delivered in out.transcript for pair in delivered)

    def test_drop_everything_starves_both_peers(self, test_params):
        out = run_through(lambda frame, direction: [], test_params)
        assert out.sas_a is None and out.sas_b is None
        assert out.aborts == ()
        assert len(out.transcript) == 1
        assert out.transcript[0][2] == ()

    def test_replace_and_inject(self, test_params):
        swap = frame_of(b"\x55" * 32)
        extra = frame_of(b"\x66" * 32)

        def adversary(frame, direction):
            if isinstance(decode_message(frame), Msg1):
                return [(direction, swap), (Direction.B_TO_A, extra)]
            return [(direction, frame)]

        out = run_through(adversary, test_params)
        _, frame, delivered = out.transcript[0]
        assert isinstance(decode_message(frame), Msg1)
        assert frame != swap
        assert delivered == ((Direction.A_TO_B, swap), (Direction.B_TO_A, extra))
        # B took the swapped commitment and answered it; A took the injected
        # commit frame where it expected a payload, and aborted
        assert isinstance(decode_message(out.transcript[1][1]), Msg2)
        assert out.transcript[1][0] is Direction.B_TO_A
        assert len(out.transcript) == 2
        assert len(out.aborts) == 1 and out.aborts[0].startswith("initiator: MalformedMessage")

    def test_nonce_replacement_causes_sas_mismatch(self, test_params):
        def flip_msg2_nonce(frame, direction):
            msg = decode_message(frame)
            if isinstance(msg, Msg2):
                payload = decode_payload(msg.message, msg.k)
                forged = encode_payload(PairingPayload(
                    payload.identity,
                    payload.public_share,
                    payload.auth_nonce ^ 1,
                ), msg.k)
                return [(direction, encode_message(Msg2(msg.param_set_id, msg.k, forged)))]
            return [(direction, frame)]

        out = run_through(flip_msg2_nonce, test_params)
        assert out.sas_a is not None and out.sas_b is not None
        assert out.sas_a != out.sas_b
        assert not out.success

    def test_transcript_sequencing_and_causality(self, test_params):
        observed = []

        def adversary(frame, direction):
            observed.append((direction, frame))
            return [(direction, frame)]

        out = run_through(adversary, test_params)
        assert len(out.transcript) == 3
        # one call per frame sent, in send order
        assert observed == [(d, f) for d, f, _ in out.transcript]

    def test_deterministic_replay_of_decisions(self, test_params):
        def substitute(frame, direction):
            if isinstance(decode_message(frame), Msg2):
                return [(direction, frame_of(b"\x99" * 32, tag=0x02))]
            return [(direction, frame)]

        out = run_through(substitute, test_params)
        assert len(out.transcript) == 2
        # replay: feeding each recorded frame back into the callback
        # reproduces the recorded deliveries
        for direction, frame, delivered in out.transcript:
            again = substitute(frame, direction)
            assert tuple(again) == delivered

    def test_duplicating_every_frame_terminates(self, test_params):
        def duplicate(frame, direction):
            return [(direction, frame), (direction, frame)]

        out = run_through(duplicate, test_params)
        # one callback per frame a peer sends: Msg1, Msg2, Msg3
        assert [type(decode_message(f)) for _, f, _ in out.transcript] == [Msg1, Msg2, Msg3]
        assert all(len(delivered) == 2 for _, _, delivered in out.transcript)
        # the second Msg1 reaches B while it awaits the opening: B aborts,
        # so the Msg3 copies are ignored; A ignores the second Msg2
        assert out.sas_a is not None and out.sas_b is None
        assert out.aborts == (
            "responder: MalformedMessage: expected a decommit message, got Msg1",
        )

    @pytest.mark.parametrize("bad", [
        lambda direction, frame: frame,
        lambda direction, frame: ("a->b", frame),
    ], ids=["bare-bytes", "str-direction"])
    def test_non_delivery_is_type_error(self, test_params, bad):
        with pytest.raises(TypeError, match="delivery"):
            run_through(lambda frame, direction: [bad(direction, frame)], test_params)


PAYLOAD_A, PAYLOAD_B, FORGED = (PairingPayload(name, 4, 1) for name in ("alice", "bob", "carol"))


@pytest.mark.parametrize("a_holds, b_holds, expected", [
    (PAYLOAD_B, PAYLOAD_A, False),
    (FORGED, PAYLOAD_A, True),
    (PAYLOAD_B, FORGED, True),
    (None, None, True),
], ids=["bound", "a-misbound", "b-misbound", "nothing-received"])
def test_misbound_checks_both_peers(a_holds, b_holds, expected):
    peer_a = SimpleNamespace(own_payload=PAYLOAD_A, remote_payload=a_holds)
    peer_b = SimpleNamespace(own_payload=PAYLOAD_B, remote_payload=b_holds)
    assert misbound(peer_a, peer_b) is expected


class ShareSwap(_Attacker):
    """Relay Msg1 and Msg3, and answer B's Msg2 toward A with the attacker's
    share and B's own nonce: ROADMAP item 1's share-swap."""

    def __call__(self, frame, direction):
        msg = decode_message(frame)
        if isinstance(msg, Msg2):
            return [self.reply_toward_a(decode_payload(msg.message, self.k).auth_nonce)]
        if isinstance(msg, Msg3):
            self.frame_a = frame
        return [(direction, frame)]


def test_known_defect_share_swap_wins(p40_params):
    """KNOWN DEFECT, pinned so that it cannot go unnoticed: the SAS binds
    both nonces but not the responder's public share, so swapping that
    share in Msg2 wins every trial with no guess.  When ROADMAP item 1
    binds both payloads into the SAS, flip this test to assert that the
    share-swap fails."""
    for seed in range(20):
        rng, rng_e = _child_rngs(seed)
        attacker = ShareSwap(AttackStrategy(StrategyKind.FULL_MITM), p40_params, 20, rng_e)
        out = _run_trial(p40_params, 20, rng, attacker)
        assert out.success and out.sas_match and out.attacker_key_with_a, seed
        assert out.aborts == (), seed


class IdentitySwap(_Attacker):
    """Relay Msg1 and Msg3, and deliver B's Msg2 to A naming carol, with B's
    share and nonce kept."""

    def __call__(self, frame, direction):
        msg = decode_message(frame)
        if isinstance(msg, Msg2):
            payload = decode_payload(msg.message, self.k)
            forged = encode_payload(PairingPayload("carol", payload.public_share, payload.auth_nonce), self.k)
            return [(direction, encode_message(Msg2(msg.param_set_id, msg.k, forged)))]
        return [(direction, frame)]


def test_known_defect_identity_swap_uncounted(p40_params):
    """KNOWN DEFECT, pinned so that it cannot go unnoticed: the SAS binds
    neither identity, so A accepts B's share and nonce under the name carol
    with matching SAS values and a key shared with B.  The attacker holds
    no key, but the win rule counts matching strings over misbound peers,
    so this misbinding scores a success: ROADMAP item 2 flipped the last
    assertion to `out.success`.  Item 1 then flips `sas_match` to False."""
    for seed in range(20):
        rng, rng_e = _child_rngs(seed)
        attacker = IdentitySwap(AttackStrategy(StrategyKind.FULL_MITM), p40_params, 20, rng_e)
        out = _run_trial(p40_params, 20, rng, attacker)
        assert out.sas_match and out.keys_equal, seed
        assert out.aborts == (), seed
        ((_, msg2_to_a),) = out.transcript[1][2]
        assert decode_payload(decode_message(msg2_to_a).message, 20).identity == "carol", seed
        assert out.success, seed
