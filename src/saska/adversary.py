"""Man-in-the-middle attack strategies and attack-rate measurement.

The attacker owns the channel between two honest peers (Dolev-Yao: it can
overhear, intercept, modify, drop, and inject frames) but cannot break the
commitment hash.  The _Attacker base routes each honest frame by its tag
octet and keeps each honest payload as the frame that carried it, parsed
when first read; a strategy makes one decision per honest message, each a
move carrying the attacker's own payload m_E = ID || g^e || N_E:
commit_toward_b (Msg1 as alice), reply_toward_a (Msg2 as bob) or
open_toward_b (Msg3).  The blind guess is fixed when first asked for.
Impersonate-initiator is full-mitm whose blind nonce is its guess of N_A.

What the strategies cannot dodge is the commit/reveal ordering: one honest
k-bit nonce is still hidden at the moment the attacker's own nonce becomes
immutable.  Each strategy therefore reduces to guessing that nonce, and the
success rate of the optimal guess is exactly 2^-k - measurable here by
exhaustive enumeration (small k) and Monte Carlo estimation.

The simulator needs no channel object: _run_trial moves frames between two
sans-I/O peers itself and asks the attacker callback (frame, direction),
at send time, what becomes of each frame.  The callback returns
the deliveries it makes, as (Direction, bytes) pairs delivered in order:
[] drops the frame, [(direction, frame)] relays it, a different frame
replaces it, and further pairs inject forged frames.
"""

from __future__ import annotations

import random
from collections import deque, namedtuple
from enum import Enum
from fractions import Fraction
from statistics import NormalDist

from .commitment import commit
from .errors import PairingError
from .group import DhParams, gen_private_share, pub_share
from .protocol import (
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    Peer,
    TAG_COMMIT,
    TAG_PAYLOAD,
    _INITIATOR,
    _RESPONDER,
    _SAS_READY,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)

EXHAUSTIVE_MAX_K = 16
# A Monte Carlo run's ceiling: 10^9 test-group trials take about a day, and
# a larger count would run until killed, printing nothing.
MAX_TRIALS = 10**9
CONFIDENCE = 0.99  # of the Monte Carlo interval

INITIATOR_ID = "alice"
RESPONDER_ID = "bob"


# --- the channel the attacker controls --------------------------------------

class Direction(Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"


class StrategyKind(Enum):
    HONEST = "honest"
    IMPERSONATE_INITIATOR = "impersonate-initiator"
    IMPERSONATE_RESPONDER = "impersonate-responder"
    FULL_MITM = "full-mitm"


# read on every frame or trial, bound once as in saska.protocol
_A_TO_B, _B_TO_A = Direction.A_TO_B, Direction.B_TO_A
_HONEST, _IMPERSONATE_RESPONDER = StrategyKind.HONEST, StrategyKind.IMPERSONATE_RESPONDER


class GuessRule(Enum):
    FIXED = "fixed"
    UNIFORM = "uniform"
    ADAPTIVE = "adaptive"


class AttackStrategy(namedtuple("AttackStrategy", "kind guess_rule fixed_guess",
                                defaults=(GuessRule.UNIFORM, 0))):
    """A strategy kind plus the rule for choosing the blind nonce guess.

    * fixed: always guess `fixed_guess` (masked to k bits).
    * uniform: draw the guess uniformly per trial.
    * adaptive: guess the XOR of every nonce observed in plaintext so far.
      The guessed nonce is still hidden at decision time, so adaptivity
      cannot raise the hit rate; the simulator demonstrates that.
    """

    __slots__ = ()


# Result of one protocol run under an interposed adversary.  transcript
# holds (direction, frame, delivered) in send order, where delivered holds
# the (Direction, bytes) deliveries made of the frame; aborts holds
# "<side>: <error>" for every rejected frame.
AttackOutcome = namedtuple(
    "AttackOutcome",
    "success sas_a sas_b sas_match keys_equal attacker_key_with_a attacker_key_with_b"
    " transcript aborts")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided Wilson score interval, at CONFIDENCE, for a binomial
    proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = NormalDist().inv_cdf(1 - (1 - CONFIDENCE) / 2)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * (phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5
    # clamp against float noise so the interval always brackets the rate
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


# --- attacker callbacks -----------------------------------------------------

class _Attacker:
    """Routes each honest frame to the strategy's decision on it, keeps A's
    opening and B's Msg2 as the octets received and parses each the first
    time its payload is read, fixes its guess when first asked, and forges
    frames through the three moves below, the only place an attacker builds
    one.  Every decision reads the state declared in __init__."""

    def __init__(self, strategy: AttackStrategy, params: DhParams, k: int, rng: random.Random):
        self.strategy = strategy
        self.params = params
        self.k = k
        self.rng = rng
        self.exponent = gen_private_share(params, rng)
        self.share = pub_share(params, self.exponent)
        self.frame_a: bytes | None = None  # A's opening
        self.frame_b: bytes | None = None  # B's Msg2
        self._payload_a: PairingPayload | None = None  # parsed from frame_a when first read
        self._payload_b: PairingPayload | None = None  # parsed from frame_b when first read
        self.blind: int | None = None  # our nonce, fixed when A's commitment arrives
        self.opening: Msg3 | None = None
        self.guess: int | None = None

    def __call__(self, frame: bytes, direction: Direction) -> list[tuple[Direction, bytes]]:
        """Only the honest peers' own frames reach here, so Msg1 and Msg3
        travel a->b and Msg2 b->a, and the tag octet alone picks the
        decision.  A kept frame is parsed only if something reads it."""
        tag = frame[0]
        if tag == TAG_COMMIT:
            return [self.on_commit()]
        if tag == TAG_PAYLOAD:
            self.frame_b = frame
            return [self.on_payload()]
        self.frame_a = frame
        return [self.on_opening()]

    @property
    def payload_a(self) -> PairingPayload | None:
        """A's payload, parsed from its opening on the first read after it arrives."""
        if self._payload_a is None and self.frame_a is not None:
            self._payload_a = decode_payload(decode_message(self.frame_a).message, self.k)
        return self._payload_a

    @property
    def payload_b(self) -> PairingPayload | None:
        """B's payload, parsed from its Msg2 on the first read after it arrives."""
        if self._payload_b is None and self.frame_b is not None:
            self._payload_b = decode_payload(decode_message(self.frame_b).message, self.k)
        return self._payload_b

    def resolve_guess(self) -> int:
        """The guess of the still-hidden honest nonce, fixed under the rule
        on the first call, when the attacker's own nonce becomes immutable."""
        if self.guess is None:
            rule = self.strategy.guess_rule
            if rule is GuessRule.FIXED:
                guess = self.strategy.fixed_guess
            elif rule is GuessRule.UNIFORM:
                guess = self.rng.getrandbits(self.k)
            else:  # ADAPTIVE: fold every nonce seen in the clear so far
                guess = 0
                for seen in (self.payload_a, self.payload_b):
                    guess ^= 0 if seen is None else seen.auth_nonce
            self.guess = guess & ((1 << self.k) - 1)
        return self.guess

    def key_with_a(self) -> int | None:
        seen = self.payload_a
        return None if seen is None else pow(seen.public_share, self.exponent, self.params.p)

    def key_with_b(self) -> int | None:
        seen = self.payload_b
        return None if seen is None else pow(seen.public_share, self.exponent, self.params.p)

    def commit_toward_b(self, nonce: int) -> tuple[Direction, bytes]:
        """Msg1 committing to our payload as alice; keeps the opening."""
        message = encode_payload(PairingPayload(INITIATOR_ID, self.share, nonce), self.k)
        c, opening_nonce = commit(message, self.rng)
        self.opening = Msg3(opening_nonce, message)
        return _A_TO_B, encode_message(Msg1(c))

    def reply_toward_a(self, nonce: int) -> tuple[Direction, bytes]:
        """Msg2 carrying our payload as bob."""
        message = encode_payload(PairingPayload(RESPONDER_ID, self.share, nonce), self.k)
        return _B_TO_A, encode_message(Msg2(self.params.set_id, self.k, message))

    def open_toward_b(self) -> tuple[Direction, bytes]:
        """Msg3 with the opening kept by commit_toward_b."""
        return _A_TO_B, encode_message(self.opening)


class ImpersonateResponderAttacker(_Attacker):
    """Reply to initiator A with the attacker's own payload, then carry the
    stolen session to B.  The reply goes out while N_A is still hidden in
    A's commitment, and the commitment toward B before B reveals N_B, so the
    two SAS values align up to one blind guess of N_B."""

    def on_commit(self):
        # absorb A's commitment and answer it ourselves
        self.blind = self.rng.getrandbits(self.k)
        return self.reply_toward_a(self.blind)

    def on_opening(self):
        # A decommitted to us; now impersonate A toward B
        return self.commit_toward_b(self.payload_a.auth_nonce ^ self.blind ^ self.resolve_guess())

    def on_payload(self):
        # B's real payload, unread: N_B arrives after our commitment is out
        return self.open_toward_b()


class FullMitmAttacker(_Attacker):
    """Bridge two concurrent sessions, substituting the attacker's payload
    in both: commit toward B to a blind nonce, answer A with
    N_B ^ blind ^ guess(N_A), and open toward B.  N_A is still hidden
    when the answer goes out, so the guess is blind."""

    def on_commit(self):
        self.blind = self.rng.getrandbits(self.k)
        return self.commit_toward_b(self.blind)

    def on_payload(self):
        return self.reply_toward_a(self.payload_b.auth_nonce ^ self.blind ^ self.resolve_guess())

    def on_opening(self):
        return self.open_toward_b()


class ImpersonateInitiatorAttacker(FullMitmAttacker):
    """Full-mitm whose blind nonce is its guess of N_A (commit-first
    attack): the XOR cancels, N_B reaches A unchanged, and the SAS values
    are N_A ^ N_B at A and guess ^ N_B at B."""

    def on_commit(self):
        self.blind = self.resolve_guess()
        return self.commit_toward_b(self.blind)


_ATTACKERS = {  # by the kind's value, as protocol._STEPS is by the role's
    StrategyKind.IMPERSONATE_INITIATOR.value: ImpersonateInitiatorAttacker,
    StrategyKind.IMPERSONATE_RESPONDER.value: ImpersonateResponderAttacker,
    StrategyKind.FULL_MITM.value: FullMitmAttacker,
}


# --- trial driver -----------------------------------------------------------

def _child_rngs(seed, attacker: bool = True) -> tuple[random.Random, random.Random | None]:
    """The honest peers' generator and the attacker's.  A and B both draw
    from one generator seeded with `seed`; its first 64 bits, drawn in
    every trial so that the peers' draws are the same under every
    strategy, seed the attacker's own, so no strategy can read or shift a
    victim's draws.  Without an attacker the second is None."""
    honest = random.Random(seed)
    attacker_seed = honest.getrandbits(64)
    return honest, random.Random(attacker_seed) if attacker else None


def misbound(peer_a: Peer, peer_b: Peer) -> bool:
    """True when A's `remote_payload` differs from B's `own_payload`, or B's from A's."""
    return peer_a.remote_payload != peer_b.own_payload or peer_b.remote_payload != peer_a.own_payload


def _run_trial(
    params: DhParams,
    k: int,
    rng: random.Random,
    attacker: _Attacker | None,
    nonce_a: int | None = None,
    nonce_b: int | None = None,
) -> AttackOutcome:
    """Run two peers, both drawing from `rng`, with every frame passing
    through `attacker` (None is the identity adversary).

    The attacker is called once per frame, at send time, in send order: it
    never sees a frame that has not been sent.  Each peer sends at most two
    frames in its life, so the queue drains.  Then each peer showing a
    string confirms iff the two strings match (a careful user).  A trial
    succeeds iff, with no attacker, both keys are equal, and an attack
    trial wins iff the strings match over `misbound` peers or the attacker
    holds a victim's key; each implies matching strings.
    """
    peer_a = Peer(_INITIATOR, params, INITIATOR_ID, k, rng, nonce=nonce_a)
    peer_b = Peer(_RESPONDER, params, RESPONDER_ID, k, rng, nonce=nonce_b)
    events: list[tuple[Direction, bytes, tuple]] = []
    in_flight: deque[tuple[Direction, bytes]] = deque()
    aborts: list[str] = []

    def send(direction: Direction, frames: list[bytes]):
        for frame in frames:
            if attacker is None:
                delivered = ((direction, frame),)
            else:
                delivered = tuple(attacker(frame, direction))
                for pair in delivered:
                    if not (isinstance(pair, tuple) and len(pair) == 2
                            and isinstance(pair[0], Direction) and isinstance(pair[1], bytes)):
                        raise TypeError(f"not a (Direction, bytes) delivery: {pair!r}")
            events.append((direction, frame, delivered))
            in_flight.extend(delivered)

    send(_A_TO_B, peer_a.start())
    while in_flight:
        direction, frame = in_flight.popleft()
        # an identity test: a dict keyed by an Enum pays its hash in Python
        if direction is _A_TO_B:
            peer, back = peer_b, _B_TO_A
        else:
            peer, back = peer_a, _A_TO_B
        try:
            replies = peer.receive(frame)
        except PairingError as exc:
            aborts.append(f"{peer.role.value}: {type(exc).__name__}: {exc}")
            continue
        if replies:
            send(back, replies)

    sas_a, sas_b = peer_a.sas, peer_b.sas
    sas_match = sas_a is not None and sas_b is not None and sas_a == sas_b

    key_a = peer_a.confirm(sas_match) if peer_a.phase_log[-1] is _SAS_READY else None
    key_b = peer_b.confirm(sas_match) if peer_b.phase_log[-1] is _SAS_READY else None

    keys_equal = key_a is not None and key_a == key_b
    # the attacker's keys cost a full exponentiation each; skip them when
    # there is no victim key to compare against
    atk_a = attacker is not None and key_a is not None and attacker.key_with_a() == key_a
    atk_b = attacker is not None and key_b is not None and attacker.key_with_b() == key_b
    success = keys_equal if attacker is None else (sas_match and misbound(peer_a, peer_b)) or atk_a or atk_b

    return AttackOutcome(success, sas_a, sas_b, sas_match, keys_equal, atk_a, atk_b,
                         tuple(events), tuple(aborts))


def make_attacker(strategy: AttackStrategy, params: DhParams, k: int, rng: random.Random | None):
    if strategy.kind is _HONEST:
        return None
    return _ATTACKERS[strategy.kind._value_](strategy, params, k, rng)


def run_mitm_trial(strategy: AttackStrategy, params: DhParams, k: int, seed: int,
                   nonce: int | None = None) -> AttackOutcome:
    """One full protocol execution with the strategy's attacker interposed.
    `nonce`, if given, forces the honest nonce the attacker must guess:
    B's under impersonate-responder, A's otherwise."""
    rng, rng_e = _child_rngs(seed, strategy.kind is not _HONEST)
    attacker = make_attacker(strategy, params, k, rng_e)
    if strategy.kind is _IMPERSONATE_RESPONDER:
        return _run_trial(params, k, rng, attacker, None, nonce)
    return _run_trial(params, k, rng, attacker, nonce)


def check_run(strategy: AttackStrategy, k: int, trials: int | None = None) -> None:
    """Refuse a run before its first trial; `trials` None is the enumeration."""
    if trials is None:
        if k > EXHAUSTIVE_MAX_K:
            raise ValueError(f"k = {k} exceeds the enumeration bound {EXHAUSTIVE_MAX_K}")
    elif strategy.kind is not StrategyKind.HONEST and trials < 1000:
        raise ValueError(f"need at least 1000 trials for a meaningful rate, got {trials}")
    elif trials < 1:
        raise ValueError("trials must be positive")
    elif trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")


def exhaustive_attack_success(
    strategy: AttackStrategy, params: DhParams, k: int, seed=0
) -> Fraction:
    """Exact attack success fraction by enumerating all 2^k values of the
    honest nonce the attacker must guess, holding everything else fixed.

    Every trial reuses one seed, so everything but the enumerated nonce is
    the same in all 2^k trials: the honest peers draw from their shared
    generator in a fixed order (A in start, B when a commitment reaches
    it), and the attacker draws from its own, so it makes the same guess
    under any rule as long as its draws do not depend on nonce values
    (true of every built-in attacker).
    """
    check_run(strategy, k)
    seed = 0 if seed is None else seed
    successes = sum(
        run_mitm_trial(strategy, params, k, seed, value).success
        for value in range(2 ** k))
    return Fraction(successes, 2 ** k)


def estimate_attack_success(
    strategy: AttackStrategy, params: DhParams, k: int, trials: int, seed: int
) -> SimReport:
    """Monte Carlo attack rate over independent honest randomness, with a
    99% two-sided binomial (Wilson) confidence interval, as the report
    `saska sim` prints."""
    check_run(strategy, k, trials)
    master = random.Random(seed)
    successes = sum(
        run_mitm_trial(strategy, params, k, master.getrandbits(64)).success for _ in range(trials))
    return sim_report(strategy, k, trials, successes)


# --- reporting --------------------------------------------------------------

class SimReport(namedtuple("SimReport", "mode strategy k trials successes rate ci_low ci_high"
                                        " bound passed")):
    __slots__ = ()  # mode is "exhaustive" | "montecarlo" | "honest"

    def kv_line(self) -> str:
        return (
            f"strategy={self.strategy} mode={self.mode} k={self.k} "
            f"trials={self.trials} successes={self.successes} "
            f"rate={self.rate:.8g} ci_low={self.ci_low:.8g} ci_high={self.ci_high:.8g} "
            f"bound={self.bound:.8g} result={'pass' if self.passed else 'fail'}"
        )


def sim_report(
    strategy: AttackStrategy, k: int, trials: int, successes: int, exhaustive: bool = False
) -> SimReport:
    """The report on `successes` in `trials`, under the one pass rule: an
    honest run pairs every trial, an exhaustive run (2^k trials) has at most
    one success, and a Monte Carlo run passes unless its whole 99% interval
    sits above 2^-k."""
    honest = strategy.kind is StrategyKind.HONEST
    rate, bound = successes / trials, 2.0 ** -k
    if exhaustive:
        mode, ci_low, ci_high = "exhaustive", rate, rate
    else:
        mode = "honest" if honest else "montecarlo"
        ci_low, ci_high = wilson_interval(successes, trials)
    if honest:
        passed = successes == trials
    elif exhaustive:
        passed = successes * 2 ** k <= trials
    else:
        passed = ci_low <= bound
    return SimReport(mode, strategy.kind.value, k, trials, successes,
                     rate, ci_low, ci_high, bound, passed)


def report_table(reports: list[SimReport]) -> list[str]:
    header = f"{'strategy':<24} {'mode':<11} {'k':>3} {'trials':>8} {'successes':>9} {'rate':>12} {'bound':>12} {'result':>6}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.strategy:<24} {r.mode:<11} {r.k:>3} {r.trials:>8} {r.successes:>9} "
            f"{r.rate:>12.6g} {r.bound:>12.6g} {'pass' if r.passed else 'fail':>6}"
        )
    return lines
