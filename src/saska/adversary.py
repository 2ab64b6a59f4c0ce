"""Man-in-the-middle attack strategies and attack-rate measurement.

The attacker owns the channel between two honest peers (Dolev-Yao: it can
overhear, intercept, modify, drop, and inject frames) but cannot break the
commitment hash.  Every built-in strategy forges frames through three moves
that carry its own payload m_E = ID || g^e || N_E: commit_toward_b (Msg1 as
alice), reply_toward_a (Msg2 as bob) and open_toward_b (Msg3); a strategy
only picks the move and the nonce.  Impersonate-initiator is full-mitm
whose bridge nonce is its guess of N_A.

What the strategies cannot dodge is the commit/reveal ordering: one honest
k-bit nonce is still hidden at the moment the attacker's own nonce becomes
immutable.  Each strategy therefore reduces to guessing that nonce, and the
success rate of the optimal guess is exactly 2^-k - measurable here by
exhaustive enumeration (small k) and Monte Carlo estimation.

The simulator needs no channel object: _run_trial moves frames between two
sans-I/O peers itself and asks the attacker callback (frame, direction,
history), at send time, what becomes of each frame.  The callback returns
the deliveries it makes, as (Direction, bytes) pairs delivered in order:
[] drops the frame, [(direction, frame)] relays it, a different frame
replaces it, and further pairs inject forged frames.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from statistics import NormalDist

from .commitment import commit
from .errors import KTooLarge, PairingError
from .group import DhParams, PublicShare, gen_private_share
from .protocol import (
    AuthNonce,
    Identity,
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    Peer,
    Phase,
    Role,
    Sas,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)

EXHAUSTIVE_MAX_K = 16
CONFIDENCE = 0.99  # of the Monte Carlo interval

INITIATOR_ID = "alice"
RESPONDER_ID = "bob"


# --- the channel the attacker controls --------------------------------------

class Direction(Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"

    @property
    def reverse(self) -> "Direction":
        return Direction.B_TO_A if self is Direction.A_TO_B else Direction.A_TO_B


@dataclass(frozen=True)
class TranscriptEvent:
    """One observed frame plus the deliveries the adversary made of it."""

    seq: int
    direction: Direction
    frame: bytes
    delivered: tuple  # of (Direction, bytes), in delivery order


class StrategyKind(Enum):
    HONEST = "honest"
    IMPERSONATE_INITIATOR = "impersonate-initiator"
    IMPERSONATE_RESPONDER = "impersonate-responder"
    FULL_MITM = "full-mitm"


class GuessRule(Enum):
    FIXED = "fixed"
    UNIFORM = "uniform"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class AttackStrategy:
    """A strategy kind plus the rule for choosing the blind nonce guess.

    * fixed: always guess `fixed_guess` (masked to k bits).
    * uniform: draw the guess uniformly per trial.
    * adaptive: guess the XOR of every nonce observed in plaintext so far.
      The guessed nonce is still hidden at decision time, so adaptivity
      cannot raise the hit rate; the simulator demonstrates that.
    """

    kind: StrategyKind
    guess_rule: GuessRule = GuessRule.UNIFORM
    fixed_guess: int = 0

    @property
    def guessed_side(self) -> str:
        """Which honest nonce the attacker is forced to guess."""
        if self.kind is StrategyKind.IMPERSONATE_RESPONDER:
            return "responder"
        return "initiator"


@dataclass
class AttackOutcome:
    """Result of one protocol run under an interposed adversary."""

    success: bool
    sas_a: Sas | None
    sas_b: Sas | None
    sas_match: bool
    keys_equal: bool
    attacker_key_with_a: bool
    attacker_key_with_b: bool
    transcript: tuple  # of TranscriptEvent, in send order
    aborts: tuple = ()  # "<side>: <error>" for every rejected frame


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
    """Shared machinery: tracks what it has seen in plaintext, resolves its
    nonce guess under the configured rule, and forges frames through the
    three moves below, the only place an attacker builds a frame."""

    def __init__(self, strategy: AttackStrategy, params: DhParams, k: int, rng: random.Random):
        self.strategy = strategy
        self.params = params
        self.k = k
        self.rng = rng
        self.exponent = gen_private_share(params, rng).exponent
        self.share = pow(params.g, self.exponent, params.p)
        self.seen_nonces: list[int] = []   # plaintext nonces, in observation order
        self.seen_share_a: int | None = None
        self.seen_share_b: int | None = None

    def resolve_guess(self) -> int:
        """Fix the guess of the still-hidden honest nonce.  Called exactly
        once, at the moment the attacker's own nonce becomes immutable."""
        rule = self.strategy.guess_rule
        if rule is GuessRule.FIXED:
            guess = self.strategy.fixed_guess
        elif rule is GuessRule.UNIFORM:
            guess = self.rng.getrandbits(self.k)
        else:  # ADAPTIVE: fold everything seen in the clear so far
            guess = 0
            for n in self.seen_nonces:
                guess ^= n
        return guess & ((1 << self.k) - 1)

    def payload(self, label: str, nonce_value: int) -> PairingPayload:
        return PairingPayload(
            Identity(label), PublicShare(self.share), AuthNonce.from_int(nonce_value, self.k))

    def note_payload(self, payload: PairingPayload, side: str) -> int:
        """Record a payload seen in the clear; returns its nonce."""
        self.seen_nonces.append(payload.auth_nonce.to_int())
        if side == "a":
            self.seen_share_a = payload.public_share.value
        else:
            self.seen_share_b = payload.public_share.value
        return self.seen_nonces[-1]

    def key_with_a(self) -> int | None:
        share = self.seen_share_a
        return None if share is None else pow(share, self.exponent, self.params.p)

    def key_with_b(self) -> int | None:
        share = self.seen_share_b
        return None if share is None else pow(share, self.exponent, self.params.p)

    def commit_toward_b(self, nonce: int) -> tuple[Direction, bytes]:
        """Msg1 committing to our payload as alice; keeps the opening."""
        c, self.decommit = commit(encode_payload(self.payload(INITIATOR_ID, nonce)), self.rng)
        return Direction.A_TO_B, encode_message(Msg1(c))

    def reply_toward_a(self, nonce: int) -> tuple[Direction, bytes]:
        """Msg2 carrying our payload as bob."""
        msg = Msg2(self.params.set_id(), self.k, self.payload(RESPONDER_ID, nonce))
        return Direction.B_TO_A, encode_message(msg)

    def open_toward_b(self) -> tuple[Direction, bytes]:
        """Msg3 with the opening kept by commit_toward_b."""
        return Direction.A_TO_B, encode_message(Msg3(self.decommit))


class ImpersonateResponderAttacker(_Attacker):
    """Reply to initiator A with the attacker's own payload, then carry the
    stolen session to B.  The reply goes out while N_A is still hidden in
    A's commitment, and the commitment toward B before B reveals N_B, so the
    two SAS values align up to one blind guess of N_B."""

    def __call__(self, frame, direction, history):
        msg = decode_message(frame)
        if isinstance(msg, Msg1) and direction is Direction.A_TO_B:
            # absorb A's commitment and answer it ourselves
            self.own_reply_nonce = self.rng.getrandbits(self.k)
            return [self.reply_toward_a(self.own_reply_nonce)]
        if isinstance(msg, Msg3) and direction is Direction.A_TO_B:
            # A decommitted to us; now impersonate A toward B
            n_a = self.note_payload(decode_payload(msg.d.message, self.k), "a")
            return [self.commit_toward_b(n_a ^ self.own_reply_nonce ^ self.resolve_guess())]
        if isinstance(msg, Msg2) and direction is Direction.B_TO_A:
            # B's real payload; N_B arrives after our commitment is out
            self.note_payload(msg.payload, "b")
            return [self.open_toward_b()]
        return []


class FullMitmAttacker(_Attacker):
    """Bridge two concurrent sessions, substituting the attacker's payload
    in both: commit toward B to a bridge nonce, answer A with
    N_B ^ bridge ^ guess(N_A), and open toward B.  N_A is still hidden
    when the answer goes out, so the guess is blind."""

    def bridge(self) -> int:
        return self.rng.getrandbits(self.k)

    def guess_n_a(self) -> int:
        return self.resolve_guess()

    def __call__(self, frame, direction, history):
        msg = decode_message(frame)
        if isinstance(msg, Msg1) and direction is Direction.A_TO_B:
            self.bridge_nonce = self.bridge()
            return [self.commit_toward_b(self.bridge_nonce)]
        if isinstance(msg, Msg2) and direction is Direction.B_TO_A:
            n_b = self.note_payload(msg.payload, "b")
            return [self.reply_toward_a(n_b ^ self.bridge_nonce ^ self.guess_n_a())]
        if isinstance(msg, Msg3) and direction is Direction.A_TO_B:
            self.note_payload(decode_payload(msg.d.message, self.k), "a")
            return [self.open_toward_b()]
        return []


class ImpersonateInitiatorAttacker(FullMitmAttacker):
    """Full-mitm whose bridge nonce is its guess of N_A (commit-first
    attack): the XOR cancels, N_B reaches A unchanged, and the SAS values
    are N_A ^ N_B at A and guess ^ N_B at B."""

    def bridge(self) -> int:
        return self.resolve_guess()

    def guess_n_a(self) -> int:
        return self.bridge_nonce


_ATTACKERS = {
    StrategyKind.IMPERSONATE_INITIATOR: ImpersonateInitiatorAttacker,
    StrategyKind.IMPERSONATE_RESPONDER: ImpersonateResponderAttacker,
    StrategyKind.FULL_MITM: FullMitmAttacker,
}


# --- trial driver -----------------------------------------------------------

def _child_rngs(seed) -> tuple[random.Random, random.Random, random.Random]:
    master = random.Random(seed)
    return tuple(random.Random(master.getrandbits(64)) for _ in range(3))


def _run_trial(
    params: DhParams,
    k: int,
    rng_a: random.Random,
    rng_b: random.Random,
    attacker: _Attacker | None,
    nonce_a: AuthNonce | None = None,
    nonce_b: AuthNonce | None = None,
) -> AttackOutcome:
    """Run two peers with every frame passing through `attacker` (None is
    the identity adversary).

    The attacker is called once per frame, at send time, with the events
    recorded so far: it never sees a frame that has not been sent.  Each
    peer sends at most two frames in its life, so the queue drains.
    """
    peer_a = Peer(Role.INITIATOR, params, INITIATOR_ID, k, rng_a, nonce=nonce_a)
    peer_b = Peer(Role.RESPONDER, params, RESPONDER_ID, k, rng_b, nonce=nonce_b)
    receiver = {Direction.A_TO_B: peer_b, Direction.B_TO_A: peer_a}
    events: list[TranscriptEvent] = []
    in_flight: deque[tuple[Direction, bytes]] = deque()
    aborts: list[str] = []

    def send(direction: Direction, frames: list[bytes]):
        for frame in frames:
            if attacker is None:
                delivered = ((direction, frame),)
            else:
                delivered = tuple(attacker(frame, direction, tuple(events)))
                for pair in delivered:
                    if not (isinstance(pair, tuple) and len(pair) == 2
                            and isinstance(pair[0], Direction) and isinstance(pair[1], bytes)):
                        raise TypeError(f"not a (Direction, bytes) delivery: {pair!r}")
            events.append(TranscriptEvent(len(events) + 1, direction, frame, delivered))
            in_flight.extend(delivered)

    send(Direction.A_TO_B, peer_a.start())
    while in_flight:
        direction, frame = in_flight.popleft()
        peer = receiver[direction]
        try:
            replies = peer.receive(frame)
        except PairingError as exc:
            aborts.append(f"{peer.role.value}: {type(exc).__name__}: {exc}")
            continue
        send(direction.reverse, replies)

    sas_a, sas_b = peer_a.sas, peer_b.sas
    sas_match = sas_a is not None and sas_b is not None and sas_a == sas_b

    # careful-user oracle: each side accepts iff the two displayed strings match
    key_a = key_b = None
    if sas_match:
        key_a = peer_a.confirm(True)
        key_b = peer_b.confirm(True)
    else:
        for peer in (peer_a, peer_b):
            if peer.phase is Phase.SAS_READY:
                peer.confirm(False)

    keys_equal = key_a is not None and key_b is not None and key_a.octets == key_b.octets
    atk_a = atk_b = False
    if attacker is not None:
        # the attacker's keys cost a full exponentiation each; skip them
        # when there is no victim key to compare against
        atk_a = key_a is not None and attacker.key_with_a() == key_a.value
        atk_b = key_b is not None and attacker.key_with_b() == key_b.value
        success = sas_match and (atk_a or atk_b)
    else:
        success = sas_match and keys_equal

    return AttackOutcome(
        success=success,
        sas_a=sas_a,
        sas_b=sas_b,
        sas_match=sas_match,
        keys_equal=keys_equal,
        attacker_key_with_a=atk_a,
        attacker_key_with_b=atk_b,
        transcript=tuple(events),
        aborts=tuple(aborts),
    )


def make_attacker(strategy: AttackStrategy, params: DhParams, k: int, rng: random.Random):
    if strategy.kind is StrategyKind.HONEST:
        return None
    return _ATTACKERS[strategy.kind](strategy, params, k, rng)


def run_honest_session(params: DhParams, k: int = 20, seed=None) -> AttackOutcome:
    """Identity adversary: the completeness check.  Succeeds iff the two
    SAS values agree and both sides derive the same key."""
    return run_mitm_trial(AttackStrategy(StrategyKind.HONEST), params, k, seed)


def run_mitm_trial(strategy: AttackStrategy, params: DhParams, k: int, seed=None,
                   nonce: AuthNonce | None = None) -> AttackOutcome:
    """One full protocol execution with the strategy's attacker interposed;
    `nonce`, if given, is the honest nonce on `strategy.guessed_side`."""
    rng_a, rng_b, rng_e = _child_rngs(seed)
    attacker = make_attacker(strategy, params, k, rng_e)
    nonces = (nonce, None) if strategy.guessed_side == "initiator" else (None, nonce)
    return _run_trial(params, k, rng_a, rng_b, attacker, *nonces)


def check_run(strategy: AttackStrategy, k: int, trials: int | None = None) -> None:
    """Refuse a run before its first trial; `trials` None is the enumeration."""
    if trials is None:
        if k > EXHAUSTIVE_MAX_K:
            raise KTooLarge(f"k = {k} exceeds the enumeration bound {EXHAUSTIVE_MAX_K}")
    elif strategy.kind is not StrategyKind.HONEST and trials < 1000:
        raise ValueError(f"need at least 1000 trials for a meaningful rate, got {trials}")
    elif trials < 1:
        raise ValueError("trials must be positive")


def exhaustive_attack_success(
    strategy: AttackStrategy, params: DhParams, k: int, seed=0
) -> Fraction:
    """Exact attack success fraction by enumerating all 2^k values of the
    honest nonce the attacker must guess, holding everything else fixed.

    Every trial reuses one seed, so the attacker makes the same guess in
    all 2^k trials under any rule, as long as its random draws do not
    depend on nonce values (true of every built-in attacker).
    """
    check_run(strategy, k)
    seed = 0 if seed is None else seed
    successes = sum(
        run_mitm_trial(strategy, params, k, seed, AuthNonce.from_int(value, k)).success
        for value in range(2 ** k))
    return Fraction(successes, 2 ** k)


def estimate_attack_success(
    strategy: AttackStrategy, params: DhParams, k: int, trials: int, seed=None
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

@dataclass(frozen=True)
class SimReport:
    mode: str          # "exhaustive" | "montecarlo" | "honest"
    strategy: str
    k: int
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    bound: float
    passed: bool

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
