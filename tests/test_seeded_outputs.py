"""Pin every seeded simulator output to one digest.

The digest covers raw values only (booleans, integers, strings, bytes and
enum values), never the repr of a saska class, so a refactor that keeps
every trial byte-identical keeps the digest.  If a change is meant to alter
simulator outputs, recompute the digests and say why in the change.
"""

import hashlib

import pytest

from saska.adversary import (
    AttackStrategy,
    GuessRule,
    StrategyKind,
    exhaustive_attack_success,
    run_mitm_trial,
)
from saska.group import PARAM_SETS

SEEDS = range(60)
FIXED_GUESS = 3
EXHAUSTIVE_K = 3
EXHAUSTIVE_SEED = 7

EXPECTED = {
    ("test", 4): "29dd7fadb9d85473378f40bd1aab4c264cca8eaed02ac7b3557f38a72efd1fa4",
    ("p40", 8): "5e526a5f23261985c5dc1d275320cf3e86ad9730d18c73cd4bc601639949eef3",
}


def _sas_int(sas):
    return None if sas is None else sas.to_int()


def _raw(outcome) -> tuple:
    return (
        outcome.success,
        _sas_int(outcome.sas_a),
        _sas_int(outcome.sas_b),
        outcome.aborts,
        tuple(
            (
                seq,
                direction.value,
                frame,
                tuple((d.value, f) for d, f in delivered),
            )
            for seq, (direction, frame, delivered) in enumerate(outcome.transcript, 1)
        ),
    )


def seeded_digest(params, k: int) -> str:
    h = hashlib.sha256()
    for kind in StrategyKind:
        for rule in GuessRule:
            strategy = AttackStrategy(kind, rule, FIXED_GUESS)
            for seed in SEEDS:
                h.update(repr(_raw(run_mitm_trial(strategy, params, k, seed))).encode())
            rate = exhaustive_attack_success(strategy, params, EXHAUSTIVE_K, seed=EXHAUSTIVE_SEED)
            h.update(repr((rate.numerator, rate.denominator)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,k", sorted(EXPECTED))
def test_seeded_outputs_unchanged(request, name, k):
    params = request.getfixturevalue(f"{name}_params")
    assert seeded_digest(params, k) == EXPECTED[(name, k)]


MODP2048_SEEDS = range(8)
MODP2048_EXPECTED = "d802e13bc26a690ee42055f006af2ada5293ef40e8a5fdd26c5985a14e057ce7"


def test_modp2048_outputs_unchanged():
    # every trial on the full-size group: pins g^x, the attacker's share and
    # the key path there without the cost of the exhaustive rates above
    params = PARAM_SETS["modp2048"]
    h = hashlib.sha256()
    for kind in StrategyKind:
        strategy = AttackStrategy(kind, GuessRule.UNIFORM)
        for seed in MODP2048_SEEDS:
            h.update(repr(_raw(run_mitm_trial(strategy, params, 20, seed))).encode())
    assert h.hexdigest() == MODP2048_EXPECTED
