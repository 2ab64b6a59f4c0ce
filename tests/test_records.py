"""Value semantics of every record class, each a named tuple: repr,
equality by fields, hash of the field tuple, no assignment, keyword
construction, defaults, and copy and pickle round trips."""

import copy
import pickle
from enum import Enum

import pytest

from saska.adversary import (
    AttackOutcome,
    AttackStrategy,
    Direction,
    GuessRule,
    SimReport,
    StrategyKind,
)
from saska.group import PARAM_SETS, DhParams
from saska.protocol import Msg1, Msg2, Msg3, PairingPayload, Sas

DIGEST = bytes(range(32))
NONCE = b"\x07" * 32
PAYLOAD_REPR = "PairingPayload(identity='bob', public_share=4, auth_nonce=5)"

# (class, keyword arguments in field order, expected repr)
CASES = [
    (DhParams, {"p": 23, "q": 11, "g": 2}, "DhParams(p=23, q=11, g=2)"),
    (Sas, {"value": 5, "k": 8}, "Sas(value=5, k=8)"),
    (PairingPayload, {"identity": "bob", "public_share": 4,
                      "auth_nonce": 5}, PAYLOAD_REPR),
    (Msg1, {"c": DIGEST}, f"Msg1(c={DIGEST!r})"),
    (Msg2, {"param_set_id": 7, "k": 8, "message": b"m"}, "Msg2(param_set_id=7, k=8, message=b'm')"),
    (Msg3, {"nonce": NONCE, "message": b"m"}, f"Msg3(nonce={NONCE!r}, message=b'm')"),
    (AttackStrategy, {"kind": StrategyKind.FULL_MITM, "guess_rule": GuessRule.FIXED, "fixed_guess": 3},
     "AttackStrategy(kind=<StrategyKind.FULL_MITM: 'full-mitm'>, "
     "guess_rule=<GuessRule.FIXED: 'fixed'>, fixed_guess=3)"),
    (AttackOutcome, {"success": False, "sas_a": Sas(5, 8), "sas_b": None, "sas_match": False,
                     "keys_equal": False, "attacker_key_with_a": False, "attacker_key_with_b": False,
                     "transcript": ((Direction.A_TO_B, b"f", ((Direction.B_TO_A, b"g"),)),),
                     "aborts": ("responder: OpenFailed: x",)},
     "AttackOutcome(success=False, sas_a=Sas(value=5, k=8), sas_b=None, sas_match=False, "
     "keys_equal=False, attacker_key_with_a=False, attacker_key_with_b=False, "
     "transcript=((<Direction.A_TO_B: 'a->b'>, b'f', ((<Direction.B_TO_A: 'b->a'>, b'g'),)),), "
     "aborts=('responder: OpenFailed: x',))"),
    (SimReport, {"mode": "exhaustive", "strategy": "full-mitm", "k": 1, "trials": 2, "successes": 1,
                 "rate": 0.5, "ci_low": 0.5, "ci_high": 0.5, "bound": 0.5, "passed": True},
     "SimReport(mode='exhaustive', strategy='full-mitm', k=1, trials=2, successes=1, rate=0.5, "
     "ci_low=0.5, ci_high=0.5, bound=0.5, passed=True)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_keyword_construction_equals_positional(cls, fields, text):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_equality_is_by_fields(cls, fields, text):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    assert record == tuple(fields.values())  # a named tuple equals its plain tuple


def changed(value):
    """A value of the same kind as `value` that does not equal it."""
    if isinstance(value, Enum):
        return next(member for member in type(value) if member is not value)
    if value is None:
        return Sas(0, 1)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if hasattr(value, "_fields"):  # a record
        return type(value)(*map(changed, value))
    return value * 2  # a non-empty str, bytes or tuple


FIELD_CASES = [(cls, fields, name) for cls, fields, _ in CASES for name in fields]


@pytest.mark.parametrize("cls,fields,name", FIELD_CASES,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in FIELD_CASES])
def test_changing_one_field_breaks_equality(cls, fields, name):
    record = cls(**fields)
    other = cls(**{**fields, name: changed(fields[name])})
    assert getattr(other, name) != fields[name]
    assert other != record and not other == record


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_hash_is_hash_of_field_tuple(cls, fields, text):
    assert hash(cls(**fields)) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_assignment_raises(cls, fields, text):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_no_new_attributes(cls, fields, text):
    with pytest.raises(AttributeError):
        cls(**fields).extra = 1


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, text):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_defaults():
    strategy = AttackStrategy(StrategyKind.HONEST)
    assert strategy == AttackStrategy(StrategyKind.HONEST, GuessRule.UNIFORM, 0)


def test_dhparams_derived_fields_outside_value():
    params = DhParams(p=23, q=11, g=2)
    assert params.exponent_limit == 11
    assert params == DhParams(23, 11, 2)
    with pytest.raises(AttributeError):
        params.exponent_limit = 5
    for params in PARAM_SETS.values():
        derived = (params.exponent_limit, params.set_id)
        for name, value in zip(("exponent_limit", "set_id"), derived):
            with pytest.raises(AttributeError):
                setattr(params, name, value)
            with pytest.raises(AttributeError):
                delattr(params, name)
        assert (params.exponent_limit, params.set_id) == derived
        for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert (twin.exponent_limit, twin.set_id) == derived
        assert repr(params) == f"DhParams(p={params.p}, q={params.q}, g={params.g})"
        # equality and hashing see the triple alone
        twin = copy.copy(params)
        assert twin == params and hash(twin) == hash(params)
        assert params == (params.p, params.q, params.g)
        assert hash(params) == hash((params.p, params.q, params.g))
