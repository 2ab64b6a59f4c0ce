import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saska import group, protocol
from saska.adversary import AttackStrategy, StrategyKind, run_mitm_trial
from saska.errors import MalformedMessage, SubgroupCheckFailed
from saska.group import (
    PARAM_SETS,
    DhParams,
    _field,
    _fixed_base_rows,
    _table_entry,
    derive_key,
    gen_private_share,
    in_subgroup,
    int_to_octets,
    jacobi,
    pub_share,
)

from conftest import naive_mod_exp


# Safe-prime groups at 2^31, where the Jacobi test and the fixed-base table
# take over from pow: SAFE32 is the smallest safe prime above 2^31, and
# SAFE31 the largest below, which keeps pow.
SAFE32 = DhParams(2147483783, 1073741891, 4)
SAFE31 = DhParams(2147483579, 1073741789, 4)
# Safe-prime groups at the 256-bit exponent cap: SAFE256's q is the largest
# safe-prime q below 2^256, so its exponents span [1, q) as on p40;
# SAFE257's q is the smallest above, so it draws 256-bit exponents as
# modp2048 does.  p = 7 mod 8 in both, so g = 2 is a member, as in modp2048.
_Q256 = 2**256 - 29237
_Q257 = 2**256 + 18475
SAFE256 = DhParams(2 * _Q256 + 1, _Q256, 2)
SAFE257 = DhParams(2 * _Q257 + 1, _Q257, 2)
GROUPS = {**PARAM_SETS, "safe32": SAFE32, "safe31": SAFE31, "safe256": SAFE256, "safe257": SAFE257}


class TestModExp:
    @pytest.mark.parametrize(
        "base,exponent,modulus,expected",
        [
            (18, 0, 23, 1),
            (2, 6, 23, 18),
            (2, 11, 23, 1),
            (2, 3, 23, 8),
            (2, 4, 23, 16),
        ],
    )
    def test_known_values(self, base, exponent, modulus, expected):
        assert naive_mod_exp(base, exponent, modulus) == expected


class TestPrivateShare:
    def test_range_membership(self, test_params):
        rng = random.Random(7)
        for _ in range(200):
            share = gen_private_share(test_params, rng)
            assert 1 <= share <= 10

    def test_smallest_admissible_range(self):
        params = DhParams(p=7, q=3, g=2)  # 2^3 = 8 = 1 mod 7
        rng = random.Random(3)
        seen = {gen_private_share(params, rng) for _ in range(50)}
        assert seen == {1, 2}

    def test_independent_draws_differ(self, test_params):
        a = gen_private_share(test_params, random.Random(1))
        b = gen_private_share(test_params, random.Random(2))
        assert a != b

    def test_rng_failure_propagates(self, test_params):
        class Broken:
            def randrange(self, *a):
                raise OSError("entropy pool exhausted")

        for params in (test_params, PARAM_SETS["modp2048"]):
            with pytest.raises(OSError, match="entropy pool exhausted"):
                gen_private_share(params, Broken())

    @pytest.mark.parametrize("name", ["test", "p40"])
    def test_draws_below_cap_match_full_range(self, name):
        # groups smaller than the exponent cap draw exactly as randrange(1, q),
        # which keeps the golden frames and seeded transcripts
        params = PARAM_SETS[name]
        assert params.exponent_limit == params.q
        for seed in range(300):
            expected = random.Random(seed).randrange(1, params.q)
            assert gen_private_share(params, random.Random(seed)) == expected

    def test_modp2048_short_exponents(self):
        params = PARAM_SETS["modp2048"]
        n_bits = params.exponent_limit.bit_length() - 1
        assert params.exponent_limit == 1 << n_bits
        assert n_bits == 256 >= 2 * 112  # SP 800-56A strength of a 2048-bit group
        rng = random.Random(5)
        draws = [gen_private_share(params, rng) for _ in range(300)]
        assert all(1 <= x < 2**256 for x in draws)
        assert max(draws).bit_length() == 256

    @pytest.mark.parametrize("q_bits", [256, 257, 2047, 8191])
    def test_exponent_cap_is_256_bits(self, q_bits):
        # only the size of q matters to the cap: min(q, 2^256)
        q = 2**q_bits - 1
        params = DhParams(p=2 * q + 1, q=q, g=4)
        assert params.exponent_limit == min(q, 2**256)

    @pytest.mark.parametrize("name, limit", [("safe256", _Q256), ("safe257", 2**256)])
    def test_draws_at_the_cap(self, name, limit):
        # just below the cap the exponents span [1, q); just above, [1, 2^256)
        params = GROUPS[name]
        assert params.exponent_limit == limit
        for seed in range(100):
            expected = random.Random(seed).randrange(1, limit)
            assert gen_private_share(params, random.Random(seed)) == expected


class TestPubShare:
    def test_known_values(self, test_params):
        assert pub_share(test_params, 3) == 8
        assert pub_share(test_params, 4) == 16

    def test_deterministic(self, test_params):
        assert pub_share(test_params, 7) == pub_share(test_params, 7)

    def test_closure_in_subgroup(self, test_params):
        for a in range(1, 11):
            value = pub_share(test_params, a)
            assert naive_mod_exp(value, 11, 23) == 1


class TestDeriveKey:
    def test_known_values(self, test_params):
        assert naive_mod_exp(16, 3, 23) == 2
        key = derive_key(test_params, 16, 3)
        assert type(key) is int
        assert key == 2
        assert int_to_octets(key) == b"\x02"

        assert naive_mod_exp(8, 4, 23) == 2
        other = derive_key(test_params, 8, 4)
        assert other == key  # DH agreement

    def test_identity_share_rejected(self, test_params):
        with pytest.raises(SubgroupCheckFailed):
            derive_key(test_params, 1, 3)

    def test_share_outside_subgroup_rejected(self, test_params):
        # oracle: 5^11 mod 23 != 1, so 5 is not in the order-11 subgroup
        assert naive_mod_exp(5, 11, 23) != 1
        with pytest.raises(SubgroupCheckFailed):
            derive_key(test_params, 5, 3)

    def test_out_of_range_share_rejected(self, test_params):
        for bad in (0, 23, 24):
            with pytest.raises(SubgroupCheckFailed):
                derive_key(test_params, bad, 3)

    def test_oversized_share_named_by_bit_length(self, test_params):
        # 2,000 octets, past the 4,300 digits int-to-str allows by default
        with pytest.raises(SubgroupCheckFailed, match="^peer share of 16000 bits is not"):
            derive_key(test_params, (1 << 16000) - 1, 3)

    def test_agreement_full_sweep(self, test_params):
        # all (a, b) in [1,10]^2 against the repeated-multiplication oracle
        for a in range(1, 11):
            for b in range(1, 11):
                ka = derive_key(test_params, pub_share(test_params, b), a)
                kb = derive_key(test_params, pub_share(test_params, a), b)
                assert ka == kb
                assert ka == naive_mod_exp(naive_mod_exp(2, a, 23), b, 23)




PRIMALITY_ROUNDS = 64
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with PRIMALITY_ROUNDS random bases, the reference for
    q; error probability <= 4**-PRIMALITY_ROUNDS."""
    if n < 2:
        return False
    for sp in SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.SystemRandom()
    for _ in range(PRIMALITY_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def pocklington(p: int, q: int) -> bool:
    """Whether p = 2q + 1 is prime, for a prime q > 2, the reference for p.
    Pocklington's test: as q^2 > p, p is prime iff 2^(p-1) = 1 mod p and
    gcd(2^((p-1)/q) - 1, p) = gcd(3, p) = 1."""
    return p == 2 * q + 1 and q > 2 and pow(2, p - 1, p) == 1 and p % 3 != 0


def is_safe_prime_group(params) -> bool:
    """p = 2q + 1 with q and p prime, and g a member of the order-q subgroup."""
    p, q, g = params
    return (p == 2 * q + 1 and is_probable_prime(q) and pocklington(p, q)
            and 1 < g < p and pow(g, q, p) == 1)


class TestReferencePrimality:
    """The test-side primality references reject what they must."""

    def test_small_cases(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(0, 25):
            assert is_probable_prime(n) == (n in primes)

    @pytest.mark.parametrize("n", [561, 41041, 56052361, 3233, 3215031751])
    def test_composite_rejected(self, n):
        # Carmichael numbers; 211 * 421 * 631 and 53 * 61 pass trial division;
        # 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5 and 7
        assert not is_probable_prime(n)

    def test_pocklington_agrees_with_miller_rabin(self):
        # every p = 2q + 1 with q an odd prime below 3,000; among them
        # 4307 = 59 * 73, which no factor up to 47 divides
        assert not pocklington(4307, 2153)
        for q in filter(is_probable_prime, range(3, 3000)):
            assert pocklington(2 * q + 1, q) == is_probable_prime(2 * q + 1), q

    def test_small_group_is_a_safe_prime_group(self):
        assert is_safe_prime_group(DhParams(23, 11, 2))
        assert is_safe_prime_group(DhParams(7, 3, 2))

    @pytest.mark.parametrize("triple", [
        pytest.param((4307, 2153, 4), id="composite-p"),  # 59 * 73
        pytest.param((31, 15, 4), id="composite-q"),  # 4^15 = 1 mod 31
        pytest.param((29, 7, 16), id="order-mismatch"),  # a Schnorr group: 7 | 28
        pytest.param((23, 11, 0), id="generator-zero"),
        pytest.param((23, 11, 25), id="generator-above-p"),  # 25 = 2 mod 23
        pytest.param((23, 11, 1), id="identity-generator"),
        pytest.param((23, 11, 5), id="generator-outside-subgroup"),
        pytest.param((23, 11, 22), id="generator-of-order-2"),
        pytest.param((-23, -12, 2), id="non-positive"),
    ])
    def test_non_safe_prime_group_rejected(self, triple):
        # the check that certifies the built-in sets is not vacuous
        assert not is_safe_prime_group(DhParams(*triple))


class TestBuiltinSets:
    # the Jacobi test and short exponents rely on the safe-prime shape
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_safe_prime_group(self, name):
        assert is_safe_prime_group(GROUPS[name])

    def test_sizes(self):
        assert len(str(PARAM_SETS["p40"].p)) == 40
        assert PARAM_SETS["modp2048"].p.bit_length() == 2048

    @pytest.mark.parametrize("triple", [
        # 29 = 4 * 7 + 1: a Schnorr group, where a Jacobi test would wrongly
        # accept the quadratic residues outside the order-7 subgroup
        pytest.param((29, 7, 16), id="schnorr29"),
        pytest.param((2**31 + 13, 2**30 + 5, 4), id="p-is-2q-plus-3"),
        pytest.param((11, 23, 2), id="p-and-q-swapped"),
        pytest.param((23, 23, 2), id="p-equals-q"),
    ])
    def test_only_safe_prime_groups_accepted(self, triple):
        params = DhParams(*triple)
        for name in ("set_id", "exponent_limit"):
            with pytest.raises(ValueError, match=f"^p of {params.p.bit_length()} bits is not 2q"):
                getattr(params, name)

    def test_derived_fields_leave_identity_unchanged(self):
        # exponent_limit and set_id stay out of equality, hashing and the wire id
        ids = {name: params.set_id for name, params in PARAM_SETS.items()}
        assert ids == {"test": 3299674283, "p40": 3343870752, "modp2048": 1109075298}
        assert hash(PARAM_SETS["test"]) == hash((23, 11, 2))
        assert repr(PARAM_SETS["test"]) == "DhParams(p=23, q=11, g=2)"

    def test_set_ids_distinct_and_stable(self):
        ids = {name: params.set_id for name, params in PARAM_SETS.items()}
        assert len(set(ids.values())) == len(ids)
        assert all(0 <= v < 2**32 for v in ids.values())
        assert PARAM_SETS["test"].set_id == ids["test"]


def reference_in_subgroup(params, value):
    return 1 < value < params.p and pow(value, params.q, params.p) == 1


def candidate_shares(params):
    """Members g^x, their negations (non-members), and any integer near [0, p)."""
    exponents = st.integers(min_value=1, max_value=params.q - 1)
    return st.one_of(
        exponents.map(lambda x: pow(params.g, x, params.p)),
        exponents.map(lambda x: params.p - pow(params.g, x, params.p)),
        st.integers(min_value=-params.p, max_value=2 * params.p),
    )


class TestInSubgroup:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_edge_cases(self, name):
        params = GROUPS[name]
        p, g = params.p, params.g
        for value in (0, 1, p - 1, p, p + 1, -1, -g, -p):
            assert not in_subgroup(params, value)
        assert in_subgroup(params, g)
        for value in (2, g, p - 2, p - g, g * g % p):
            assert in_subgroup(params, value) == reference_in_subgroup(params, value)

    @pytest.mark.parametrize("name", ["test", "p40", "safe32", "safe256", "safe257"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pow_reference(self, name, data):
        params = GROUPS[name]
        value = data.draw(candidate_shares(params))
        assert in_subgroup(params, value) == reference_in_subgroup(params, value)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_pow_reference_modp2048(self, data):
        params = PARAM_SETS["modp2048"]
        value = data.draw(candidate_shares(params))
        assert in_subgroup(params, value) == reference_in_subgroup(params, value)

    def test_jacobi_matches_definition(self):
        # (a/n) is the product of the Legendre symbols a^((r-1)/2) mod r
        # over the prime factors r of n, and 0 when gcd(a, n) > 1
        def legendre(a, r):
            e = pow(a, (r - 1) // 2, r)
            return -1 if e == r - 1 else e

        primes = (3, 5, 7, 11, 13, 23)
        for r1 in primes:
            for r2 in primes:
                for a in range(-30, 60):
                    assert jacobi(a, r1 * r2) == legendre(a, r1) * legendre(a, r2)
        with pytest.raises(ValueError):
            jacobi(3, 10)

class TestVerdictCache:
    """Above 2^31 a share pub_share made from a generator in the subgroup is
    remembered in a small bounded store and accepted without the Jacobi
    test; any other share runs the test on every check."""

    @staticmethod
    def count_jacobi(monkeypatch, counts):
        """Count calls of group.jacobi and of in_subgroup wherever it is bound."""

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            for owner in (group, protocol):
                if getattr(owner, name, None) is original:
                    monkeypatch.setattr(owner, name, counted)

        spy(group, "in_subgroup")
        spy(group, "jacobi")

    @pytest.mark.parametrize("kind, checks, jacobi_runs", [
        (StrategyKind.HONEST, 4, 0),
        (StrategyKind.IMPERSONATE_INITIATOR, 2, 0),
        (StrategyKind.IMPERSONATE_RESPONDER, 2, 0),
        (StrategyKind.FULL_MITM, 2, 0),
    ])
    def test_every_check_runs_and_each_verdict_once(self, monkeypatch, kind, checks, jacobi_runs):
        """Each peer checks the share it receives and derive_key checks it
        again (honest: 2 shares, 4 checks; attack: the attacker's share,
        checked by A and B), but every share was made by pub_share in this
        process, so the Jacobi loop never runs."""
        params = PARAM_SETS["p40"]
        params.set_id  # g's own verdict, once per group and process
        counts = {}
        self.count_jacobi(monkeypatch, counts)
        for seed in range(3):
            group._made_here.clear()
            counts.update(in_subgroup=0, jacobi=0)
            run_mitm_trial(AttackStrategy(kind), params, 20, seed)
            assert counts == {"in_subgroup": checks, "jacobi": jacobi_runs}, seed

    def test_share_made_elsewhere_is_tested_on_every_check(self, monkeypatch):
        """A share computed with pow, as a remote peer's is, runs the Jacobi
        loop on each of its checks and is never remembered."""
        params = PARAM_SETS["p40"]
        params.set_id  # g's own verdict, as above
        counts = {}
        self.count_jacobi(monkeypatch, counts)
        group._made_here.clear()
        counts.update(in_subgroup=0, jacobi=0)
        share = pow(params.g, 123456789, params.p)
        assert group.in_subgroup(params, share)
        assert derive_key(params, share, 5) == pow(share, 5, params.p)
        assert counts == {"in_subgroup": 2, "jacobi": 2}
        assert not group._made_here

    def test_only_table_shares_from_a_member_generator_are_recorded(self):
        """Nothing is recorded on the pow path (p <= 2^31, or an exponent at
        or above exponent_limit) or for a g outside the subgroup.  g^0, the
        identity, is remembered too, and only the range check, which runs
        first, refuses it."""
        p40 = PARAM_SETS["p40"]
        outside = DhParams(p40.p, p40.q, p40.p - p40.g)
        group._made_here.clear()
        pub_share(PARAM_SETS["test"], 3)
        pub_share(SAFE31, 3)
        pub_share(p40, p40.exponent_limit + 1)
        pub_share(outside, 3)
        assert not group._made_here
        share = pub_share(p40, 3)
        assert list(group._made_here) == [(p40, share)]
        assert pub_share(p40, 0) == 1
        assert (p40, 1) in group._made_here
        assert not in_subgroup(p40, 1)

    @pytest.mark.parametrize("first, second", [("p40", "modp2048"), ("safe32", "p40")])
    def test_verdict_belongs_to_its_group(self, first, second):
        expected = {name: {v: reference_in_subgroup(GROUPS[name], v) for v in range(2, 30)}
                    for name in (first, second)}
        values = [v for v in expected[first] if expected[first][v] != expected[second][v]]
        assert values
        for order in ((first, second), (second, first)):
            group._made_here.clear()
            for value in values:
                for name in order:
                    assert in_subgroup(GROUPS[name], value) == expected[name][value]

    def test_rejected_share_rejected_again(self):
        params = PARAM_SETS["p40"]
        group._made_here.clear()
        non_residue = params.p - params.g
        priv = 5
        for _ in range(2):
            with pytest.raises(SubgroupCheckFailed):
                derive_key(params, non_residue, priv)

    def test_cache_stays_bounded(self):
        """in_subgroup writes nothing, and the store keeps the last 8 shares
        pub_share made."""
        params = PARAM_SETS["p40"]
        group._made_here.clear()
        for value in range(2, 402):
            assert in_subgroup(params, value) == reference_in_subgroup(params, value)
        assert not group._made_here
        shares = [pub_share(params, x) for x in range(1, 21)]
        assert list(group._made_here) == [(params, y) for y in shares[-8:]]


# unvalidated triples whose g, the negation of a generator, is a non-residue
# outside the subgroup: only its even powers are members
OUTSIDE = {"p40-outside": DhParams(PARAM_SETS["p40"].p, PARAM_SETS["p40"].q,
                                   PARAM_SETS["p40"].p - PARAM_SETS["p40"].g),
           "safe32-outside": DhParams(SAFE32.p, SAFE32.q, SAFE32.p - SAFE32.g)}


class TestShareVerdict:
    """in_subgroup on a share pub_share made agrees with the pow reference,
    whether the store was cleared before pub_share (it finds the share
    there), left warm, or cleared after it (in_subgroup tests the share
    itself)."""

    @staticmethod
    def check(params, data):
        x = data.draw(st.integers(min_value=0, max_value=params.exponent_limit - 1))
        when = data.draw(st.sampled_from(["cleared", "warm", "cleared after"]))
        if when == "cleared":
            group._made_here.clear()
        share = pub_share(params, x)
        if when == "cleared after":
            group._made_here.clear()
        assert in_subgroup(params, share) == reference_in_subgroup(params, share)

    @pytest.mark.parametrize("name", sorted(set(GROUPS) - {"modp2048"} | set(OUTSIDE)))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pow_reference(self, name, data):
        self.check({**GROUPS, **OUTSIDE}[name], data)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_pow_reference_modp2048(self, data):
        self.check(PARAM_SETS["modp2048"], data)


def test_int_to_octets_minimal():
    assert int_to_octets(0) == b"\x00"
    assert int_to_octets(1) == b"\x01"
    assert int_to_octets(255) == b"\xff"
    assert int_to_octets(256) == b"\x01\x00"


def test_field_is_a_two_octet_length_then_the_octets():
    assert _field(b"") == b"\x00\x00"
    assert _field(b"ab") == b"\x00\x02ab"
    assert _field(bytes(65535))[:2] == b"\xff\xff"
    with pytest.raises(MalformedMessage, match="^field of 65536 octets exceeds 65535$"):
        _field(bytes(65536))


def edge_exponents(params):
    """0, 1, the top of the table's range, all-ones exponents that end on an
    octet boundary or inside an octet, and exponents at or above
    exponent_limit (pow path)."""
    limit = params.exponent_limit
    bits = (limit - 1).bit_length()
    ones = [(1 << n) - 1 for n in (*range(5, bits, 5), *range(8, bits, 8), bits)]
    return sorted({0, 1, 2, limit - 1, limit, params.q - 1, params.q, 2 * params.q, *ones})


def exponents(params):
    limit = params.exponent_limit
    return st.one_of(
        st.integers(min_value=0, max_value=limit - 1),
        st.integers(min_value=0, max_value=limit.bit_length()).map(lambda n: (1 << n) - 1),
        st.integers(min_value=limit, max_value=2 * params.q),
    )


class TestPubShareReference:
    """pub_share against pow(g, x, p), the reference for the fixed-base table."""

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_edge_exponents(self, name):
        params = GROUPS[name]
        for x in edge_exponents(params):
            assert pub_share(params, x) == pow(params.g, x, params.p), x

    @pytest.mark.parametrize("name", ["test", "p40", "safe32", "safe31", "safe256", "safe257"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pow(self, name, data):
        params = GROUPS[name]
        x = data.draw(exponents(params))
        assert pub_share(params, x) == pow(params.g, x, params.p)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_pow_modp2048(self, data):
        params = PARAM_SETS["modp2048"]
        x = data.draw(exponents(params))
        assert pub_share(params, x) == pow(params.g, x, params.p)

    def test_table_shape(self):
        # one row of 2,048 per 11 bits below exponent_limit
        assert [len(_fixed_base_rows(GROUPS[n])) for n in ("p40", "safe256", "safe257", "modp2048")] \
            == [12, 24, 24, 24]
        for name in ("p40", "modp2048"):
            assert {len(row) for row in _fixed_base_rows(PARAM_SETS[name])} == {2048}
        assert SAFE31.p < 2**31 < SAFE32.p

    def test_no_table_until_a_large_group_needs_one(self):
        """Importing the CLI and simulating on the test group build no table,
        so CLI start-up and test-group trials keep their cost."""
        code = (
            "import saska.cli\n"
            "from saska import group\n"
            "from saska.adversary import AttackStrategy, StrategyKind, run_mitm_trial\n"
            "sizes = [group._fixed_base_rows.cache_info().currsize]\n"
            "for name in ('test', 'p40'):\n"
            "    run_mitm_trial(AttackStrategy(StrategyKind.FULL_MITM), group.PARAM_SETS[name], 4, 1)\n"
            "    sizes.append(group._fixed_base_rows.cache_info().currsize)\n"
            "print(sizes)\n"
        )
        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 1]\n"


class TestLazyTable:
    """The fixed-base table fills each entry on first use."""

    def test_every_entry_in_any_order(self):
        params = PARAM_SETS["p40"]
        _fixed_base_rows.cache_clear()
        rows = _fixed_base_rows(params)
        cells = [(i, d) for i in range(len(rows)) for d in range(2048)]
        assert len(cells) == 24576
        random.Random(11).shuffle(cells)
        for i, d in cells:
            assert _table_entry(rows[i], d, params.p) == pow(params.g, d * 2048**i, params.p), (i, d)
        for i, row in enumerate(rows):
            assert row == [pow(params.g, d * 2048**i, params.p) for d in range(2048)], i

    def test_cold_share_fills_at_most_one_chain_per_row(self):
        """A built row holds 0 and the eleven powers of two, and one cold
        pub_share adds to each row at most popcount(d) - 1 entries for its
        11-bit digit d: no up-front build."""
        params = PARAM_SETS["modp2048"]
        _fixed_base_rows.cache_clear()
        rows = _fixed_base_rows(params)
        built = {0, *(1 << j for j in range(11))}
        assert len(rows) == 24
        for row in rows:
            assert {d for d, entry in enumerate(row) if entry is not None} == built
        x = params.exponent_limit - 1 - 0x5A  # every digit non-zero, the low one odd
        assert pub_share(params, x) == pow(params.g, x, params.p)
        digits = [(x >> (11 * i)) & 0x7FF for i in range(24)]
        assert all(digits) and digits[0] & 1 and digits[-1] == 0b111
        added = [sum(entry is not None for entry in row) - len(built) for row in rows]
        assert all(0 <= n <= bin(d).count("1") - 1 for n, d in zip(added, digits)), added
        assert sum(added) > 0
