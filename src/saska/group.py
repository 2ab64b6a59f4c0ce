"""Modular arithmetic over a prime-order subgroup and Diffie-Hellman shares.

All group elements live in the order-q subgroup of the multiplicative group
mod p, where p = 2q + 1 is a safe prime.  Parameters are static, publicly
known configuration: both peers name the same built-in set out of band, and
no other group is accepted.

Once p exceeds 2^31, subgroup membership is a Jacobi-symbol test: by
Euler's criterion, y^q = 1 mod p exactly when y is a quadratic residue mod
p.  Private exponents are capped at 256 bits once q exceeds 2^256, which
means modp2048 (NIST SP 800-56A Rev. 3, section 5.6.1.1.4; RFC 3526,
section 8).

Above 2^31, pub_share remembers the last few shares it made from the
table when g passes the test, and in_subgroup accepts those without the
Jacobi test: (y/p) and y^q mod p are multiplicative in y, so every power of
such a g is a member, and the range check 1 < y < p, which runs first,
refuses the identity.  Any other share runs the Jacobi test on every check.

Every group with p above 2^31 computes g^x for x in [0, exponent_limit)
from a fixed-base table (Brickell, Gordon, McCurley & Wilson, EUROCRYPT
'92; Handbook of Applied Cryptography, section 14.6.3).  Row i holds
g^(d * 2^(11 i)) for d in [0, 2048), one row per 11 bits of the exponent,
so g^x costs one modular multiply per non-zero 11-bit digit of x: at most
24 for a 256-bit modp2048 exponent, against about 300 in pow.  The table
fills on first use.  A group's first pub_share in a process sets up the
rows with d = 0 and the eleven powers of two, which the squarings that
step from one row's base to the next compute anyway, and then fills each
missing entry it needs with one multiply, row[d & (d - 1)] times the
power-of-two entry of d's lowest set bit; a cold first call takes about
4 ms on modp2048.  Once every entry is filled the table holds 49,152
entries (about 15 MB) on modp2048 and 24,576 (about 1.3 MB) on p40.
Smaller groups and other exponents use pow.  Neither path is
constant-time.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections import deque, namedtuple

from .errors import MalformedMessage, SubgroupCheckFailed

_EXPONENT_BITS = 256  # the short exponent cap

# Groups with p <= 2^31 skip the Jacobi test, the store of shares made here
# and the fixed-base table, because below about 2^31 a single pow is cheaper
# (measured with CPython 3.11).  Subgroup test: pow(y, q, p) takes 0.2 us
# against 0.8 us for the Jacobi loop at p = 23, and 9 us against 4 us at 32
# bits; the whole check takes 0.16 us at p = 23.  g^x: pow(g, x, p) takes
# 0.07 us against 0.7 us for pub_share from the filled table at p = 23, and
# 3.4 us against 1.2 us at 32 bits.
_SMALL_P_MAX = 1 << 31


@functools.lru_cache(maxsize=None)
def _derived(params: DhParams) -> tuple[int, int, bool]:
    """(exponent_limit, set_id, whether pub_share remembers the shares it
    makes: p > 2^31 and g passes the membership test) of a group triple."""
    p, q, g = params
    if p != 2 * q + 1:
        raise ValueError(f"p of {p.bit_length()} bits is not 2q + 1: only safe-prime groups are supported")
    digest = hashlib.sha256(b"".join(_field(int_to_octets(n)) for n in params)).digest()
    return (min(q, 1 << _EXPONENT_BITS), int.from_bytes(digest[:4], "big"),
            p > _SMALL_P_MAX and jacobi(g, p) == 1)


class DhParams(namedtuple("DhParams", "p q g")):
    """Public triple (p, q, g) of a safe-prime group, p = 2q + 1; the
    package uses only PARAM_SETS.

    exponent_limit and set_id, the 32-bit wire id that detects mismatched
    sets, are derived from the triple, once per triple and process; reading
    either refuses a triple with p != 2q + 1 (ValueError).  They are
    read-only and take no part in equality, hashing, repr or copying.
    """

    __slots__ = ()
    exponent_limit = property(lambda self: _derived(self)[0])
    set_id = property(lambda self: _derived(self)[1])


def int_to_octets(n: int) -> bytes:
    """Minimal big-endian encoding; at least one octet."""
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def _field(data: bytes) -> bytes:
    """The field encoding: a 2-octet big-endian length, then the octets."""
    if len(data) > 0xFFFF:
        raise MalformedMessage(f"field of {len(data)} octets exceeds 65535")
    return len(data).to_bytes(2, "big") + data


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the binary algorithm."""
    if n <= 0 or not n & 1:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        # (2/n) = -1 exactly when n = 3 or 5 mod 8
        if zeros & 1 and n & 7 in (3, 5):
            result = -result
        # quadratic reciprocity for two odd numbers
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def in_subgroup(params: DhParams, value: int) -> bool:
    """Membership test for the order-q subgroup, excluding the identity."""
    if not 1 < value < params.p:
        return False
    if params.p <= _SMALL_P_MAX:
        return pow(value, params.q, params.p) == 1
    return (params, value) in _made_here or jacobi(value, params.p) == 1


# (group, share) pairs pub_share made from the table with a member g, oldest
# first.  A simulator trial makes up to 3 shares (A's, B's and the
# attacker's), and each peer checks the share it receives twice, so a few
# entries hold every share of a trial until its last check.
_made_here: deque[tuple[DhParams, int]] = deque(maxlen=8)


def gen_private_share(params: DhParams, rng: random.Random) -> int:
    """Draw the secret exponent x uniformly from [1, params.exponent_limit - 1].

    The limit is q, except on groups larger than the short exponent cap
    (see the module docstring).
    """
    return rng.randrange(1, params.exponent_limit)


# Bits of the exponent per fixed-base row.  On modp2048 (CPython 3.11.7,
# 2 CPUs, median of 3), 19,000 calls from a cold table, about one 30 s
# benchmark run, took 8.07, 7.04, 6.42, 6.48 and 6.54 s at 8 to 12 bits; a
# call on the table they left 395, 360, 330, 290 and 275 us; and the full
# table holds 2.5, 4.5, 8.0, 15 and 27 MB (README, performance notes).
_ROW_BITS = 11
_ROW_MASK = (1 << _ROW_BITS) - 1


@functools.lru_cache(maxsize=None)
def _fixed_base_rows(params: DhParams) -> tuple[list[int | None], ...]:
    """Row i holds g^(d * 2^(_ROW_BITS * i)) mod p at index d, one row per
    _ROW_BITS bits of an exponent below params.exponent_limit.  Only d = 0
    and the powers of two are set here, by the squarings that lead to the
    next row's base; _table_entry fills the rest, and None marks an entry
    not yet filled."""
    p = params.p
    rows = []
    base = params.g
    for _ in range(((params.exponent_limit - 1).bit_length() + _ROW_BITS - 1) // _ROW_BITS):
        row: list[int | None] = [None] * (1 << _ROW_BITS)
        row[0] = 1
        for j in range(_ROW_BITS):
            row[1 << j] = base
            base = base * base % p
        rows.append(row)
    return tuple(rows)


def _table_entry(row: list[int | None], d: int, p: int) -> int:
    """row[d], filled on first use as row[d & (d - 1)] times row[low], where
    low = d & -d is d's lowest set bit, an entry set when the row was built.
    Every write stores the one correct value, so concurrent fills agree."""
    value = row[d]
    if value is None:
        low = d & -d
        value = _table_entry(row, d & (d - 1), p) * row[low] % p
        row[d] = value
    return value


def pub_share(params: DhParams, x: int) -> int:
    """The public share g^x mod p for the exponent x; from the fixed-base
    table above 2^31, remembered as made here when g is a subgroup member
    (see the module docstring)."""
    p = params.p
    if p <= _SMALL_P_MAX or not 0 <= x < params.exponent_limit:
        return pow(params.g, x, p)
    value = 1
    for row in _fixed_base_rows(params):
        d = x & _ROW_MASK
        if d:
            value = value * (row[d] or _table_entry(row, d, p)) % p
        x >>= _ROW_BITS
    if _derived(params)[2]:
        _made_here.append((params, value))
    return value


def derive_key(params: DhParams, peer_share: int, x: int) -> int:
    """The shared secret peer_share^x mod p for the peer's public share and
    our exponent x, with a subgroup membership check first.

    The check rejects shares outside the order-q subgroup (identity
    included), which an active attacker could use for small-subgroup
    confinement.
    """
    if not in_subgroup(params, peer_share):
        raise SubgroupCheckFailed(
            f"peer share of {peer_share.bit_length()} bits is not a valid subgroup element")
    return pow(peer_share, x, params.p)


# Built-in parameter sets.  "test" is for unit tests and fast simulation
# only; "p40" is a 40-decimal-digit (133-bit) safe-prime group matching the
# scale the protocol was designed around; "modp2048" is the RFC 3526
# group 14 prime with the order-q subgroup generated by 2 (p = 7 mod 8, so
# 2 is a quadratic residue).  In every set q = (p-1)/2.

_P40 = 7005093198389998018690405618836744543707

_MODP2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

PARAM_SETS: dict[str, DhParams] = {
    "test": DhParams(p=23, q=11, g=2),
    "p40": DhParams(p=_P40, q=(_P40 - 1) // 2, g=4),
    "modp2048": DhParams(p=_MODP2048, q=(_MODP2048 - 1) // 2, g=2),
}

DEFAULT_PARAM_SET = "p40"

