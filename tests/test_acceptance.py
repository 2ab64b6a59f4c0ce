"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines.
"""

import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from saska.adversary import (
    AttackStrategy,
    GuessRule,
    StrategyKind,
    estimate_attack_success,
    exhaustive_attack_success,
    run_mitm_trial,
)
from saska.errors import OpenFailed
from saska.group import pub_share, derive_key
from saska.protocol import (
    Msg2,
    PairingPayload,
    Peer,
    Role,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
    format_sas,
)

from conftest import naive_mod_exp

DATA_DIR = Path(__file__).parent / "data"


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_security_bound(test_params):
    """Exhaustive impersonate-responder, fixed guess: exactly 2^-k."""
    strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.FIXED, 0)
    start = time.monotonic()
    results = {
        k: exhaustive_attack_success(strategy, test_params, k)
        for k in (1, 2, 3, 8, 12)
    }
    elapsed = time.monotonic() - start
    exact = all(results[k] == Fraction(1, 2**k) for k in results)
    report(
        1,
        exact and elapsed < 10.0,
        f"exhaustive rates {[str(results[k]) for k in sorted(results)]} "
        f"all equal 2^-k, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_monte_carlo_band(test_params):
    """k=8, 100k uniform-guess trials: successes within the 99%+ band."""
    strategy = AttackStrategy(StrategyKind.IMPERSONATE_RESPONDER, GuessRule.UNIFORM)
    start = time.monotonic()
    est = estimate_attack_success(strategy, test_params, 8, 100_000, seed=20250810)
    elapsed = time.monotonic() - start
    report(
        2,
        300 <= est.successes <= 480 and elapsed < 60.0,
        f"successes={est.successes} in [300, 480] (expected ~390.6), "
        f"rate={est.rate:.6f}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_completeness(test_params, p40_params):
    """Randomized honest sessions always agree on SAS and key."""
    failures = 0
    for seed in range(1000):
        out = run_mitm_trial(AttackStrategy(StrategyKind.HONEST), test_params, 20, seed)
        if not (out.success and out.sas_a == out.sas_b and out.keys_equal):
            failures += 1
    for seed in range(10):
        out = run_mitm_trial(AttackStrategy(StrategyKind.HONEST), p40_params, 20, seed)
        if not (out.success and out.sas_a == out.sas_b and out.keys_equal):
            failures += 1
    report(3, failures == 0, f"1000 sessions at p=23 plus 10 at 40-digit p, {failures} failures")


def flip_frame_bit(frame: bytes, body_bit: int) -> bytes:
    out = bytearray(frame)
    out[5 + body_bit // 8] ^= 1 << (body_bit % 8)
    return bytes(out)


def test_criterion_4_tamper_suite(test_params):
    """Single-bit tampering with commit material always raises OpenFailed;
    nonce substitution in the clear payload always desynchronizes the SAS."""
    sessions = 100
    open_failures = 0
    expected_open_failures = 0
    sas_mismatches = 0
    expected_sas_mismatches = 0

    for s in range(sessions):
        a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(s))
        b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(10_000 + s))
        (frame1,) = a.start()
        (frame2,) = b.receive(frame1)
        (frame3,) = a.receive(frame2)

        # every bit of the commitment c in Msg1
        for bit in range((len(frame1) - 5) * 8):
            victim = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(1))
            victim.receive(flip_frame_bit(frame1, bit))
            expected_open_failures += 1
            try:
                victim.receive(frame3)
            except OpenFailed:
                open_failures += 1

        # every bit of the decommit nonce and committed message in Msg3
        for bit in range((len(frame3) - 5) * 8):
            victim = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(2))
            victim.receive(frame1)
            expected_open_failures += 1
            try:
                victim.receive(flip_frame_bit(frame3, bit))
            except OpenFailed:
                open_failures += 1

        # every single-bit substitution of the cleartext nonce in Msg2
        for bit in range(20):
            fresh_a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(20_000 + s))
            fresh_b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(30_000 + s))
            (frame1_f,) = fresh_a.start()
            (frame2_f,) = fresh_b.receive(frame1_f)
            msg2_f = decode_message(frame2_f)
            payload_f = decode_payload(msg2_f.message, msg2_f.k)
            forged_nonce = payload_f.auth_nonce ^ (1 << bit)
            forged = Msg2(msg2_f.param_set_id, msg2_f.k, encode_payload(PairingPayload(
                payload_f.identity, payload_f.public_share, forged_nonce), msg2_f.k))
            (frame3_f,) = fresh_a.receive(encode_message(forged))
            fresh_b.receive(frame3_f)
            expected_sas_mismatches += 1
            sas_mismatches += fresh_a.sas != fresh_b.sas

    report(
        4,
        open_failures == expected_open_failures and sas_mismatches == expected_sas_mismatches,
        f"{open_failures}/{expected_open_failures} bit flips raised OpenFailed, "
        f"{sas_mismatches}/{expected_sas_mismatches} nonce substitutions mismatched the SAS, "
        f"zero false accepts over {sessions} sessions",
    )


def test_criterion_5_dh_oracle_equivalence(test_params):
    """pub_share and derive_key agree with repeated multiplication on the
    full (a, b) in [1,10]^2 sweep."""
    mismatches = 0
    for a in range(1, 11):
        for b in range(1, 11):
            ga = pub_share(test_params, a)
            gb = pub_share(test_params, b)
            if ga != naive_mod_exp(2, a, 23) or gb != naive_mod_exp(2, b, 23):
                mismatches += 1
                continue
            key_a = derive_key(test_params, pub_share(test_params, b), a)
            key_b = derive_key(test_params, pub_share(test_params, a), b)
            oracle = naive_mod_exp(naive_mod_exp(2, a, 23), b, 23)
            if key_a != oracle or key_b != oracle:
                mismatches += 1
    report(5, mismatches == 0, f"100-point sweep against the naive oracle, {mismatches} mismatches")


def cli_pairing(*extra_args):
    """Pair two loopback CLI processes, each confirming with "y".  Returns
    whether both exited 0 with equal 5-digit SAS values and equal
    fingerprints, the report detail, and the wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")

    start = time.monotonic()
    listener = subprocess.Popen(
        [sys.executable, "-m", "saska.cli", "--listen", "0", "--id", "alice", "--timeout", "10",
         *extra_args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        line = listener.stdout.readline()
        port = int(re.match(r"listening :(\d+)", line).group(1))
        connector = subprocess.Popen(
            [sys.executable, "-m", "saska.cli", "--connect", f"127.0.0.1:{port}",
             "--id", "bob", "--timeout", "10", *extra_args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        out_c, err_c = connector.communicate("y\n", timeout=15)
        out_l, err_l = listener.communicate("y\n", timeout=15)
        elapsed = time.monotonic() - start
    finally:
        if listener.poll() is None:
            listener.kill()

    sas_l = re.search(r"^bob : ([0-9A-F]+)$", out_l, re.M)
    sas_c = re.search(r"^alice : ([0-9A-F]+)$", out_c, re.M)
    # the confirmation prompt has no trailing newline, so under a pipe the
    # fingerprint continues the prompt line
    fp_l = re.search(r"fingerprint: ([0-9a-f]{8})", out_l)
    fp_c = re.search(r"fingerprint: ([0-9a-f]{8})", out_c)

    paired = bool(
        listener.returncode == 0
        and connector.returncode == 0
        and sas_l and sas_c and sas_l.group(1) == sas_c.group(1)
        and len(sas_l.group(1)) == 5
        and fp_l and fp_c and fp_l.group(1) == fp_c.group(1)
    )
    detail = (
        f"exit codes ({listener.returncode}, {connector.returncode}), "
        f"sas {sas_l.group(1) if sas_l else '?'} == {sas_c.group(1) if sas_c else '?'} (5 hex digits), "
        f"fingerprints match"
    )
    return paired, detail, elapsed


def test_criterion_6_cli_end_to_end(tmp_path):
    """Two loopback CLI processes pair with identical SAS and fingerprints."""
    paired, detail, elapsed = cli_pairing()
    report(6, paired and elapsed < 1.0, f"{detail}, {elapsed:.2f}s (< 1s)")


def test_criterion_6_cli_end_to_end_modp2048():
    """The same pairing on the full-size group, where each peer's g^x is
    its group's first use of the fixed-base table."""
    paired, detail, elapsed = cli_pairing("--params", "modp2048")
    report(6, paired, f"{detail} on modp2048, {elapsed:.2f}s")


def test_criterion_7_wire_stability(test_params):
    """The fixed-seed session reproduces the golden frames byte for byte."""
    golden = [
        bytes.fromhex(line)
        for line in (DATA_DIR / "golden_frames.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    a = Peer(Role.INITIATOR, test_params, "alice", 20, random.Random(1000))
    b = Peer(Role.RESPONDER, test_params, "bob", 20, random.Random(1009))
    (frame1,) = a.start()
    (frame2,) = b.receive(frame1)
    (frame3,) = a.receive(frame2)
    b.receive(frame3)
    frames = [frame1, frame2, frame3]

    ok = (
        frames == golden
        and a.sas == b.sas
        and format_sas(a.sas) == "A875B"
        and a.confirm(True) == 12
        and b.confirm(True) == 12
    )
    report(7, ok, "three fixed-seed frames byte-identical to the golden file")
