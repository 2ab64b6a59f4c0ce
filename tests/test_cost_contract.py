"""The cost contract: how many times a simulator trial calls each primitive.

A ±15% benchmark bound cannot see one more Jacobi run, one more generator
seeding or one more decode in a trial of about 60 µs, and a share checked
that pub_share did not remember costs about that much.  Counts are exact where times
are noisy, so this pins them for each strategy on the `test`, `p40` and
`modp2048` groups over a fixed list of seeds.  A change that saves or adds
a call changes the table below in the same diff, with its reason.

The counts come from perfbench/tracing.py's Tracer totals, installed in a
fresh interpreter, as tests/test_bench_hooks.py does; Jacobi runs, builtin
`pow` calls, `random.Random` seedings, `getrandbits` calls, `hashlib.sha256`
calls and HMACs (`hmac.new` and `hmac.digest`, which calls neither
`hmac.new` nor `hashlib.sha256`) are counted by wrappers made in that
interpreter.
`pow` is counted by binding a wrapper to that name in the two modules that
call it, `saska.group` and `saska.adversary`: a module global shadows the
builtin.  Each group's set id, one SHA-256 cached per group and process, is
read before counting; that also computes g's own subgroup verdict, one
Jacobi run cached beside it.  Table multiplies happen inline in
`pub_share`, so nothing outside `src/` can count them.
The store of shares pub_share remembers is cleared before each strategy,
so a count does not depend on what ran before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

STRATEGIES = ("honest", "impersonate-initiator", "impersonate-responder", "full-mitm")
SEEDS = range(8)
# group -> k: the benchmark's k on `test`, the CLI's default elsewhere
GROUPS = {"test": 8, "p40": 20, "modp2048": 20}
COUNTED = {
    "encode_message": "protocol.encode_message",
    "encode_payload": "protocol.encode_payload",
    "decode_message": "protocol.decode_message",
    "decode_payload": "protocol.decode_payload",
    "commit": "commitment.commit",
    "open_commitment": "commitment.open",
    "pub_share": "group.pub_share",
    "in_subgroup": "group.in_subgroup",
    "derive_key": "group.derive_key",
    "_child_rngs": "adversary.child_rngs",
}

COUNT = """
import builtins, hashlib, hmac, json, random, sys
import saska.adversary, saska.group
import tracing
from saska.adversary import AttackStrategy, StrategyKind, run_mitm_trial
from saska.group import PARAM_SETS

groups, strategies, seeds, counted = json.loads(sys.argv[1])
tracer = tracing.install(tracing.Tracer())
calls = dict.fromkeys(("jacobi", "pow", "seed", "getrandbits", "sha256", "hmac"), 0)
for group in groups:
    PARAM_SETS[group].set_id

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

saska.group.jacobi = counting("jacobi", saska.group.jacobi)
saska.group.pow = saska.adversary.pow = counting("pow", builtins.pow)
random.Random.seed = counting("seed", random.Random.seed)
random.Random.getrandbits = counting("getrandbits", random.Random.getrandbits)
hashlib.sha256 = counting("sha256", hashlib.sha256)
hmac.new = counting("hmac", hmac.new)
hmac.digest = counting("hmac", hmac.digest)
table = {}
for group, k in groups.items():
    for name in strategies:
        saska.group._made_here.clear()
        tracer.reset()
        calls.update(dict.fromkeys(calls, 0))
        for seed in seeds:
            run_mitm_trial(AttackStrategy(StrategyKind(name)), PARAM_SETS[group], k, seed)
        row = {key: tracer.totals[span][0] for key, span in counted.items()}
        row.update(calls)
        table[f"{group} {name}"] = row
print(json.dumps(table))
"""


COLUMNS = (*COUNTED, "jacobi", "pow", "seed", "getrandbits", "sha256", "hmac")
# calls in the len(SEEDS) trials of each strategy, in COLUMNS order.  Per
# trial: 3 frames each encoded and decoded once by an honest trial.  An
# attack trial encodes 6, the honest 3 and the attacker's own 3, and
# decodes 4 frames and 3 payloads: the victims the attacker's 3 frames and
# 2 payloads, and the attacker, which keeps each honest frame, only the one
# whose nonce its decisions read: B's Msg2, or A's opening under
# impersonate-responder, whose key_with_b parses B's Msg2 as well on its
# one trial with keys (below);
# 1 generator seeded per honest trial and 2 per attack trial; above
# 2^31 (p40, modp2048), no Jacobi run for an honest trial's 4 subgroup
# checks or an attack trial's 2, which both check the attacker's one share,
# because every share checked is one pub_share made and remembers.  Only trials
# whose strings match derive keys: all honest ones, and
# one impersonate-responder trial on `test` at k = 8.  On `test` every g^x,
# subgroup check and key is a pow; above 2^31 only the keys are (derive_key,
# and the attacker's key_with_a/b once a victim holds a key), since g^x
# comes from the fixed-base table and the subgroup check finds the share
# among those pub_share remembers.
# getrandbits: the 64 bits drawn in every trial to seed the attacker's
# generator, each exponent (randrange draws
# again on a value past its bound, so this varies by seed), each nonce and
# each commitment's opening nonce.  SHA-256: one per commitment made and one
# per opening checked; no HMAC yet, by `hmac.new` or `hmac.digest`.
EXPECTED = {
    #                                  enc enp dec dep cmt opn pub sub key rng jac pow sed bits sha hmc
    "test honest":                    (24, 16, 24, 16,  8,  8, 16, 32, 16,  8,  0, 64,  8, 62,  16,  0),
    "test impersonate-initiator":     (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0, 40, 16, 90,  24,  0),
    "test impersonate-responder":     (48, 32, 33, 25, 16,  8, 24, 18,  2,  8,  0, 46, 16, 98,  24,  0),
    "test full-mitm":                 (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0, 40, 16, 98,  24,  0),
    "p40 honest":                     (24, 16, 24, 16,  8,  8, 16, 32, 16,  8,  0, 16,  8, 55,  16,  0),
    "p40 impersonate-initiator":      (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 84,  24,  0),
    "p40 impersonate-responder":      (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 92,  24,  0),
    "p40 full-mitm":                  (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 92,  24,  0),
    "modp2048 honest":                (24, 16, 24, 16,  8,  8, 16, 32, 16,  8,  0, 16,  8, 48,  16,  0),
    "modp2048 impersonate-initiator": (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 72,  24,  0),
    "modp2048 impersonate-responder": (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 80,  24,  0),
    "modp2048 full-mitm":             (48, 32, 32, 24, 16,  8, 24, 16,  0,  8,  0,  0, 16, 80,  24,  0),
}


def test_calls_per_trial_are_pinned():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    # no bytecode is written: the run leaves perfbench/ as it found it
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    spec = json.dumps([GROUPS, STRATEGIES, list(SEEDS), COUNTED])
    proc = subprocess.run([sys.executable, "-c", COUNT, spec], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: dict(zip(COLUMNS, counts))
                                       for name, counts in EXPECTED.items()}
