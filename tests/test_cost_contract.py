"""The cost contract: how many times a simulator trial calls each primitive.

A ±15% benchmark bound cannot see one more Jacobi run, one more generator
seeding or one more decode in a trial of about 60 µs, and a verdict cache
that stops hitting costs about that much.  Counts are exact where times
are noisy, so this pins them for each strategy on the `test` and `p40`
groups over a fixed list of seeds.  A change that saves or adds a call
changes the table below in the same diff, with its reason.

The counts come from perfbench/tracing.py's Tracer totals, installed in a
fresh interpreter, as tests/test_bench_hooks.py does; Jacobi runs and
`random.Random` seedings are counted by wrappers made in that interpreter.
The subgroup-verdict cache is cleared before each strategy, so a count does
not depend on what ran before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

STRATEGIES = ("honest", "impersonate-initiator", "impersonate-responder", "full-mitm")
SEEDS = range(8)
# group -> k: the benchmark's k on `test`, the CLI's default on `p40`
GROUPS = {"test": 8, "p40": 20}
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
import json, random, sys
import saska.group
import tracing
from saska.adversary import AttackStrategy, StrategyKind, run_mitm_trial
from saska.group import PARAM_SETS

groups, strategies, seeds, counted = json.loads(sys.argv[1])
tracer = tracing.install(tracing.Tracer())
calls = {"jacobi": 0, "seed": 0}

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

saska.group.jacobi = counting("jacobi", saska.group.jacobi)
random.Random.seed = counting("seed", random.Random.seed)
table = {}
for group, k in groups.items():
    for name in strategies:
        saska.group._member_verdict.cache_clear()
        tracer.reset()
        calls.update(jacobi=0, seed=0)
        for seed in seeds:
            run_mitm_trial(AttackStrategy(StrategyKind(name)), PARAM_SETS[group], k, seed)
        row = {key: tracer.totals[span][0] for key, span in counted.items()}
        row.update(jacobi=calls["jacobi"], seed=calls["seed"])
        table[f"{group} {name}"] = row
print(json.dumps(table))
"""


COLUMNS = (*COUNTED, "jacobi", "seed")
# calls in the len(SEEDS) trials of each strategy, in COLUMNS order.  Per
# trial: 3 frames each encoded and decoded once by an honest trial, and 6 by
# an attack trial, whose attacker decodes every honest frame and forges its
# own; 1 generator seeded per honest trial and 2 per attack trial; on p40,
# 2 Jacobi runs for an honest trial's 4 subgroup checks and 1 for an attack
# trial's 2, which both check the attacker's one share.  Only trials whose
# strings match derive keys: all honest ones, and one impersonate-responder
# trial on `test` at k = 8.
EXPECTED = {
    #                              enc enp dec dep cmt opn pub sub key rng jac sed
    "test honest":                (24, 16, 24, 16,  8,  8, 16, 32, 16,  8,  0,  8),
    "test impersonate-initiator": (48, 32, 48, 32, 16,  8, 24, 16,  0,  8,  0, 16),
    "test impersonate-responder": (48, 32, 48, 32, 16,  8, 24, 18,  2,  8,  0, 16),
    "test full-mitm":             (48, 32, 48, 32, 16,  8, 24, 16,  0,  8,  0, 16),
    "p40 honest":                 (24, 16, 24, 16,  8,  8, 16, 32, 16,  8, 16,  8),
    "p40 impersonate-initiator":  (48, 32, 48, 32, 16,  8, 24, 16,  0,  8,  8, 16),
    "p40 impersonate-responder":  (48, 32, 48, 32, 16,  8, 24, 16,  0,  8,  8, 16),
    "p40 full-mitm":              (48, 32, 48, 32, 16,  8, 24, 16,  0,  8,  8, 16),
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
