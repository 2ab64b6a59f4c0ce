"""Simulator worker: one fresh interpreter per set-up probe, timed run or replay.

Started by run.py with `src/` on PYTHONPATH.  It prints `ready` once saska
is imported and, for a timed run, warmed up (the controller times set-up up to that line),
then, unless `--setup-only`, runs whole rounds of the strategy mix through
`saska.adversary.run_mitm_trial` for `--seconds`, and prints one JSON line.

saska sees only the per-trial seeds drawn from the workload seed, so the
i-th trial of a workload is the same on every run with that seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from time import perf_counter_ns

import saska.adversary as adversary
from calibrate import Calibration
from saska.adversary import AttackStrategy, GuessRule, StrategyKind
from saska.group import PARAM_SETS

STRATEGIES = ("honest", "impersonate-initiator", "impersonate-responder", "full-mitm")

# workload -> (parameter set, k, trials in the replayed prefix)
WORKLOADS = {
    "sim-small": ("test", 8, 400),
    "sim-modp2048": ("modp2048", 20, 4),
}
SETUP_UNITS = 3  # calibration units timed right after a set-up probe is ready


def trial_failure(strategy: str, out) -> str | None:
    """Why a trial's outcome is wrong, or None when it is correct."""
    if out.aborts:
        return f"{strategy} trial aborted: {'; '.join(map(str, out.aborts))}"
    if strategy == "honest":
        if not (out.success and out.sas_match and out.keys_equal):
            return "honest trial did not pair with equal keys"
    elif out.sas_match and not out.success:
        return f"{strategy} trial ended with equal strings but no attacker key"
    return None


class Mix:
    """The workload's strategy mix over its parameter set."""

    def __init__(self, workload: str, seed: int):
        group, self.k, self.prefix = WORKLOADS[workload]
        self.params = PARAM_SETS[group]
        self.strategies = [AttackStrategy(StrategyKind(s), GuessRule.UNIFORM) for s in STRATEGIES]
        self.seeds = random.Random(seed)

    def trial(self, i: int):
        """Run the next trial, with the strategy of trial i; return the
        strategy name, wall time in ns, outcome, and failure reason."""
        trial_seed = self.seeds.getrandbits(64)
        strategy = STRATEGIES[i % len(STRATEGIES)]
        start = perf_counter_ns()
        try:
            # looked up per call, so the traced run's wrapper is the one called
            out = adversary.run_mitm_trial(self.strategies[i % len(STRATEGIES)], self.params, self.k, trial_seed)
        except Exception as exc:  # a raising trial is a counted failure, not a crash
            return strategy, perf_counter_ns() - start, None, f"{strategy} trial raised {exc!r}"
        return strategy, perf_counter_ns() - start, out, trial_failure(strategy, out)


class Fingerprint:
    """Per-strategy success counts and a digest of every outcome."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.successes = dict.fromkeys(STRATEGIES, 0)

    def add(self, strategy: str, out):
        if out is None:
            self.digest.update(b"raised;")
            return
        self.successes[strategy] += out.success
        sas = [s.to_int() if s is not None else -1 for s in (out.sas_a, out.sas_b)]
        self.digest.update(f"{strategy}:{out.success}:{sas}:{out.aborts};".encode())

    def as_dict(self) -> dict:
        return {"successes": self.successes, "digest": self.digest.hexdigest()}


def timed_phase(mix: Mix, unit: str, seconds: float, first: int, min_trials: int, fingerprint=None, tracer=None):
    """Run whole rounds of the mix from trial `first` until `seconds` have
    passed and at least `min_trials` ran, with calibration units between
    rounds."""
    per = {s: [0, 0, 0] for s in STRATEGIES}  # trials, successes, summed ns
    latencies, failures = [], []
    calibration = Calibration(unit)
    busy_ns = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = first
    while i - first < min_trials or perf_counter_ns() < deadline:
        for _ in STRATEGIES:
            if tracer is not None:
                tracer.op = i
            strategy, ns, out, failure = mix.trial(i)
            if fingerprint is not None and i - first < mix.prefix:
                fingerprint.add(strategy, out)
            row = per[strategy]
            row[0] += 1
            row[1] += bool(out is not None and out.success)
            row[2] += ns
            latencies.append(ns)
            busy_ns += ns
            if failure is not None:
                failures.append(failure)
            i += 1
        calibration.keep_up(busy_ns, len(latencies))
    return {"per_strategy": per, "latencies_ns": latencies, "failures": failures[:20],
            "failed": len(failures), "next_trial": i, "calibration": calibration.as_dict()}


def setup_speed(unit: str) -> int:
    """Time calibration units right after set-up, to scale set-up time by."""
    calibration = Calibration(unit)
    for _ in range(SETUP_UNITS):
        calibration.run_unit(0)
    print(json.dumps(calibration.as_dict()))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "pair-p40"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--replay", action="store_true", help="rerun only the fingerprinted prefix")
    ap.add_argument("--confirm", choices=STRATEGIES, help="count successes of --trials fresh trials")
    ap.add_argument("--trials", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced run's spans are written to")
    ap.add_argument("--unit", default="interpreter", help="calibration unit (see calibrate.py)")
    args = ap.parse_args(argv)

    if args.workload == "pair-p40":
        # the CLI's own import is the per-process set-up of a pairing
        import saska.cli  # noqa: F401
        print("ready", flush=True)
        return setup_speed(args.unit)

    mix = Mix(args.workload, args.seed)
    if args.replay or args.confirm:
        print("ready", flush=True)
    if args.replay:
        fingerprint = Fingerprint()
        for i in range(mix.prefix):
            strategy, _, out, _ = mix.trial(i)
            fingerprint.add(strategy, out)
        print(json.dumps(fingerprint.as_dict()))
        return 0

    if args.confirm:
        column = STRATEGIES.index(args.confirm)
        successes = sum(bool(out is not None and out.success)
                        for _, _, out, _ in (mix.trial(column) for _ in range(args.trials)))
        print(json.dumps({"successes": successes}))
        return 0

    # warm-up: one trial of each strategy on a separate seed stream, so the
    # timed trials are the same ones on every run with this seed
    warm = Mix(args.workload, args.seed ^ 0x5EED)
    for i in range(len(STRATEGIES)):
        warm.trial(i)
    print("ready", flush=True)
    if args.setup_only:
        return setup_speed(args.unit)

    fingerprint = Fingerprint()
    result = timed_phase(mix, args.unit, args.seconds, 0, mix.prefix, fingerprint)
    result["fingerprint"] = fingerprint.as_dict()
    if args.trace:
        from tracing import Tracer, install

        tracer = install(Tracer())
        timed_phase(mix, args.unit, 0, result["next_trial"], len(STRATEGIES), tracer=tracer)
        tracer.reset()
        traced = timed_phase(mix, args.unit, args.seconds, result["next_trial"] + len(STRATEGIES), 0, tracer=tracer)
        traced["totals"] = tracer.totals
        traced["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
        result["traced"] = traced
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
