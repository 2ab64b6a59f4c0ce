"""saska benchmark: simulator throughput, CLI pairing latency, per-layer traces.

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; saska is loaded from `src/` in fresh
interpreters.  With `--trace 0` the last line of standard output is the JSON
result with every end-to-end metric; with `--trace 1` it holds the per-layer
metrics of a separate traced run.  The full record of a run (machine fields,
seed, counts, tail percentile, determinism fingerprint) is written to
`perfbench/out/`.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from calibrate import Calibration, at_nominal_speed, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable

STRATEGIES = ("honest", "impersonate-initiator", "impersonate-responder", "full-mitm")
WORKLOADS = ("sim-small", "sim-modp2048", "pair-p40")
# Fixed per workload so that runs compare; each leaves at least ten samples
# beyond it at the sample count of a 30 s run (see README.md).
TAIL_PERCENTILE = {"sim-small": 99.0, "sim-modp2048": 90.0, "pair-p40": 80.0}
K = {"sim-small": 8, "sim-modp2048": 20, "pair-p40": 20}
# the calibration unit most like each workload's own work (see calibrate.py)
UNIT = {"sim-small": "interpreter", "sim-modp2048": "bignum", "pair-p40": "startup"}
SETUP_RUNS = 5  # fresh interpreters timed per run; setup_s is their median, scaled
STEP_TIMEOUT_S = 30.0

STATE_SPANS = ("protocol.init_initiator", "protocol.responder_on_commit",
               "protocol.initiator_on_payload", "protocol.responder_on_decommit", "protocol.confirm")
CODEC_SPANS = ("protocol.encode_message", "protocol.encode_payload",
               "protocol.decode_message", "protocol.decode_payload")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("SASKA_PARAMS", None)
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of a child's unbuffered stdout, or BenchError on timeout/EOF."""
    if not select.select([proc.stdout], [], [], timeout)[0]:
        raise BenchError(f"no output from {proc.args[1:3]} within {timeout} s")
    line = proc.stdout.readline().decode()
    if not line:
        raise BenchError(f"{proc.args[1:3]} exited early: {proc.stderr.read().decode()[-2000:]}")
    return line.strip()


def stop(*procs):
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.kill()
    for proc in procs:
        if proc is not None:
            proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                if pipe is not None:
                    pipe.close()


def spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([PY, *args], cwd=ROOT, env=child_env(), bufsize=0,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a simulator worker; return it and its set-up time in seconds
    (spawn until it reports `ready`)."""
    start = perf_counter_ns()
    proc = spawn([str(HERE / "simworker.py"), *args])
    try:
        if read_line(proc, 120) != "ready":
            raise BenchError("worker did not report ready")
    except BaseException:
        stop(proc)
        raise
    return proc, (perf_counter_ns() - start) / 1e9


def finish_worker(proc: subprocess.Popen, timeout: float) -> dict:
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {err.decode()[-2000:]}")
    return json.loads(lines[-1])


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw set-up times of SETUP_RUNS fresh interpreters, and each scaled
    to the nominal speed by the units it timed right after set-up."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc, seconds = start_worker(["--workload", workload, "--seed", str(seed), "--setup-only",
                                      "--unit", UNIT[workload]])
        raw.append(seconds)
        scaled.append(seconds * speed_factor(finish_worker(proc, 60)))
    return raw, scaled


# --- statistics -------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def beyond(values: list[float], pct: float) -> int:
    cut = percentile(values, pct)
    return sum(v > cut for v in values)


def end_to_end(times_ms: list[float], workload: str) -> dict:
    """Rates and percentiles of one run's operation times.  On sim-* the
    operations are round-robin over STRATEGIES; the median is taken per
    strategy and averaged, because the median of the four-way mixture
    falls between its clusters and jumps from run to run."""
    if workload == "pair-p40":
        per = [times_ms] * len(STRATEGIES)  # every pairing is an honest session
        p50 = statistics.median(times_ms)
    else:
        per = [times_ms[i::len(STRATEGIES)] for i in range(len(STRATEGIES))]
        p50 = statistics.mean(statistics.median(p) for p in per)
    metrics = {"ops_per_s": len(times_ms) / (sum(times_ms) / 1e3), "op_ms_p50": p50,
               "op_ms_tail": percentile(times_ms, TAIL_PERCENTILE[workload])}
    for strategy, p in zip(STRATEGIES, per):
        metrics[f"ops_per_s.{strategy}"] = len(p) / (sum(p) / 1e3)
    return metrics


# --- simulator workloads ----------------------------------------------------

def bound_gate(workload: str, seed: int, per: dict, problems: list[str]):
    """Fail an attack strategy whose 99% Wilson ci_low exceeds 2^-k on the
    run's trials and again on a fresh sample of the same size.  The second
    sample keeps the rule's 1-in-150 chance of tripping on a correct program
    from failing one run in fifty."""
    sys.path.insert(0, str(ROOT / "src"))
    from saska.adversary import wilson_interval  # the rule `saska sim` applies

    bound = 2.0 ** -K[workload]
    for strategy in STRATEGIES[1:]:
        trials, successes, _ = per[strategy]
        if wilson_interval(successes, trials)[0] <= bound:
            continue
        proc, _ = start_worker(["--workload", workload, "--seed", str(seed ^ 0xC0FFEE),
                                "--confirm", strategy, "--trials", str(trials)])
        fresh = finish_worker(proc, 600)["successes"]
        if wilson_interval(fresh, trials)[0] > bound:
            problems.append(f"{strategy}: {successes}/{trials} and {fresh}/{trials} successes, "
                            f"99% ci_low above the bound 2^-{K[workload]}")


def run_sim(workload: str, seed: int, seconds: float, trace: bool, record: dict) -> tuple:
    raw_setups, setups = setup_times(workload, seed)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--unit", UNIT[workload]]
    if trace:
        args += ["--spans", str(OUT / f"{workload}-seed{seed}.spans.csv")]
    proc, _ = start_worker(args)
    result = finish_worker(proc, 3 * seconds + 120)

    phases = [result] + ([result["traced"]] if trace else [])
    problems = [f for phase in phases for f in phase["failures"]]
    attempted = sum(len(phase["latencies_ns"]) for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    per = {s: [sum(phase["per_strategy"][s][i] for phase in phases) for i in range(3)] for s in STRATEGIES}
    bound_gate(workload, seed, per, problems)

    # determinism: a second interpreter replays the fingerprinted prefix
    proc, _ = start_worker(["--workload", workload, "--seed", str(seed), "--replay"])
    replay = finish_worker(proc, 600)
    if replay != result["fingerprint"]:
        problems.append(f"same seed, different outcomes: {result['fingerprint']} then {replay}")
    record["fingerprint"] = result["fingerprint"]
    record["successes"] = {s: per[s][1] for s in STRATEGIES}

    raw_ms = [ns / 1e6 for ns in result["latencies_ns"]]
    times_ms = at_nominal_speed(raw_ms, result["calibration"])
    metrics = end_to_end(times_ms, workload)
    metrics.update(ok_ratio=(attempted - failed) / attempted, setup_s=statistics.median(setups))
    record.update(raw_end_to_end=end_to_end(raw_ms, workload), speed_factor=speed_factor(result["calibration"]),
                  samples=len(times_ms), beyond_tail=beyond(times_ms, TAIL_PERCENTILE[workload]),
                  setup_runs_s=raw_setups, setup_runs_scaled_s=setups)

    layers = None
    if trace:
        traced = result["traced"]
        traced_ms = [ns / 1e6 for ns in traced["latencies_ns"]]
        record["unwrapped"] = traced["missing"]
        layers = layer_metrics(traced["totals"], len(traced_ms), {
            "trace.overhead_ratio": statistics.mean(at_nominal_speed(traced_ms, traced["calibration"]))
            / statistics.mean(times_ms),
            "trace.accounted_ratio": sum(t[2] for t in traced["totals"].values()) / 1e6 / sum(traced_ms),
        })
    return metrics, layers, attempted, failed, problems


# --- CLI pairing workload ---------------------------------------------------

SAS_LINE = re.compile(r"^(.+) : ([0-9A-F]+)$", re.M)
FINGERPRINT = re.compile(r"fingerprint: ([0-9a-f]{8})")


def pair_once(op: int, labels: tuple[str, str], spans_dir: Path | None) -> dict:
    """One loopback pairing between two fresh CLI processes, both answering
    y.  Returns its timings, or raises BenchError naming what went wrong."""
    def peer(role: str, args: list[str]) -> subprocess.Popen:
        if spans_dir is None:
            return spawn(["-m", "saska.cli", *args])
        return spawn([str(HERE / "launcher.py"), str(spans_dir / f"{op}-{role}.csv"), str(op), *args])

    alice, bob = labels
    responder = initiator = None
    start = perf_counter_ns()
    try:
        responder = peer("responder", ["--listen", "0", "--id", alice])
        responder.stdin.write(b"y\n")  # unbuffered; communicate() closes stdin
        listening = read_line(responder, STEP_TIMEOUT_S)
        ready = perf_counter_ns()
        port = listening.rpartition(":")[2]
        if not listening.startswith("listening :") or not port.isdigit():
            raise BenchError(f"pairing {op}: responder printed {listening!r}")
        initiator = peer("initiator", ["--connect", f"127.0.0.1:{port}", "--id", bob])
        out_i, err_i = initiator.communicate(b"y\n", timeout=STEP_TIMEOUT_S)
        out_r, err_r = responder.communicate(timeout=STEP_TIMEOUT_S)
        end = perf_counter_ns()
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pairing {op} timed out: {exc}") from None
    finally:
        stop(responder, initiator)

    out_r, out_i = out_r.decode(), out_i.decode()
    if responder.returncode or initiator.returncode:
        raise BenchError(f"pairing {op} exited {responder.returncode}/{initiator.returncode}: "
                         f"{err_r.decode().strip()} | {err_i.decode().strip()}")
    seen_r, seen_i = SAS_LINE.search(out_r), SAS_LINE.search(out_i)
    fp_r, fp_i = FINGERPRINT.search(out_r), FINGERPRINT.search(out_i)
    if not (seen_r and seen_i and fp_r and fp_i):
        raise BenchError(f"pairing {op} printed no string or fingerprint: {out_r!r} | {out_i!r}")
    if (seen_r[1], seen_i[1]) != (bob, alice):
        raise BenchError(f"pairing {op} showed identities {seen_r[1]!r}/{seen_i[1]!r}")
    if seen_r[2] != seen_i[2]:
        raise BenchError(f"pairing {op} strings differ: {seen_r[2]} vs {seen_i[2]}")
    if fp_r[1] != fp_i[1]:
        raise BenchError(f"pairing {op} fingerprints differ: {fp_r[1]} vs {fp_i[1]}")
    return {"ms": (end - start) / 1e6, "ready_ms": (ready - start) / 1e6}


def pair_phase(rng: random.Random, seconds: float, first: int, spans_dir: Path | None):
    """Pair for `seconds`, with calibration units between pairings."""
    done, problems = [], []
    calibration = Calibration(UNIT["pair-p40"])
    deadline = perf_counter_ns() + int(seconds * 1e9)
    op = first
    while perf_counter_ns() < deadline or not done:
        labels = (f"alice-{rng.getrandbits(24):06x}", f"bob-{rng.getrandbits(24):06x}")
        try:
            done.append(pair_once(op, labels, spans_dir))
        except BenchError as exc:
            problems.append(str(exc))
        op += 1
        if len(problems) >= 3:  # the program is broken; stop early
            break
        calibration.keep_up(sum(d["ms"] for d in done) * 1e6, len(done))
    return done, problems, op - first, calibration.as_dict()


def span_totals(spans_dir: Path, combined: Path) -> dict:
    """Sum the per-process span files of the traced pairings into totals per
    span name, and join them into one file."""
    totals: dict[str, list[int]] = {}
    header = None
    with open(combined, "w", encoding="utf-8") as out:
        for path in sorted(spans_dir.glob("*.csv")):
            lines = path.read_text(encoding="utf-8").splitlines()
            if header is None:
                header = lines[0]
                out.write(f"process,{header}\n")
            for line in lines[1:]:
                out.write(f"{path.stem},{line}\n")
                name, self_ns, ok = (line.split(",")[i] for i in (3, 6, 7))
                t = totals.setdefault(name, [0, 0, 0])
                t[0] += 1
                t[1] += int(ok)
                t[2] += int(self_ns)
            path.unlink()
    spans_dir.rmdir()
    return totals


def run_pair(workload: str, seed: int, seconds: float, trace: bool, record: dict) -> tuple:
    raw_setups, setups = setup_times(workload, seed)
    rng = random.Random(seed)
    pair_phase(random.Random(~seed), 0, 0, None)  # warm the file cache; untimed
    done, problems, attempted, calibration = pair_phase(rng, seconds, 0, None)
    failed = attempted - len(done)
    if not done:
        return {}, None, attempted, failed, problems
    raw_ms = [d["ms"] for d in done]
    times_ms = at_nominal_speed(raw_ms, calibration)
    metrics = end_to_end(times_ms, workload)
    metrics.update(ok_ratio=len(done) / attempted, setup_s=statistics.median(setups))
    record.update(raw_end_to_end=end_to_end(raw_ms, workload), speed_factor=speed_factor(calibration),
                  samples=len(times_ms), beyond_tail=beyond(times_ms, TAIL_PERCENTILE[workload]),
                  setup_runs_s=raw_setups, setup_runs_scaled_s=setups)

    layers = None
    if trace:
        spans_dir = OUT / f"{workload}-seed{seed}.spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced, traced_problems, traced_attempted, traced_calibration = pair_phase(rng, seconds, attempted, spans_dir)
        problems += traced_problems
        attempted += traced_attempted
        failed += traced_attempted - len(traced)
        totals = span_totals(spans_dir, OUT / f"{workload}-seed{seed}.spans.csv")
        if traced:
            layers = layer_metrics(totals, len(traced), {
                "cli.listen_ready_ms": statistics.median(d["ready_ms"] for d in traced),
                "trace.overhead_ratio": statistics.median(at_nominal_speed([d["ms"] for d in traced], traced_calibration))
                / metrics["op_ms_p50"],
            })
    return metrics, layers, attempted, failed, problems


# --- per-layer metrics ------------------------------------------------------

def layer_metrics(totals: dict, ops: int, extra: dict) -> dict:
    """Per-layer figures per operation (trial, or pairing on pair-p40) from
    span totals [calls, returned, self_ns]; a layer that did not run reads 0."""
    def t(name):
        return totals.get(name, (0, 0, 0))

    def calls(*names):
        return sum(t(n)[0] for n in names) / ops

    def us(*names):
        return sum(t(n)[2] for n in names) / ops / 1e3

    recv = t("transport.recv_frame")
    values = {
        "group.pub_share_us": us("group.pub_share"),
        "group.in_subgroup_us": us("group.in_subgroup"),
        "group.derive_key_us": us("group.derive_key"),
        "group.gen_private_share_us": us("group.gen_private_share"),
        "group.in_subgroup_calls_per_trial": calls("group.in_subgroup"),
        "group.pub_share_calls_per_trial": calls("group.pub_share"),
        "commitment.commit_us": us("commitment.commit"),
        "commitment.open_us": us("commitment.open"),
        "commitment.calls_per_trial": calls("commitment.commit", "commitment.open"),
        "protocol.encode_us": us("protocol.encode_message", "protocol.encode_payload"),
        "protocol.decode_us": us("protocol.decode_message", "protocol.decode_payload"),
        "protocol.codec_calls_per_trial": calls(*CODEC_SPANS),
        "protocol.state_us": us(*STATE_SPANS),
        "transport.send_us": us("transport.send_frame", "transport.dispatch"),
        "transport.recv_us": us("transport.recv_frame"),
        "transport.recv_calls_per_trial": calls("transport.recv_frame"),
        "transport.recv_hit_ratio": recv[1] / recv[0] if recv[0] else 0.0,
        "transport.frames_per_trial": calls("transport.send_frame"),
        "transport.connect_ms": us("transport.connect") / 1e3,
        "transport.accept_ms": us("transport.accept") / 1e3,
        "transport.stream_send_us": us("transport.stream_send"),
        "transport.stream_recv_ms": us("transport.stream_recv") / 1e3,
        "adversary.callback_us": us("adversary.callback"),
        "adversary.callbacks_per_trial": calls("adversary.callback"),
        "adversary.child_rngs_us": us("adversary.child_rngs"),
        "adversary.attacker_dh_us": us("adversary.make_attacker", "adversary.key_with_a", "adversary.key_with_b"),
        "adversary.driver_us": us("adversary.run_mitm_trial"),
        "cli.listen_ready_ms": 0.0,
        "cli.run_peer_ms": us("cli.run_peer") / 1e3,
        "trace.overhead_ratio": 0.0,
        "trace.accounted_ratio": 0.0,
    }
    values.update(extra)
    return values


# --- entry point ------------------------------------------------------------

def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="saska benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "saska" / "cli.py").is_file():
        print(f"error: no saska sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tail_percentile": TAIL_PERCENTILE[args.workload],
              "machine_start": machine()}
    runner = run_pair if args.workload == "pair-p40" else run_sim
    try:
        metrics, layers, attempted, failed, problems = runner(
            args.workload, args.seed, args.seconds, bool(args.trace), record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["machine_end"] = machine()
    record.update(attempted=attempted, failed=failed, problems=problems,
                  end_to_end=metrics, per_layer=layers)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = (layers if args.trace else metrics) or {}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    correct = not problems and failed == 0
    for problem in problems:
        print(f"FAIL {problem}")
    print("machine " + json.dumps({k: record[k] for k in ("seed", "machine_start", "machine_end")}))
    shown = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in measured}
    for name, metric in shown.items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
