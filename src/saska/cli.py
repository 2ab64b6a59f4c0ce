"""Command-line peers and attack-simulation driver.

Peer mode pairs two processes over TCP:

    saska --listen 9000 --id alice
    saska --connect 127.0.0.1:9000 --id bob

Each side prints the remote identity next to the authentication string,
asks the operator to confirm the match, and on "y" prints the session key
fingerprint.  Sim mode measures attack success rates:

    saska sim --strategy impersonate-responder --k 3 --exhaustive
    saska sim --strategy impersonate-responder --k 8 --trials 100000 --seed 1
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
import threading

from . import adversary
from .adversary import AttackStrategy, GuessRule, StrategyKind
from .errors import (
    ChannelClosed,
    MalformedMessage,
    OpenFailed,
    PairingError,
    ParameterError,
    SubgroupCheckFailed,
    Timeout,
    WrongPhase,
)
from .group import DEFAULT_PARAM_SET, PARAM_SETS, DhParams, load_params_file
from .protocol import (
    DEFAULT_K,
    MAX_K,
    Identity,
    Peer,
    Role,
    format_sas,
    key_fingerprint,
)
from .transport import StreamListener, connect_stream

EXIT_OK = 0
EXIT_TRANSPORT = 2
EXIT_TAMPER = 3
EXIT_REJECTED = 4
EXIT_TIMEOUT = 5

PARAMS_ENV_VAR = "SASKA_PARAMS"
DEFAULT_TIMEOUT = 30.0  # seconds per awaited message (--timeout)

STRATEGY_NAMES = {s.value: s for s in StrategyKind}


def _resolve_params(spec: str | None) -> DhParams:
    """--params takes a built-in set name or a parameter file path; with no
    flag, the file named by $SASKA_PARAMS wins, then the default set."""
    if spec is None:
        env = os.environ.get(PARAMS_ENV_VAR)
        if env:
            return load_params_file(env)
        return PARAM_SETS[DEFAULT_PARAM_SET]
    if spec in PARAM_SETS:
        return PARAM_SETS[spec]
    if os.path.exists(spec):
        return load_params_file(spec)
    raise ValueError(f"--params {spec!r} is neither a known set {sorted(PARAM_SETS)} nor a file")


def _parse_address(text: str) -> tuple[str, int]:
    """HOST:PORT, with an empty host meaning the loopback address."""
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and 0 < int(port) <= 65535):
        raise ValueError(f"--connect {text!r} is not HOST:PORT with a port in 1..65535")
    return host or "127.0.0.1", int(port)


def _check_peer_args(args):
    """Reject bad peer arguments before any socket is opened; --connect
    becomes a (host, port) pair."""
    if args.listen is not None and not 0 <= args.listen <= 65535:
        raise ValueError(f"--listen {args.listen} is not a port in 0..65535")
    if args.connect is not None:
        args.connect = _parse_address(args.connect)
    if not 0 < args.timeout <= threading.TIMEOUT_MAX:  # also rejects nan and inf
        raise ValueError(f"--timeout {args.timeout} is not in (0, {threading.TIMEOUT_MAX:g}] seconds")
    Identity(args.id)


def _peer_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="saska",
        description="Pair with a peer over TCP using SAS-authenticated Diffie-Hellman.",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--listen", type=int, metavar="PORT",
                      help="wait for a peer (responder role); 0 picks a free port")
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="connect to a listening peer (initiator role)")
    p.add_argument("--id", required=True, metavar="LABEL", help="identity shown to the peer")
    p.add_argument("--k", type=int, default=DEFAULT_K, metavar="BITS",
                   help="authentication string length in bits (default %(default)s)")
    p.add_argument("--params", metavar="NAME|FILE", default=None,
                   help=f"parameter set name or file (default {DEFAULT_PARAM_SET}; env {PARAMS_ENV_VAR})")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, metavar="SECONDS",
                   help="per-message wait (default %(default)s)")
    return p


def _sim_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="saska sim",
        description="Measure man-in-the-middle attack success rates.",
    )
    p.add_argument("--strategy", required=True, choices=sorted(STRATEGY_NAMES))
    p.add_argument("--k", type=int, default=DEFAULT_K, metavar="BITS")
    p.add_argument("--trials", type=int, default=None, metavar="N",
                   help="Monte Carlo trial count (default 10000 unless --exhaustive)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed for reproducible runs")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all 2^k guessed-nonce values (k <= 16)")
    p.add_argument("--guess", choices=[g.value for g in GuessRule], default=None,
                   help="attacker guess rule (default: fixed for --exhaustive, uniform otherwise)")
    p.add_argument("--guess-value", type=int, default=0, metavar="N",
                   help="the guess used by the fixed rule")
    p.add_argument("--params", metavar="NAME|FILE", default=None)
    return p


def _ask_confirmation() -> bool:
    sys.stdout.write("confirm match [y/n]: ")
    sys.stdout.flush()
    return sys.stdin.readline().strip().lower() in ("y", "yes")


def run_peer(args) -> int:
    """Pair over TCP.  Expects the arguments as checked by main()."""
    params = args.params
    listener = None
    channel = None
    try:
        if args.connect is not None:
            host, port = args.connect
            channel = connect_stream(host, port, timeout=args.timeout)
            peer = Peer(Role.INITIATOR, params, args.id, args.k)
        else:
            listener = StreamListener(args.listen)
            print(f"listening :{listener.port}", flush=True)
            channel = listener.accept(args.timeout)
            peer = Peer(Role.RESPONDER, params, args.id, args.k)
        for frame in peer.start():
            channel.send_frame(frame)
        while peer.sas is None:
            for frame in peer.receive(channel.recv_frame(args.timeout)):
                channel.send_frame(frame)
        print(f"{peer.remote_identity.label} : {format_sas(peer.sas)}", flush=True)
        if _ask_confirmation():
            key = peer.confirm(True)
            print(f"fingerprint: {key_fingerprint(key)}", flush=True)
            return EXIT_OK
        peer.confirm(False)
    except KeyboardInterrupt:
        pass  # Ctrl-C at any point rejects the pairing, like an answer of "n"
    except Timeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (OpenFailed, MalformedMessage, SubgroupCheckFailed, WrongPhase) as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_TAMPER
    except (ChannelClosed, OSError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    finally:
        if channel is not None:
            channel.close()
        if listener is not None:
            listener.close()
    print("rejected by operator; no key derived", file=sys.stderr)
    return EXIT_REJECTED


def run_sim(args) -> int:
    params = args.params
    kind = STRATEGY_NAMES[args.strategy]
    seed = args.seed if args.seed is not None else secrets.randbits(64)

    rule = GuessRule(args.guess) if args.guess else None
    runs = []  # (strategy, Monte Carlo trials or None for the enumeration)
    if args.exhaustive:
        runs.append((AttackStrategy(kind, rule or GuessRule.FIXED, args.guess_value), None))
    if args.trials is not None or not args.exhaustive:
        trials = args.trials if args.trials is not None else 10000
        runs.append((AttackStrategy(kind, rule or GuessRule.UNIFORM, args.guess_value), trials))
    reports = []
    try:
        for strategy, trials in runs:  # every run is checked before the first trial
            adversary.check_run(strategy, args.k, trials)
        for strategy, trials in runs:
            if trials is None:
                frac = adversary.exhaustive_attack_success(strategy, params, args.k, seed=seed)
                reports.append(adversary.sim_report(
                    strategy, args.k, 2 ** args.k, int(frac * 2 ** args.k), exhaustive=True))
            else:
                reports.append(adversary.estimate_attack_success(strategy, params, args.k, trials, seed=seed))
    except (PairingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"seed={seed}")
    for line in adversary.report_table(reports):
        print(line)
    for r in reports:
        print(r.kv_line())
    return EXIT_OK if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    sim = bool(argv) and argv[0] == "sim"
    parser = _sim_parser() if sim else _peer_parser()
    args = parser.parse_args(argv[1:] if sim else argv)
    # argument errors exit 2 through argparse, before any network I/O
    try:
        args.params = _resolve_params(args.params)
        if not 1 <= args.k <= MAX_K:
            raise ValueError(f"--k must be in [1, {MAX_K}], got {args.k}")
        if not sim:
            _check_peer_args(args)
    except (ValueError, ParameterError, OSError) as exc:
        parser.error(str(exc))
    return run_sim(args) if sim else run_peer(args)


if __name__ == "__main__":
    sys.exit(main())
