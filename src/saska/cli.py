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
import gc
import os
import sys
import threading

from .errors import PairingError, Timeout
from .group import DEFAULT_PARAM_SET, PARAM_SETS
from .protocol import (
    DEFAULT_K,
    MAX_K,
    Peer,
    Role,
    check_identity,
    format_sas,
    key_fingerprint,
)
from .transport import StreamListener, connect_stream

EXIT_OK = 0
EXIT_TRANSPORT = 2
EXIT_TAMPER = 3
EXIT_REJECTED = 4
EXIT_TIMEOUT = 5

DEFAULT_TIMEOUT = 30.0  # seconds per awaited message (--timeout)

_SHOWN = 100  # characters kept at each end of an over-long error message


def _clip(message: str) -> str:
    """The message, or for one longer than 2 * _SHOWN + 3 characters, which
    only an echoed argument value makes, its two ends around "...", so that
    the value's option and the rule it broke stay on one short line."""
    if len(message) <= 2 * _SHOWN + 3:
        return message
    return f"{message[:_SHOWN]}...{message[-_SHOWN:]}"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors pass through _clip."""

    def error(self, message):
        super().error(_clip(message))


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
    check_identity(args.id)


def _peer_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    p.add_argument("--params", choices=sorted(PARAM_SETS), metavar="NAME", default=DEFAULT_PARAM_SET,
                   help=f"named group: {', '.join(sorted(PARAM_SETS))} (default %(default)s)")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, metavar="SECONDS",
                   help="per-message wait (default %(default)s)")
    return p


def _sim_parser() -> argparse.ArgumentParser:
    from .adversary import GuessRule, StrategyKind  # a peer never loads the simulator

    p = _Parser(
        prog="saska sim",
        description="Measure man-in-the-middle attack success rates.",
    )
    p.add_argument("--strategy", required=True, choices=sorted(s.value for s in StrategyKind))
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
    p.add_argument("--params", choices=sorted(PARAM_SETS), metavar="NAME", default=DEFAULT_PARAM_SET,
                   help=f"named group: {', '.join(sorted(PARAM_SETS))} (default %(default)s)")
    return p


def _ask_confirmation() -> bool:
    """The answer given after the prompt: on a terminal, type-ahead is discarded first."""
    if getattr(sys.stdin, "isatty", bool)():  # a stdin stand-in without isatty() is no terminal
        try:
            import termios
        except ImportError:  # not POSIX: type-ahead is kept
            pass
        else:
            termios.tcflush(sys.stdin.fileno(), termios.TCIFLUSH)
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
        print(f"{peer.remote_payload.identity} : {format_sas(peer.sas)}", flush=True)
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
    except OSError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except PairingError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_TAMPER
    finally:
        if channel is not None:
            channel.close()
        if listener is not None:
            listener.close()
    print("rejected by operator; no key derived", file=sys.stderr)
    return EXIT_REJECTED


def run_sim(args) -> int:
    from . import adversary
    from .adversary import AttackStrategy, GuessRule, StrategyKind

    params = args.params
    kind = StrategyKind(args.strategy)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big")

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
        print(f"error: {_clip(str(exc))}", file=sys.stderr)
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
    args.params = PARAM_SETS[args.params]
    try:
        if not 1 <= args.k <= MAX_K:
            raise ValueError(f"--k must be in [1, {MAX_K}], got {args.k}")
        # random.Random seeds from the absolute value: --seed -N would repeat N
        if sim and args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if not sim:
            _check_peer_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return run_sim(args) if sim else run_peer(args)


def entry() -> int:
    """The `saska` command: main() after freezing every object that start-up
    made, so that the collections the interpreter runs at exit skip the
    loaded modules' functions, classes and dicts.  What the run makes stays
    collectable."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
