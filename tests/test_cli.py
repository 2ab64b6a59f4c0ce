import ast
import builtins
import contextlib
import gc
import importlib
import io
import math
import os
import pty
import random
import re
import select
import secrets
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from saska import adversary, cli, protocol
from saska.cli import EXIT_REJECTED, EXIT_TAMPER, EXIT_TIMEOUT, EXIT_TRANSPORT, main
from saska.errors import Timeout
from saska.group import PARAM_SETS
from saska.protocol import Peer, Role, format_sas, key_fingerprint
from saska.transport import StreamListener, connect_stream


def find_free_port() -> int:
    with socket.socket() as s:
        s.bind(("", 0))
        return s.getsockname()[1]


def respond(chan, peer: Peer):
    """Answer the frames on chan with peer until its SAS is ready."""
    while peer.sas is None:
        for frame in peer.receive(chan.recv_frame(5.0)):
            chan.send_frame(frame)


@contextlib.contextmanager
def serving(server):
    """A StreamListener on a free port, with server(listener) running on a
    thread.  On the way out, past a failed assert too, the thread is
    joined, then every channel the listener accepted and the listener
    itself are closed, so that no socket outlives the test."""
    listener = StreamListener(0)
    accepted = []

    def accept(timeout):
        accepted.append(StreamListener.accept(listener, timeout))
        return accepted[-1]

    listener.accept = accept
    thread = threading.Thread(target=server, args=(listener,))
    thread.start()
    try:
        yield listener
    finally:
        thread.join()
        for chan in accepted:
            chan.close()
        listener.close()


def silent_server(listener):
    """Accept one connection and send nothing."""
    listener.accept(5.0)


def garbage_server(listener):
    """Answer the first frame with a frame of unknown type, then hang up."""
    chan = listener.accept(5.0)
    chan.recv_frame(5.0)  # discard msg1
    chan.send_frame(bytes([0x07]) + (3).to_bytes(4, "big") + b"abc")
    chan.close()


def connect_when_listening(port: int):
    """A channel to the CLI peer that a thread is starting on port.  A
    refused connect returns at once, so pause between attempts until the
    thread has bound its port."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            return connect_stream("127.0.0.1", port, timeout=0.1)
        except OSError:
            time.sleep(0.02)
    raise AssertionError(f"CLI peer never listened on port {port}")


class CliThread(threading.Thread):
    def __init__(self, argv):
        super().__init__()
        self.argv = argv
        self.exit_code = None

    def run(self):
        self.exit_code = main(self.argv)


class TestParamsOption:
    @pytest.mark.parametrize("name", sorted(PARAM_SETS))
    def test_named_sets(self, name):
        peer = cli._peer_parser().parse_args(["--listen", "0", "--id", "a", "--params", name])
        sim = cli._sim_parser().parse_args(["--strategy", "honest", "--params", name])
        assert peer.params == sim.params == name

    @pytest.mark.parametrize("value", ["nosuch", "TEST", "P40", "p4", "p40 ", " p40", "", "modp3072", "./test"])
    def test_only_exact_names(self, capsys, value):
        # no case folding, prefix matching or stripping of blanks
        for parser, args in ((cli._peer_parser(), ["--listen", "0", "--id", "a"]),
                             (cli._sim_parser(), ["--strategy", "honest"])):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([*args, "--params", value])
            assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 2
        assert all(f"error: argument --params: invalid choice: {value!r}" in line for line in errors)

    def test_set_name_is_never_a_path(self, tmp_path, monkeypatch, capsys):
        # a file named like a set in the working directory is not read
        monkeypatch.chdir(tmp_path)
        for name in PARAM_SETS:
            (tmp_path / name).write_text("29\n7\n5\n")  # refused if anything loaded it
        assert main(["sim", "--strategy", "honest", "--trials", "1", "--k", "4", "--params", "test"]) == 0
        assert "successes=1" in capsys.readouterr().out

    def test_default(self):
        assert cli._peer_parser().parse_args(["--listen", "0", "--id", "a"]).params == "p40"
        assert cli._sim_parser().parse_args(["--strategy", "honest"]).params == "p40"

    def test_environment_does_not_pick_the_group(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("29\n7\n5\n")  # refused if anything loaded it
        proc = run_cli(["sim", "--strategy", "honest", "--trials", "1", "--k", "4"],
                       SASKA_PARAMS=str(path))
        assert proc.returncode == 0, proc.stderr
        assert "successes=1" in proc.stdout

    @pytest.mark.parametrize("mode", [[], ["sim"]], ids=["peer", "sim"])
    def test_help_names_the_default(self, mode):
        # argparse expands %(default)s only when it prints the help
        proc = run_cli([*mode, "--help"], COLUMNS="80")
        assert proc.returncode == 0, proc.stderr
        assert "(default p40)" in proc.stdout


def cli_env(**overrides) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def run_cli(args, **env_overrides):
    return subprocess.run([sys.executable, "-m", "saska.cli", *args], env=cli_env(**env_overrides),
                          capture_output=True, text=True, timeout=30, stdin=subprocess.DEVNULL)


def no_trials(monkeypatch) -> list:
    """Make the first simulator trial record itself and raise, so that a
    refused run that starts anyway fails at once instead of running on."""
    calls = []

    def trial(*args, **kwargs):
        calls.append(1)
        raise AssertionError("a trial ran")

    monkeypatch.setattr(adversary, "_run_trial", trial)
    return calls


# stands for the path of a valid test-group parameter file, which --params refuses
PARAMS_FILE = "<test.params>"


class TestArgumentErrors:
    """A bad argument is a usage error: exit 2, one error line, no traceback."""

    @pytest.mark.parametrize("args", [
        ["--listen", "0", "--id", "a", "--params", "nosuch"],
        ["--listen", "0", "--id", "a", "--params", PARAMS_FILE],
        ["sim", "--strategy", "honest", "--params", PARAMS_FILE],
        ["--connect", "127.0.0.1:notaport", "--id", "b"],
        ["--connect", "127.0.0.1", "--id", "b"],
        ["--connect", "127.0.0.1:0", "--id", "b"],
        ["--listen", "70000", "--id", "a"],
        ["--listen", "0", "--id", "a", "--k", "0"],
        ["--listen", "0", "--id", ""],
        ["sim", "--strategy", "honest", "--params", "nosuch"],
        ["sim", "--strategy", "full-mitm", "--k", "-1", "--exhaustive", "--params", "test"],
        ["--listen", "0", "--id", "bob\x1b[8m"],
        ["--listen", "0", "--id", "a", "--timeout", "-1"],
        ["--listen", "0", "--id", "a", "--timeout", "0"],
        ["--listen", "0", "--id", "a", "--timeout", "nan"],
        ["--listen", "0", "--id", "a", "--timeout", "inf"],
        ["--connect", "127.0.0.1:9", "--id", "b", "--timeout", "-1"],
        ["--connect", "127.0.0.1:9", "--id", "b", "--timeout", "1e300"],
        ["--listen", "0", "--id", "a" * 65],
    ])
    def test_usage_error(self, args, tmp_path):
        path = tmp_path / "test.params"
        path.write_text("23\n11\n2\n")
        proc = run_cli([str(path) if arg == PARAMS_FILE else arg for arg in args])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: ")
        assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("mode", [["--listen", "0", "--id", "a"], ["sim", "--strategy", "honest"]],
                             ids=["peer", "sim"])
    @pytest.mark.parametrize("data", [
        pytest.param(b"23\n11\n2\n", id="valid-test-group"),
        pytest.param(b"29\n7\n5\n", id="g-outside-subgroup"),
        pytest.param(f"{3 ** 5000}\n11\n2\n".encode(), id="p-not-prime"),
        pytest.param(f"{2 ** 1279 - 1}\n5\n2\n".encode(), id="q-does-not-divide-p-1"),
        pytest.param(f"23\n11\n{10 ** 2000}\n".encode(), id="g-out-of-range"),
        pytest.param(b"23\n" + b"9" * 2000 + b"x\n2\n", id="non-integer-line"),
        pytest.param(f"{53 ** 2095}\n11\n2\n".encode(), id="12000-bit-composite"),
        pytest.param(b"9" * 4400 + b"\n11\n2\n", id="4400-digit-line"),
        pytest.param(b"23\n11\n2\n" + (b"#" * 63 + b"\n") * 1024, id="65k-of-comments"),
        pytest.param(b"23\xff\n11\n2\n", id="octet-in-number"),
        pytest.param(b"# Gr\xfc\xdfe\n23\n11\n2\n", id="octet-in-comment"),
        pytest.param(b"", id="empty"),
    ])
    def test_params_file_refused_unread(self, tmp_path, monkeypatch, capsys, mode, data):
        """--params names a built-in set, never a file: whatever a file
        holds, a path to it gets the same one-line usage error as a path to
        nothing, and the file is never opened."""
        path = tmp_path / "group.params"

        def refusal():
            with pytest.raises(SystemExit) as excinfo:
                main([*mode, "--params", str(path)])
            assert excinfo.value.code == 2
            return capsys.readouterr()

        absent = refusal()
        path.write_bytes(data)
        opened = []

        def spy(real):
            def counted(file, *args, **kwargs):
                opened.append(os.fspath(file) if isinstance(file, (str, bytes, os.PathLike)) else file)
                return real(file, *args, **kwargs)
            return counted

        for owner, name in ((builtins, "open"), (io, "open"), (os, "open")):
            monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
        out, err = refusal()
        monkeypatch.undo()
        assert str(path) not in opened
        assert (out, err) == absent
        assert out == ""
        prog = "saska sim" if mode[0] == "sim" else "saska"
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"{prog}: error: argument --params: invalid choice: {str(path)!r}")

    @pytest.mark.parametrize("args", [
        ["--listen", "0", "--id", "a", "--params", "x" * 3000],
        ["--connect", "x" * 3000, "--id", "a"],
        ["--listen", "9" * 3000, "--id", "a"],
        ["--listen", "0", "--id", "a", "--k", "9" * 3000],
        ["sim", "--strategy", "x" * 3000],
        ["sim", "--strategy", "honest", "--guess", "x" * 3000],
        ["sim", "--strategy", "honest", "--trials", "x" * 3000],
        ["sim", "--strategy", "full-mitm", "--trials", "-" + "9" * 2999],
    ], ids=["params", "connect", "listen", "k", "strategy", "guess", "trials", "trials-negative"])
    def test_long_value_is_one_short_line(self, capsys, monkeypatch, args):
        """A rejected value of 3,000 characters is not echoed in full: the
        error line keeps its two ends, and no socket is opened."""
        def no_network(*args, **kwargs):
            raise AssertionError("network I/O before the arguments were checked")

        monkeypatch.setattr(cli, "connect_stream", no_network)
        monkeypatch.setattr(cli, "StreamListener", no_network)
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and len(errors) == 1
        assert "..." in errors[0] and len(errors[0]) <= len("saska sim: error: ") + 2 * cli._SHOWN + 3

    @pytest.mark.parametrize("args", [
        ["--listen", "65535"],
        ["--connect", "127.0.0.1:65535"],
        ["--listen", "0", "--timeout", str(threading.TIMEOUT_MAX)],
    ], ids=["listen-65535", "connect-65535", "timeout-max"])
    def test_upper_bounds_accepted(self, args):
        # the argument checks alone: no socket is opened
        parsed = cli._peer_parser().parse_args([*args, "--id", "a"])
        cli._check_peer_args(parsed)

    @pytest.mark.parametrize("args,message", [
        (["--listen", "65536"], "--listen 65536 is not a port in 0..65535"),
        (["--connect", "127.0.0.1:65536"],
         "--connect '127.0.0.1:65536' is not HOST:PORT with a port in 1..65535"),
        (["--listen", "0", "--timeout", str(math.nextafter(threading.TIMEOUT_MAX, math.inf))],
         f"--timeout {math.nextafter(threading.TIMEOUT_MAX, math.inf)} is not in"
         f" (0, {threading.TIMEOUT_MAX:g}] seconds"),
    ], ids=["listen-65536", "connect-65536", "timeout-past-max"])
    def test_one_past_upper_bounds_refused(self, args, message):
        parsed = cli._peer_parser().parse_args([*args, "--id", "a"])
        with pytest.raises(ValueError) as excinfo:
            cli._check_peer_args(parsed)
        assert str(excinfo.value) == message

    def test_checked_before_connecting(self):
        listener = StreamListener(0)
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob", "--k", "65"])
            assert excinfo.value.code == 2
            with pytest.raises(Timeout):
                listener.accept(0.2)
        finally:
            listener.close()


class TestSim:
    def test_exhaustive_impersonate_responder_k3(self, capsys):
        code = main(["sim", "--strategy", "impersonate-responder", "--k", "3",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rate=0.125" in out
        assert "result=pass" in out
        assert "mode=exhaustive" in out

    def test_guess_value_reaches_the_run(self, capsys, monkeypatch):
        strategies = []
        real = adversary.exhaustive_attack_success
        monkeypatch.setattr(adversary, "exhaustive_attack_success",
                            lambda strategy, *a, **kw: strategies.append(strategy) or real(strategy, *a, **kw))
        code = main(["sim", "--strategy", "full-mitm", "--k", "3", "--exhaustive",
                     "--params", "test", "--seed", "1", "--guess-value", "13"])
        out = capsys.readouterr().out
        assert code == 0
        assert [s.fixed_guess for s in strategies] == [13]
        # 13 is wider than k = 3; the attacker keeps its low bits, 5, so
        # exactly one of the eight trials wins
        assert "successes=1 " in out and "result=pass" in out

    def test_honest_completeness(self, capsys):
        code = main(["sim", "--strategy", "honest", "--trials", "100",
                     "--params", "test", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "successes=100" in out
        assert "rate=1" in out
        assert "mode=honest" in out

    def test_seeded_runs_are_deterministic(self, capsys):
        args = ["sim", "--strategy", "full-mitm", "--k", "8", "--trials", "2000",
                "--params", "test", "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_montecarlo_report_fields(self, capsys):
        code = main(["sim", "--strategy", "impersonate-initiator", "--k", "8",
                     "--trials", "2000", "--params", "test", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        kv = [l for l in out.splitlines() if l.startswith("strategy=")][0]
        for field in ("strategy=", "k=", "trials=", "successes=", "rate=",
                      "ci_low=", "ci_high=", "bound=", "result="):
            assert field in kv

    def test_exhaustive_and_montecarlo_together(self, capsys):
        code = main(["sim", "--strategy", "impersonate-responder", "--k", "3",
                     "--exhaustive", "--trials", "1500", "--params", "test", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=exhaustive" in out and "mode=montecarlo" in out

    def test_invalid_strategy_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "--strategy", "replay-everything"])
        assert excinfo.value.code == 2

    def test_invalid_strategy_in_fresh_process(self):
        # in-process tests run with saska.adversary already imported, so only
        # a fresh interpreter catches a name the lazy sim parser lacks
        proc = run_cli(["sim", "--strategy", "bogus"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: saska sim")
        assert ("choose from 'full-mitm', 'honest', 'impersonate-initiator', "
                "'impersonate-responder'") in proc.stderr
        assert proc.stdout == ""

    def test_k64_montecarlo_run(self, capsys):
        # MAX_K itself passes the --k check and the whole simulator path
        code = main(["sim", "--strategy", "full-mitm", "--k", "64", "--trials", "1000",
                     "--params", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert " k=64 trials=1000 successes=0 " in out and "result=pass" in out

    def test_exhaustive_k_too_large(self, capsys):
        code = main(["sim", "--strategy", "full-mitm", "--k", "20",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_too_few_attack_trials(self, capsys):
        code = main(["sim", "--strategy", "full-mitm", "--k", "8",
                     "--trials", "10", "--params", "test", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("args,message", [
        (["--strategy", "full-mitm", "--k", "12", "--exhaustive", "--trials", "10"],
         "error: need at least 1000 trials for a meaningful rate, got 10"),
        (["--strategy", "honest", "--k", "10", "--exhaustive", "--trials", "0"],
         "error: trials must be positive"),
        (["--strategy", "full-mitm", "--k", "4", "--trials", "1000000001"],
         "error: trials must be at most 1000000000, got 1000000001"),
    ], ids=["attack-trials-below-1000", "zero-honest-trials", "trials-above-ceiling"])
    def test_bad_trials_refused_before_any_trial(self, capsys, monkeypatch, args, message):
        calls = no_trials(monkeypatch)
        code = main(["sim", *args, "--params", "test", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert calls == []

    @pytest.mark.parametrize("seed", ["-7", "-1"])
    def test_negative_seed_refused_before_any_trial(self, capsys, monkeypatch, seed):
        # random.Random(-7) is random.Random(7): a negative seed would
        # silently repeat the run of its absolute value
        calls = no_trials(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "--strategy", "full-mitm", "--k", "4", "--trials", "2000",
                  "--params", "test", "--seed", seed])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2 and calls == []
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"saska sim: error: --seed must be non-negative, got {seed}"]

    def test_seed_zero_runs(self, capsys):
        code = main(["sim", "--strategy", "honest", "--trials", "10", "--params", "test",
                     "--k", "4", "--seed", "0"])
        assert code == 0 and capsys.readouterr().out.startswith("seed=0\n")

    def test_trials_of_3000_digits_is_one_short_line_and_no_trial(self, capsys, monkeypatch):
        calls = no_trials(monkeypatch)
        code = main(["sim", "--strategy", "honest", "--params", "test", "--k", "4",
                     "--trials", "9" * 3000])
        err = capsys.readouterr().err
        assert code == 2 and calls == []
        assert err.startswith("error: trials must be at most 1000000000, got 999") and err.count("\n") == 1
        assert "..." in err and len(err) <= len("error: ") + 2 * cli._SHOWN + 4

    def test_rate_above_bound_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(adversary, "exhaustive_attack_success",
                            lambda *args, **kwargs: Fraction(2, 8))
        code = main(["sim", "--strategy", "full-mitm", "--k", "3",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "successes=2" in out and "result=fail" in out


class TestPeerExitCodes:
    def test_connection_refused(self, capsys):
        port = find_free_port()
        code = main(["--connect", f"127.0.0.1:{port}", "--id", "bob", "--params", "test"])
        assert code == EXIT_TRANSPORT

    def test_busy_port_is_one_transport_error_line(self):
        """With warnings as errors, a listening socket left unclosed after
        its bind failed would add a ResourceWarning to the error line."""
        with socket.create_server(("", 0)) as holder:
            port = holder.getsockname()[1]
            proc = run_cli(["--listen", str(port), "--id", "alice", "--timeout", "1"],
                           PYTHONWARNINGS="error")
        assert proc.returncode == EXIT_TRANSPORT
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("transport error:"), proc.stderr

    def test_silent_peer_times_out(self):
        with serving(silent_server) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "0.2"])
        assert code == EXIT_TIMEOUT

    def test_garbage_reply_is_tamper_exit(self):
        with serving(garbage_server) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "2"])
        assert code == EXIT_TAMPER

    @pytest.mark.parametrize("server, timeout, code, prefix", [
        (garbage_server, "2", EXIT_TAMPER, "protocol violation:"),
        (silent_server, "0.2", EXIT_TIMEOUT, "timeout:"),
    ], ids=["garbage-reply", "silent-peer"])
    def test_one_error_line_in_fresh_interpreter(self, server, timeout, code, prefix):
        with serving(server) as listener:
            proc = run_cli(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                            "--params", "test", "--timeout", timeout], PYTHONWARNINGS="error")
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr

    def test_oversized_share_is_tamper_exit(self, capsys, test_params):
        """A Msg2 whose share has 2,000 octets, past the digits int-to-str
        allows, is refused like any share outside the subgroup."""
        big_share = (1 << 16000) - 1

        def bad_server(listener):
            chan = listener.accept(5.0)
            chan.recv_frame(5.0)  # discard msg1
            payload = protocol.encode_payload(protocol.PairingPayload("mallory", big_share, 0), 20)
            chan.send_frame(protocol.encode_message(protocol.Msg2(test_params.set_id, 20, payload)))
            chan.close()

        with serving(bad_server) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "2"])
        assert code == EXIT_TAMPER
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, lines
        assert lines[0] == "protocol violation: responder share of 16000 bits rejected"

    def test_tampered_decommit_aborts_responder(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        port = find_free_port()
        peer = CliThread(["--listen", str(port), "--id", "alice",
                          "--params", "test", "--timeout", "5"])
        peer.start()
        chan = connect_when_listening(port)
        mallory = Peer(Role.INITIATOR, test_params, "mallory", 20, random.Random(1))
        for frame in mallory.start():
            chan.send_frame(frame)
        (msg3,) = mallory.receive(chan.recv_frame(5.0))
        frame = bytearray(msg3)
        frame[10] ^= 0x01  # flip one bit of the decommit nonce
        chan.send_frame(bytes(frame))
        peer.join()
        chan.close()
        assert peer.exit_code == EXIT_TAMPER

    def test_operator_rejection(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("n\n"))
        box = {}

        def responder(listener):
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        with serving(responder) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_REJECTED
        assert "fingerprint" not in out
        assert f"alice : {format_sas(box['sas'])}" in out

    def test_ctrl_c_at_prompt_rejects(self, monkeypatch, capsys, test_params):
        class Interrupted:
            def readline(self):
                raise KeyboardInterrupt

        calls = []
        real = protocol.derive_key

        def spy(params, peer_share, x):
            calls.append(peer_share)
            return real(params, peer_share, x)

        monkeypatch.setattr(protocol, "derive_key", spy)
        monkeypatch.setattr("sys.stdin", Interrupted())
        box = {}

        def responder(listener):
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        with serving(responder) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_REJECTED
        assert "fingerprint" not in captured.out
        assert f"alice : {format_sas(box['sas'])}" in captured.out
        assert "rejected by operator; no key derived" in captured.err
        assert calls == []

    def test_ctrl_c_while_listening_rejects(self):
        # a shell that starts the suite in the background leaves SIGINT
        # ignored; restore the default so the CLI turns it into Ctrl-C
        proc = subprocess.Popen(
            [sys.executable, "-m", "saska.cli", "--listen", "0", "--id", "alice", "--timeout", "5"],
            env=cli_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            assert proc.stdout.readline().startswith("listening :")
            time.sleep(0.3)  # let it block in accept
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == EXIT_REJECTED
        assert "Traceback" not in err
        assert "rejected by operator; no key derived" in err

    def test_full_pairing_connect_side(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        box = {}

        def responder(listener):
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        with serving(responder) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"alice : {format_sas(box['sas'])}" in out
        assert "fingerprint: " in out

    def test_pairing_peer_draws_from_os_entropy(self, monkeypatch, test_params):
        built, draws = [], []
        real = secrets.SystemRandom.getrandbits

        def build(*args, **kwargs):
            built.append(Peer(*args, **kwargs))
            return built[-1]

        def getrandbits(self, k):
            draws.append(k)
            return real(self, k)

        monkeypatch.setattr(cli, "Peer", build)
        monkeypatch.setattr(secrets.SystemRandom, "getrandbits", getrandbits)
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))

        def responder(listener):
            chan = listener.accept(5.0)
            respond(chan, Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2)))
            chan.close()

        with serving(responder) as listener:
            code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                         "--params", "test", "--timeout", "5"])
        assert code == 0
        (peer,) = built
        assert isinstance(peer.rng, secrets.SystemRandom)
        # the private share takes at least one draw, then the k-bit nonce
        # and the commitment's 256-bit opening nonce
        assert len(draws) >= 3 and draws[-2:] == [20, 256]

    @pytest.mark.parametrize("role, draw", [
        ("initiator", "exponent"), ("initiator", 20), ("initiator", 256), ("responder", "exponent"),
    ], ids=["initiator-exponent", "initiator-auth-nonce", "initiator-commitment-nonce", "responder-exponent"])
    def test_entropy_fault_is_one_transport_error_line(self, monkeypatch, capsys, test_params, role, draw):
        """The OS generator fails on one draw, picked by the bits it asks
        for: the exponent's come from randrange(1, exponent_limit)."""
        bits = (test_params.exponent_limit - 1).bit_length() if draw == "exponent" else draw
        real = secrets.SystemRandom.getrandbits

        def getrandbits(self, k):
            if k == bits:
                raise OSError("entropy pool exhausted")
            return real(self, k)

        monkeypatch.setattr(secrets.SystemRandom, "getrandbits", getrandbits)
        if role == "initiator":
            with serving(silent_server) as listener:
                code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                             "--params", "test", "--timeout", "5"])
        else:
            port = find_free_port()
            peer = CliThread(["--listen", str(port), "--id", "alice", "--params", "test", "--timeout", "5"])
            peer.start()
            chan = connect_when_listening(port)
            try:
                for frame in Peer(Role.INITIATOR, test_params, "bob", 20, random.Random(1)).start():
                    chan.send_frame(frame)
                peer.join()
            finally:
                chan.close()
            code = peer.exit_code
        out, err = capsys.readouterr()
        assert code == EXIT_TRANSPORT
        assert err.splitlines() == ["transport error: entropy pool exhausted"]
        assert "fingerprint:" not in out

    def test_entropy_fault_in_fresh_interpreter(self):
        script = (
            "import random, sys\n"
            "from saska import cli\n"
            "def getrandbits(self, k):\n"
            "    raise OSError('entropy pool exhausted')\n"
            "random.SystemRandom.getrandbits = getrandbits\n"
            "sys.exit(cli.entry())\n"
        )
        with serving(silent_server) as listener:
            proc = subprocess.run(
                [sys.executable, "-c", script, "--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                 "--params", "test", "--timeout", "5"],
                env=cli_env(PYTHONWARNINGS="error"), capture_output=True, text=True, timeout=30,
                stdin=subprocess.DEVNULL)
        assert proc.returncode == EXIT_TRANSPORT
        assert proc.stderr.splitlines() == ["transport error: entropy pool exhausted"], proc.stderr
        assert "fingerprint:" not in proc.stdout

    def test_identity_flag_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--connect", "127.0.0.1:1"])
        assert excinfo.value.code == 2


def read_until(fd: int, text: bytes, seen: bytes = b"") -> bytes:
    """What fd yields, after `seen`, up to and including `text`; fails
    after 10 s without it."""
    deadline = time.monotonic() + 10
    while text not in seen:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(fd, 4096) if ready else b""
        assert chunk, f"no {text!r} after {seen!r}"
        seen += chunk
    return seen


class TestTypeAhead:
    """A responder whose stdin is a pseudo-terminal, as when an operator
    types the answer: only a line typed after the prompt answers it."""

    PROMPT = b"confirm match [y/n]: "

    def pair_on_terminal(self, params, type_ahead: bytes, answer: bytes):
        """Type `type_ahead` once the responder listens, pair an in-process
        initiator with it, and type `answer` once its prompt is out.
        Returns the responder's exit code, standard output and standard
        error, and the initiator."""
        master, slave = pty.openpty()
        argv = [sys.executable, "-m", "saska.cli", "--listen", "0", "--id", "alice",
                "--params", "test", "--timeout", "10"]
        try:
            with subprocess.Popen(argv, env=cli_env(), stdin=slave, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, bufsize=0) as proc:
                try:
                    out = read_until(proc.stdout.fileno(), b"\n")
                    port = int(re.match(rb"listening :(\d+)", out).group(1))
                    os.write(master, type_ahead)
                    chan = connect_stream("127.0.0.1", port, timeout=5.0)
                    try:
                        peer = Peer(Role.INITIATOR, params, "bob", 20, random.Random(1))
                        for frame in peer.start():
                            chan.send_frame(frame)
                        respond(chan, peer)
                        out = read_until(proc.stdout.fileno(), self.PROMPT, out)
                        os.write(master, answer)
                        rest, err = proc.communicate(timeout=10)
                    finally:
                        chan.close()
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
        finally:
            os.close(master)
            os.close(slave)
        return proc.returncode, (out + rest).decode(), err.decode(), peer

    def test_line_typed_before_the_prompt_is_discarded(self, test_params):
        code, out, err, peer = self.pair_on_terminal(test_params, b"y\n", b"n\n")
        assert f"bob : {format_sas(peer.sas)}" in out
        assert code == EXIT_REJECTED, out + err
        assert "fingerprint:" not in out
        assert "rejected by operator; no key derived" in err

    def test_line_typed_after_the_prompt_confirms(self, test_params):
        code, out, err, peer = self.pair_on_terminal(test_params, b"", b"y\n")
        assert code == 0, out + err
        assert f"fingerprint: {key_fingerprint(peer.confirm(True))}" in out


class TestEntry:
    """`cli.entry`, which both launchers call: freeze what start-up made,
    then run main() unchanged."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list:
        """The calls of gc.freeze, which the process running the tests must
        never really make."""
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        return calls

    def test_script_and_main_block_call_it(self):
        # pyproject.toml is read as text: Python 3.10 has no tomllib
        text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        module, name = re.search(r'^saska\s*=\s*"([\w.]+):(\w+)"$', section, re.M).groups()
        script = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        (statement,) = block.body
        exit_call = statement.value
        assert ast.unparse(exit_call.func) == "sys.exit"
        (call,) = exit_call.args
        assert isinstance(call, ast.Call) and not call.args and not call.keywords
        assert script is getattr(cli, call.func.id) is cli.entry

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4, 5])
    def test_freezes_once_then_returns_the_code_of_main(self, monkeypatch, calls, code):
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        assert cli.entry() == code
        assert calls == ["freeze", "main"]

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--listen", "0"], 2)],
                             ids=["help", "usage-error"])
    def test_argparse_exit_passes_through(self, monkeypatch, capsys, calls, argv, code):
        monkeypatch.setattr(sys, "argv", ["saska", *argv])
        with pytest.raises(SystemExit) as excinfo:
            cli.entry()
        assert excinfo.value.code == code
        assert calls == ["freeze"]
        out, err = capsys.readouterr()
        assert ("usage: saska" in out) == (code == 0)
        assert ("error: the following arguments are required: --id" in err) == (code == 2)

    def test_main_never_freezes(self, capsys, calls):
        assert main(["sim", "--strategy", "honest", "--trials", "1", "--k", "4", "--params", "test"]) == 0
        assert main(["--connect", f"127.0.0.1:{find_free_port()}", "--id", "bob",
                     "--params", "test"]) == EXIT_TRANSPORT
        assert calls == []

    def test_only_start_up_objects_are_frozen(self):
        """In a fresh interpreter, importing saska.cli freezes nothing, and a
        socket that the run leaks in a reference cycle is still freed, with
        its ResourceWarning, by the collection at exit."""
        code = ("import gc, socket, sys\n"
                "import saska.cli as cli\n"
                "assert gc.get_freeze_count() == 0\n"
                "def leak():\n"
                "    assert gc.get_freeze_count() > 0\n"
                "    box = [socket.socket()]\n"
                "    box.append(box)\n"
                "    return 3\n"
                "cli.main = leak\n"
                "sys.exit(cli.entry())\n")
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env(PYTHONWARNINGS="error"),
                              capture_output=True, text=True, timeout=30, stdin=subprocess.DEVNULL)
        assert proc.returncode == 3, proc.stderr
        assert "ResourceWarning: unclosed <socket.socket" in proc.stderr
